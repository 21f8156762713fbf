"""Verification campaigns: duality-based uniqueness and continuous dependence.

Uniqueness is rendered at desk scale as convergence: two different
discretizations of one problem must agree in the limit, so the terminal
pairings of their difference against a basis of terminal data shrink under
joint refinement.  The duality bookkeeping itself is validated to machine
precision on a synthetic run where the difference follows the linearized
explicit dynamics exactly and the adjoint is its exact transpose.  Every
march here, the forward runs, the linearized difference and the batched
transpose adjoint of the terminal basis (on the truncated average of the two
forward trajectories), goes through the one stepping loop
:func:`sktsim.forward._march` on stacked pairs, and the stored levels of a
forward :class:`~sktsim.forward.Trajectory` are read as one stacked array.
The initial data, the terminal basis, the solution differences and the
adjoint levels are stacked pairs, and every pairing and norm of them is one
call to the reductions of :mod:`sktsim.grid`.

Continuous dependence perturbs the initial data along a fixed direction
and fits how the weak norm of the solution difference scales with the
perturbation size, alongside the ingredient terms of the initial-data
bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from sktsim.adjoint import AdjointRHSKind, step_adjoint_transpose, theta_eps
from sktsim.algebra import Coefficients, _apply, _stacked_P, _stacked_Q, dual_exponent, eval_l
from sktsim.forward import ForwardProblem, SchemeKind, TimeGrid, Trajectory, _march, run_forward
from sktsim.grid import (
    BoundaryCondition,
    Grid,
    _flat,
    h1_norms,
    inner,
    laplacian,
    lp_norm,
    weak_norm,
)

__all__ = [
    "DependenceConfig",
    "DependenceReport",
    "DualityLevel",
    "DualityReport",
    "UniquenessConfig",
    "chi_basis",
    "continuous_dependence_experiment",
    "frozen_duality_check",
    "scalar_reduction_check",
    "uniqueness_experiment",
]

TINY_EPS = 1e-9  # truncation threshold far above any desk-scale data

# The two discretizations whose difference the uniqueness experiment pairs.
_SCHEMES = (SchemeKind.EXPLICIT, SchemeKind.IMEX_LAGGED)


def chi_basis(grid: Grid, bc: BoundaryCondition, modes: int = 2) -> tuple[list[str], np.ndarray]:
    """Low-frequency terminal-data basis, one component at a time, H1-normalized.

    Returns the labels and the basis as stacked pairs, shape
    (B, 2, *grid.shape).  Neumann uses {1, cos(k pi x / L)}, Dirichlet uses
    {sin(k pi x / L)}, so every element satisfies the homogeneous boundary
    condition exactly.
    """
    profiles: list[tuple[str, np.ndarray]] = []
    L = grid.length
    if grid.dim == 1:
        x = grid.centers()
        if bc is BoundaryCondition.NEUMANN:
            profiles.append(("const", np.ones(grid.shape)))
            for k in range(1, modes + 1):
                profiles.append((f"cos{k}", np.cos(k * np.pi * x / L)))
        else:
            for k in range(1, modes + 2):
                profiles.append((f"sin{k}", np.sin(k * np.pi * x / L)))
    else:
        X, Y = grid.meshgrid()
        if bc is BoundaryCondition.NEUMANN:
            pairs = [(0, 0), (1, 0), (0, 1), (1, 1)][: modes + 1]
            for i, j in pairs:
                profiles.append((f"cos{i}{j}",
                                 np.cos(i * np.pi * X / L) * np.cos(j * np.pi * Y / L)))
        else:
            pairs = [(1, 1), (2, 1), (1, 2)][: modes + 1]
            for i, j in pairs:
                profiles.append((f"sin{i}{j}",
                                 np.sin(i * np.pi * X / L) * np.sin(j * np.pi * Y / L)))
    zero = np.zeros(grid.shape)
    labels = [f"{comp}:{label}" for label, _ in profiles for comp in ("u", "v")]
    basis = np.array([pair for _, prof in profiles for pair in ((prof, zero), (zero, prof))])
    h1 = h1_norms(grid, basis, bc)
    scale = np.sqrt(h1[:, 0] ** 2 + h1[:, 1] ** 2)
    return labels, (1.0 / scale).reshape((-1,) + (1,) * (grid.dim + 1)) * basis


def scalar_reduction_check(times: np.ndarray, pairing: np.ndarray, a1: float) -> float:
    """Max deviation of exp(-(a1-1) t) * pairing(t) from its initial value."""
    times = np.asarray(times, dtype=float)
    pairing = np.asarray(pairing, dtype=float)
    if times.shape != pairing.shape:
        raise ValueError("times and pairing series must have the same length")
    weighted = np.exp(-(a1 - 1.0) * times) * pairing
    return float(np.max(np.abs(weighted - weighted[0])))


def _linearized_difference_step(c: Coefficients, grid: Grid, u_tilde: np.ndarray,
                                u_bar: np.ndarray, bc: BoundaryCondition, dt: float) -> np.ndarray:
    """Explicit step of the exact linear dynamics of a solution difference,
    on the stacked difference ``u_bar`` with the stacked state ``u_tilde``:
    d/dt u_bar = Lap(P(u~) u_bar) - Q(u~) u_bar + l(u_bar).
    """
    s, x = _flat(u_tilde, grid.dim), _flat(u_bar, grid.dim)
    prod = _apply(*_stacked_P(c, s), x).reshape(u_bar.shape)
    lap = _flat(laplacian(grid, prod, bc), grid.dim)
    qx = _apply(*_stacked_Q(c, s), x)
    return (x + dt * (lap - qx + c.columns.growth * x)).reshape(u_bar.shape)


def _duality_residual_series(c: Coefficients, grid: Grid, u_bar: np.ndarray,
                             phi: np.ndarray, dt: float) -> np.ndarray:
    """Discrete residual of the collapsed pairing identity, one row per batch
    member and one value per step.

    ``u_bar`` holds the difference levels, shape (S+1, 2, *grid.shape);
    ``phi`` the adjoint levels of B terminal data, shape (B, S+1, 2, *grid.shape).
    r_n = (p_{n+1} - p_n)/dt + <u_bar^n, phi^{n+1}> - <l(u_bar^n), phi^{n+1}>
    with p_n the pairing at level n; identically zero (to roundoff) when the
    difference follows the linearized dynamics and the adjoint is its exact
    transpose with the identity right-hand side.
    """
    p = inner(grid, u_bar, phi)
    l_bar = eval_l(c, _flat(u_bar[:-1], grid.dim)).reshape(u_bar[:-1].shape)
    return ((p[:, 1:] - p[:, :-1]) / dt + inner(grid, u_bar[:-1], phi[:, 1:])
            - inner(grid, l_bar, phi[:, 1:]))


def frozen_duality_check(c: Coefficients, grid: Grid, bc: BoundaryCondition,
                         T: float, dt: float, u_tilde: np.ndarray, u_bar0: np.ndarray,
                         chi: np.ndarray) -> float:
    """Max duality residual on a synthetic frozen-coefficient run.

    The difference evolves by the linearized explicit dynamics with constant
    coefficient state; the adjoint is its exact transpose.  The state
    ``u_tilde``, the initial difference ``u_bar0`` and the terminal data
    ``chi`` are stacked pairs (2, *grid.shape), and ``dt`` must divide ``T``
    (else ValueError).  The residual is pure linear algebra and sits at
    roundoff level.
    """
    steps = TimeGrid(T, dt).steps
    u_bar = _march(lambda u_bar, _: _linearized_difference_step(c, grid, u_tilde, u_bar, bc, dt),
                   grid, u_bar0, 0, steps, dt)
    phi = _march(lambda phi, _: step_adjoint_transpose(c, grid, phi, u_tilde, bc, dt,
                                                       AdjointRHSKind.IDENTITY),
                 grid, chi[None], steps, 0, dt)
    res = _duality_residual_series(c, grid, u_bar, phi, dt)
    return float(np.max(np.abs(res)))


@dataclass
class DualityLevel:
    n: int
    dt: float
    pairings: dict[str, float]
    max_pairing: float
    residual_series: np.ndarray  # per-step, max over the terminal basis
    max_residual: float
    sbp_gap: float
    reduction_deviation: float


@dataclass
class DualityReport:
    levels: list[DualityLevel]

    @property
    def pairing_ratios(self) -> list[float]:
        vals = [lv.max_pairing for lv in self.levels]
        return [a / b if b > 0 else math.inf for a, b in zip(vals, vals[1:])]

    @property
    def reduction_ratios(self) -> list[float]:
        vals = [lv.reduction_deviation for lv in self.levels]
        return [a / b if b > 0 else math.inf for a, b in zip(vals, vals[1:])]


@dataclass
class UniquenessConfig:
    coefficients: Coefficients
    bc: BoundaryCondition
    dim: int
    length: float
    base_n: int
    t_final: float
    base_dt: float
    initial: Callable[[Grid], np.ndarray]  # a stacked pair on the grid
    levels: int = 3
    modes: int = 2


def uniqueness_experiment(cfg: UniquenessConfig) -> DualityReport:
    """Difference of two discretizations paired against terminal data.

    Per refinement level (N, dt) -> (2N, dt/2): run the explicit and the
    IMEX scheme from the same initial data, march the transpose adjoint step
    on the average of their levels, truncated at ``TINY_EPS``, for the
    whole terminal basis as one batch, and record the endpoint
    pairings |<u_bar(T), chi>|, the per-step duality residuals, the
    summation-by-parts telescoping gap, and the scalar-reduction deviation of
    the summed pairing.
    """
    c = cfg.coefficients

    def run_level(k: int) -> DualityLevel:
        grid = Grid(cfg.dim, cfg.length, cfg.base_n * 2 ** k)
        dt = cfg.base_dt / 2 ** k
        tg = TimeGrid(cfg.t_final, dt)
        initial = cfg.initial(grid)
        trajs = []
        for scheme in _SCHEMES:
            problem = ForwardProblem(c, grid, cfg.bc, tg, scheme, initial, stride=1)
            trajs.append(run_forward(problem))
        t1, t2 = trajs
        u_bar = t1.levels - t2.levels

        labels, basis = chi_basis(grid, cfg.bc, cfg.modes)
        states = theta_eps(TINY_EPS, 0.5 * (t1.levels + t2.levels))

        def adjoint_step(phi: np.ndarray, k: int) -> np.ndarray:
            return step_adjoint_transpose(c, grid, phi, states[k], cfg.bc, dt,
                                          AdjointRHSKind.IDENTITY)

        phi = _march(adjoint_step, grid, basis, tg.steps, 0, dt)

        series = inner(grid, u_bar, phi)       # (B, S+1); phi(T) = chi
        residual_series = np.max(np.abs(_duality_residual_series(c, grid, u_bar, phi, dt)),
                                 axis=0)
        # Summation by parts, term by term and summed in step order (cumsum):
        # its roundoff is what the gate reads.
        terms = (inner(grid, u_bar[1:] - u_bar[:-1], phi[:, 1:])
                 + inner(grid, u_bar[:-1], phi[:, 1:] - phi[:, :-1]))
        telescoped = np.cumsum(terms, axis=1)[:, -1]
        sbp_gap = float(np.max(np.abs(telescoped - (series[:, -1] - series[:, 0]))))
        times = np.asarray(t1.stored_steps, dtype=float) * dt
        reduction_dev = max(scalar_reduction_check(times, row, c.a1) for row in series)
        pairings = {label: float(p) for label, p in zip(labels, series[:, -1])}

        return DualityLevel(
            n=grid.n, dt=dt, pairings=pairings,
            max_pairing=max(abs(v) for v in pairings.values()),
            residual_series=residual_series,
            max_residual=float(np.max(residual_series)), sbp_gap=sbp_gap,
            reduction_deviation=reduction_dev)

    return DualityReport(levels=[run_level(k) for k in range(cfg.levels)])


@dataclass
class DependenceConfig:
    coefficients: Coefficients
    bc: BoundaryCondition
    dim: int
    length: float
    n: int
    t_final: float
    dt: float
    base_initial: Callable[[Grid], np.ndarray]  # stacked pairs on the grid
    perturbation: Callable[[Grid], np.ndarray]


@dataclass
class DependenceReport:
    deltas: list[float]
    taus: list[float]
    q_exponent: float
    weak_norms: dict[float, list[float]]          # tau -> per delta
    basis_sup: dict[float, list[float]]           # tau -> per delta
    input_l2: list[float]                         # |u_bar(0)|_L2 per delta
    input_lq: list[float]                         # |u_bar(0)|_Lq per delta
    ingredient_47: list[float]
    ingredient_48: list[float]
    ingredient_49: list[float]
    slopes: dict[float, float]
    kappa_fit: dict[float, float]


def continuous_dependence_experiment(cfg: DependenceConfig) -> DependenceReport:
    """Scaling of the weak norm of the solution difference with the data offset.

    For each delta in (1e-3, 1e-2, 1e-1) the IMEX run starts from
    base + delta * w; the weak norm of the difference at tau = T/4, T/2, T
    is recorded next to the basis sup (two modes), the initial-data norms
    with exponent q = dual_exponent(d), the three ingredient terms of the
    initial-data bound, and the fitted log-log slope.
    """
    deltas = [1e-3, 1e-2, 1e-1]
    grid = Grid(cfg.dim, cfg.length, cfg.n)
    tg = TimeGrid(cfg.t_final, cfg.dt)
    if tg.steps % 4 != 0:
        raise ValueError("step count must be divisible by 4 so tau levels are stored")
    stride = tg.steps // 4
    q = dual_exponent(cfg.dim)
    # tau = T/4, T/2 and T are the stored levels 1, 2 and 4.
    quarters = (1, 2, 4)
    taus = [k / 4 * cfg.t_final for k in quarters]

    base = cfg.base_initial(grid)
    w = cfg.perturbation(grid)

    def run(initial: np.ndarray) -> Trajectory:
        problem = ForwardProblem(cfg.coefficients, grid, cfg.bc, tg, SchemeKind.IMEX_LAGGED,
                                 initial, stride=stride)
        return run_forward(problem)

    base_traj = run(base)
    _, basis = chi_basis(grid, cfg.bc, modes=2)

    weak_norms: dict[float, list[float]] = {tau: [] for tau in taus}
    basis_sup: dict[float, list[float]] = {tau: [] for tau in taus}
    input_l2, input_lq = [], []
    ing47, ing48, ing49 = [], [], []
    sqrt_t = math.sqrt(cfg.t_final)
    p47 = 4.0 * cfg.dim / (cfg.dim + 2.0)
    p48 = 2.0 * cfg.dim / (6.0 - cfg.dim)

    for delta in deltas:
        diff = run(base + delta * w).levels - base_traj.levels
        bar0 = diff[0]
        input_l2.append(math.sqrt(inner(grid, bar0, bar0)))
        input_lq.append(lp_norm(grid, bar0, q))
        ing47.append(sqrt_t * lp_norm(grid, bar0, p47))
        ing48.append(cfg.t_final * lp_norm(grid, bar0, p48))
        ing49.append(sqrt_t * input_l2[-1])
        for tau, k in zip(taus, quarters):
            weak_norms[tau].append(weak_norm(grid, diff[k], cfg.bc))
            basis_sup[tau].append(float(np.max(np.abs(inner(grid, diff[k], basis)))))

    log_d = np.log(np.asarray(deltas))
    slopes = {}
    kappa_fit = {}
    for tau in taus:
        vals = np.asarray(weak_norms[tau])
        slopes[tau] = float(np.polyfit(log_d, np.log(vals), 1)[0])
        kappa_fit[tau] = max(v / lq for v, lq in zip(weak_norms[tau], input_lq))

    return DependenceReport(
        deltas=deltas, taus=taus, q_exponent=q, weak_norms=weak_norms,
        basis_sup=basis_sup, input_l2=input_l2, input_lq=input_lq,
        ingredient_47=ing47, ingredient_48=ing48, ingredient_49=ing49,
        slopes=slopes, kappa_fit=kappa_fit)
