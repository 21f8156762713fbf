"""Verification campaigns: duality-based uniqueness and continuous dependence.

Uniqueness is rendered at desk scale as convergence: two different
discretizations of one problem must agree in the limit, so the terminal
pairings of their difference against a basis of terminal data shrink under
joint refinement.  The duality bookkeeping itself is validated to machine
precision on a synthetic run where the difference follows the linearized
explicit dynamics exactly and the adjoint is its exact transpose.

Continuous dependence perturbs the initial data along a fixed direction
and fits how the weak norm of the solution difference scales with the
perturbation size, alongside the ingredient terms of the initial-data
bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from sktsim.adjoint import (
    AdjointBoundsReport,
    AdjointMode,
    AdjointRHSKind,
    run_adjoint,
    step_adjoint_transpose,
)
from sktsim.algebra import Coefficients, SpeciesPair, dual_exponent, eval_l, eval_p, eval_q, jac_P, jac_Q
from sktsim.forward import ForwardProblem, SchemeKind, TimeGrid, Trajectory, run_forward
from sktsim.grid import (
    BoundaryCondition,
    FieldPair,
    Grid,
    component_l2,
    inner,
    laplacian,
    lp_norm,
    norms,
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
    "weak_form_residual",
]

TINY_EPS = 1e-9  # truncation threshold far above any desk-scale data


def chi_basis(grid: Grid, bc: BoundaryCondition, modes: int = 2) -> list[tuple[str, FieldPair]]:
    """Low-frequency terminal-data basis, one component at a time, H1-normalized.

    Neumann uses {1, cos(k pi x / L)}, Dirichlet uses {sin(k pi x / L)}, so
    every element satisfies the homogeneous boundary condition exactly.
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
    basis = []
    zero = np.zeros(grid.shape)
    for label, prof in profiles:
        for comp in ("u", "v"):
            f = FieldPair(grid, prof, zero) if comp == "u" else FieldPair(grid, zero, prof)
            scale = norms(f, bc).h1
            basis.append((f"{comp}:{label}", (1.0 / scale) * f))
    return basis


def scalar_reduction_check(times: np.ndarray, pairing: np.ndarray, a1: float) -> float:
    """Max deviation of exp(-(a1-1) t) * pairing(t) from its initial value."""
    times = np.asarray(times, dtype=float)
    pairing = np.asarray(pairing, dtype=float)
    if times.shape != pairing.shape:
        raise ValueError("times and pairing series must have the same length")
    weighted = np.exp(-(a1 - 1.0) * times) * pairing
    return float(np.max(np.abs(weighted - weighted[0])))


def _linearized_difference_step(c: Coefficients, u_tilde: FieldPair, u_bar: FieldPair,
                                bc: BoundaryCondition, dt: float) -> FieldPair:
    """Explicit step of the exact linear dynamics of a solution difference:
    d/dt u_bar = Lap(P(u~) u_bar) - Q(u~) u_bar + l(u_bar)."""
    P = jac_P(c, SpeciesPair(u_tilde.u, u_tilde.v))
    Q = jac_Q(c, SpeciesPair(u_tilde.u, u_tilde.v))
    prod = FieldPair(u_bar.grid,
                     P.m11 * u_bar.u + P.m12 * u_bar.v,
                     P.m21 * u_bar.u + P.m22 * u_bar.v)
    lap = laplacian(prod, bc)
    qu = Q.m11 * u_bar.u + Q.m12 * u_bar.v
    qv = Q.m21 * u_bar.u + Q.m22 * u_bar.v
    return FieldPair(u_bar.grid,
                     u_bar.u + dt * (lap.u - qu + c.a1 * u_bar.u),
                     u_bar.v + dt * (lap.v - qv + c.a2 * u_bar.v))


def _duality_residual_series(c: Coefficients, u_bars: list[FieldPair],
                             phis: list[FieldPair], dt: float) -> np.ndarray:
    """Discrete residual of the collapsed pairing identity, one value per step.

    r_n = (p_{n+1} - p_n)/dt + <u_bar^n, phi^{n+1}> - <l(u_bar^n), phi^{n+1}>
    with p_n the pairing at level n; identically zero (to roundoff) when the
    difference follows the linearized dynamics and the adjoint is its exact
    transpose with the identity right-hand side.
    """
    res = np.empty(len(u_bars) - 1)
    p_curr = inner(u_bars[0], phis[0])
    for n in range(len(u_bars) - 1):
        p_next = inner(u_bars[n + 1], phis[n + 1])
        lbar = eval_l(c, SpeciesPair(u_bars[n].u, u_bars[n].v))
        l_field = FieldPair(u_bars[n].grid, lbar.u, lbar.v)
        res[n] = ((p_next - p_curr) / dt + inner(u_bars[n], phis[n + 1])
                  - inner(l_field, phis[n + 1]))
        p_curr = p_next
    return res


def frozen_duality_check(c: Coefficients, grid: Grid, bc: BoundaryCondition,
                         T: float, dt: float, u_tilde: FieldPair, u_bar0: FieldPair,
                         chi: FieldPair) -> float:
    """Max duality residual on a synthetic frozen-coefficient run.

    The difference evolves by the linearized explicit dynamics with constant
    coefficient state; the adjoint is its exact transpose.  The residual is
    pure linear algebra and sits at roundoff level.
    """
    steps = max(1, int(round(T / dt)))
    u_bars = [u_bar0.copy()]
    for _ in range(steps):
        u_bars.append(_linearized_difference_step(c, u_tilde, u_bars[-1], bc, dt))

    phis = [chi.copy()]
    for _ in range(steps):
        phis.insert(0, step_adjoint_transpose(c, phis[0], u_tilde, bc, dt,
                                              AdjointRHSKind.IDENTITY))
    res = _duality_residual_series(c, u_bars, phis, dt)
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
    initial: Callable[[Grid], FieldPair]
    levels: int = 3
    modes: int = 2
    schemes: tuple[SchemeKind, SchemeKind] = (SchemeKind.EXPLICIT, SchemeKind.IMEX_LAGGED)


def uniqueness_experiment(cfg: UniquenessConfig) -> DualityReport:
    """Difference of two discretizations paired against terminal data.

    Per refinement level (N, dt) -> (2N, dt/2): run both schemes from the
    same initial data, solve the transpose-mode adjoint for every terminal
    basis element, and record the endpoint pairings |<u_bar(T), chi>|, the
    per-step duality residuals, the summation-by-parts telescoping gap,
    and the scalar-reduction deviation of the summed pairing.
    """
    def run_level(k: int) -> DualityLevel:
        grid = Grid(cfg.dim, cfg.length, cfg.base_n * 2 ** k)
        dt = cfg.base_dt / 2 ** k
        tg = TimeGrid(cfg.t_final, dt)
        initial = cfg.initial(grid)
        trajs = []
        for scheme in cfg.schemes:
            problem = ForwardProblem(cfg.coefficients, grid, cfg.bc, tg, scheme,
                                     initial, stride=1)
            trajs.append(run_forward(problem))
        t1, t2 = trajs
        u_bars = [s1 - s2 for s1, s2 in zip(t1.snapshots, t2.snapshots)]

        pairings: dict[str, float] = {}
        residual_series = np.zeros(len(u_bars) - 1)
        sbp_gap = 0.0
        reduction_dev = 0.0
        for label, chi in chi_basis(grid, cfg.bc, cfg.modes):
            phi_traj, _ = run_adjoint(cfg.coefficients, cfg.bc, (t1, t2), TINY_EPS,
                                      AdjointRHSKind.IDENTITY, chi,
                                      mode=AdjointMode.TRANSPOSE, stride=1)
            phis = phi_traj.snapshots
            pairings[label] = inner(u_bars[-1], chi)

            res = _duality_residual_series(cfg.coefficients, u_bars, phis, dt)
            residual_series = np.maximum(residual_series, np.abs(res))

            series = np.array([inner(ub, ph) for ub, ph in zip(u_bars, phis)])
            telescoped = sum(
                inner(u_bars[n + 1] - u_bars[n], phis[n + 1])
                + inner(u_bars[n], phis[n + 1] - phis[n])
                for n in range(len(u_bars) - 1))
            sbp_gap = max(sbp_gap, abs(telescoped - (series[-1] - series[0])))

            times = np.asarray(t1.stored_steps, dtype=float) * dt
            reduction_dev = max(reduction_dev,
                                scalar_reduction_check(times, series, cfg.coefficients.a1))

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
    base_initial: Callable[[Grid], FieldPair]
    perturbation: Callable[[Grid], FieldPair]
    deltas: tuple[float, ...] = (1e-3, 1e-2, 1e-1)
    tau_fractions: tuple[float, ...] = (0.25, 0.5, 1.0)
    scheme: SchemeKind = SchemeKind.IMEX_LAGGED
    modes: int = 2


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
    adjoint_reports: dict[float, AdjointBoundsReport] = field(default_factory=dict)


def continuous_dependence_experiment(cfg: DependenceConfig) -> DependenceReport:
    """Scaling of the weak norm of the solution difference with the data offset.

    For each delta the perturbed run starts from base + delta * w; the weak
    norm of the difference at each tau is recorded next to the basis sup,
    the initial-data norms with exponent q = dual_exponent(d), the three
    ingredient terms of the initial-data bound, the fitted log-log slope,
    and one growth-rhs adjoint bounds report per tau.
    """
    deltas = list(cfg.deltas)
    if any(d <= 0 for d in deltas):
        raise ValueError("perturbation sizes must be positive")
    if any(b <= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("perturbation sizes must be strictly increasing")
    grid = Grid(cfg.dim, cfg.length, cfg.n)
    tg = TimeGrid(cfg.t_final, cfg.dt)
    if tg.steps % 4 != 0:
        raise ValueError("step count must be divisible by 4 so tau levels are stored")
    stride = tg.steps // 4
    q = dual_exponent(cfg.dim)
    taus = [frac * cfg.t_final for frac in cfg.tau_fractions]

    base = cfg.base_initial(grid)
    w = cfg.perturbation(grid)

    def run(initial: FieldPair) -> Trajectory:
        problem = ForwardProblem(cfg.coefficients, grid, cfg.bc, tg, cfg.scheme,
                                 initial, stride=stride)
        return run_forward(problem)

    base_traj = run(base)
    basis = chi_basis(grid, cfg.bc, cfg.modes)

    weak_norms: dict[float, list[float]] = {tau: [] for tau in taus}
    basis_sup: dict[float, list[float]] = {tau: [] for tau in taus}
    input_l2, input_lq = [], []
    ing47, ing48, ing49 = [], [], []
    adjoint_reports: dict[float, AdjointBoundsReport] = {}
    sqrt_t = math.sqrt(cfg.t_final)
    p47 = 4.0 * cfg.dim / (cfg.dim + 2.0)
    p48 = 2.0 * cfg.dim / (6.0 - cfg.dim)

    for delta in deltas:
        pert = FieldPair(grid, base.u + delta * w.u, base.v + delta * w.v)
        traj = run(pert)
        bar0 = pert - base
        input_l2.append(math.sqrt(component_l2(bar0.u, grid) ** 2
                                  + component_l2(bar0.v, grid) ** 2))
        input_lq.append(lp_norm(bar0, q))
        ing47.append(sqrt_t * lp_norm(bar0, p47))
        ing48.append(cfg.t_final * lp_norm(bar0, p48))
        ing49.append(sqrt_t * input_l2[-1])
        for tau in taus:
            diff = traj.snapshot_at(tau) - base_traj.snapshot_at(tau)
            weak_norms[tau].append(weak_norm(diff, cfg.bc))
            basis_sup[tau].append(max(abs(inner(diff, chi)) for _, chi in basis))

    chi_ref = basis[1][1] if len(basis) > 1 else basis[0][1]
    for tau in taus:  # paired with the run of the largest delta, the last one above
        _, report = run_adjoint(cfg.coefficients, cfg.bc,
                                (base_traj, traj), TINY_EPS,
                                AdjointRHSKind.GROWTH, chi_ref, horizon=tau)
        adjoint_reports[tau] = report

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
        slopes=slopes, kappa_fit=kappa_fit, adjoint_reports=adjoint_reports)


def _bc_compatibility_gap(arr: np.ndarray, grid: Grid, bc: BoundaryCondition) -> float:
    """Extrapolated wall normal derivative (Neumann) or wall trace (Dirichlet)."""

    def side_gap(block: np.ndarray) -> float:
        # block[0] is the wall-adjacent layer; extrapolate to the wall itself.
        b = block.reshape(block.shape[0], -1)
        if bc is BoundaryCondition.NEUMANN:
            g_half = (b[1] - b[0]) / grid.h
            g_three_half = (b[2] - b[1]) / grid.h
            return float(np.max(np.abs(2.0 * g_half - g_three_half)))
        return float(np.max(np.abs(1.5 * b[0] - 0.5 * b[1])))

    if grid.dim == 1:
        blocks = (arr, arr[::-1])
    else:
        blocks = (arr, arr[::-1, :], arr.T, arr.T[::-1, :])
    return max(side_gap(b) for b in blocks)


def weak_form_residual(c: Coefficients, trajectory: Trajectory,
                       test_fn: Callable[[Grid, float], FieldPair],
                       forcing: Callable[[Grid, float], FieldPair] | None = None) -> float:
    """Space-time norm of the weak-form residual against a smooth test function.

    The test function is sampled per stored level and must satisfy the
    trajectory's boundary condition (checked numerically at t = 0; violations
    raise).  The flux term is paired through the discrete Laplacian of the
    test function, so for an explicit Neumann run with known forcing the
    residual reduces to the forcing quadrature exactly.
    """
    bc = BoundaryCondition(trajectory.metadata["bc"])
    grid = trajectory.grid
    phi0 = test_fn(grid, 0.0)
    tol = 10.0 * grid.h / grid.length * max(
        float(np.max(np.abs(phi0.u))), float(np.max(np.abs(phi0.v))), 1e-12)
    for comp in (phi0.u, phi0.v):
        if _bc_compatibility_gap(comp, grid, bc) > tol:
            raise ValueError("test function violates the boundary-condition compatibility")

    times = trajectory.stored_times()
    snaps = trajectory.snapshots
    total = 0.0
    for k in range(len(snaps) - 1):
        dt_k = times[k + 1] - times[k]
        u_k, u_next = snaps[k], snaps[k + 1]
        phi = test_fn(grid, float(times[k]))
        lap_phi = laplacian(phi, bc)
        s = SpeciesPair(u_k.u, u_k.v)
        p = eval_p(c, s)
        qv = eval_q(c, s)
        lv = eval_l(c, s)
        rate = (1.0 / dt_k) * (u_next - u_k)
        r = (inner(rate, phi)
             - inner(FieldPair(grid, p.u, p.v), lap_phi)
             + inner(FieldPair(grid, qv.u, qv.v), phi)
             - inner(FieldPair(grid, lv.u, lv.v), phi))
        if forcing is not None:
            f = forcing(grid, float(times[k]))
            r -= inner(f, phi)
        total += dt_k * r * r
    return math.sqrt(total)
