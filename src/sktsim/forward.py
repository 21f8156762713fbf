"""Time integration of the cross-diffusion system with regularity tracking.

Two schemes are provided on purpose.  The explicit scheme discretizes the
Laplacian-of-flux form (time step limited by a per-step stability bound);
the IMEX scheme treats the divergence-form operator div(P(u) grad .) with
coefficients lagged at the current level implicitly and the reactions
explicitly.  Because the flux map is quadratic and its Jacobian is affine,
the arithmetic face average of P reproduces flux differences exactly, so
the two spatial operators coincide on any state to machine precision; the
schemes differ only in their time discretization.  That identity is what
the uniqueness experiments lean on.

Per-step diagnostics track the quantities whose boundedness characterizes
solution regularity: masses, extrema, L2/H1/L4 norms, the L2 norms of
grad p(u) and of the discrete Laplacian of p(u), and the density-weighted
time-derivative norm.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp

from sktsim import linalg
from sktsim.algebra import Coefficients, SpeciesPair, eval_l, eval_p, eval_q, jac_P
from sktsim.grid import (
    BoundaryCondition,
    FieldPair,
    Grid,
    NumericalFailure,
    _extend,
    _stencil,
    block_pattern,
    component_l2,
)
from sktsim.linalg import krylov_solve

__all__ = [
    "DIAGNOSTIC_COLUMNS",
    "ConvergenceTable",
    "ForwardProblem",
    "NumericalFailure",
    "SchemeKind",
    "StabilityError",
    "TimeGrid",
    "Trajectory",
    "divergence_form_matrix",
    "laplacian_of_flux",
    "manufactured_convergence",
    "run_forward",
    "stability_bound",
    "step_explicit",
    "step_imex",
]


class StabilityError(NumericalFailure):
    def __init__(self, dt: float, bound: float):
        super().__init__(f"explicit step dt={dt:g} exceeds the stability bound {bound:g} "
                         f"(h^2 / (2 d P_max) with P_max the max row-sum of the flux Jacobian)")
        self.bound = bound


class SchemeKind(enum.Enum):
    EXPLICIT = "explicit"
    IMEX_LAGGED = "imex"


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid on (0, t_final] with M = round(t_final/dt) steps."""

    t_final: float
    dt: float

    def __post_init__(self) -> None:
        if not (self.t_final > 0.0 and self.dt > 0.0):
            raise ValueError("t_final and dt must be positive")
        if abs(self.steps * self.dt - self.t_final) > 1e-12 * max(1.0, self.t_final):
            raise ValueError(f"dt={self.dt} does not divide t_final={self.t_final}")

    @property
    def steps(self) -> int:
        return int(round(self.t_final / self.dt))

    def times(self) -> np.ndarray:
        return np.arange(self.steps + 1) * self.dt


DIAGNOSTIC_COLUMNS = ("step", "t", "mass_u", "mass_v", "min_u", "min_v",
                      "l2_u", "l2_v", "h1_u", "h1_v", "l4_pair",
                      "gradp_l2", "lapp_l2", "wtd_dtu_l2")


@dataclass
class Trajectory:
    """Stored snapshots (every ``stride``-th level plus endpoints) and diagnostics."""

    time_grid: TimeGrid
    stride: int
    stored_steps: list[int]
    snapshots: list[FieldPair]
    diagnostics: dict[str, np.ndarray]
    metadata: dict = field(default_factory=dict)

    @property
    def grid(self) -> Grid:
        return self.snapshots[0].grid

    def stored_times(self) -> np.ndarray:
        return np.asarray(self.stored_steps, dtype=float) * self.time_grid.dt

    def final_state(self) -> FieldPair:
        return self.snapshots[-1]

    def snapshot_at(self, t: float) -> FieldPair:
        """Snapshot at the last stored level with time <= t (piecewise constant)."""
        if t < -1e-12 or t > self.time_grid.t_final * (1 + 1e-12):
            raise ValueError(f"time {t} outside [0, {self.time_grid.t_final}]")
        times = self.stored_times()
        idx = int(np.searchsorted(times, t + 1e-12 * max(1.0, abs(t)), side="right")) - 1
        return self.snapshots[max(idx, 0)]


def stability_bound(c: Coefficients, state: FieldPair) -> float:
    """h^2 / (2 d P_max) with P_max the max nodal row-sum norm of the flux Jacobian."""
    P = jac_P(c, SpeciesPair(state.u, state.v))
    row1 = np.abs(P.m11) + np.abs(P.m12)
    row2 = np.abs(P.m21) + np.abs(P.m22)
    p_max = max(float(np.max(row1)), float(np.max(row2)))
    if p_max == 0.0:
        return math.inf
    grid = state.grid
    return grid.h ** 2 / (2.0 * grid.dim * p_max)


def laplacian_of_flux(c: Coefficients, state: FieldPair, bc: BoundaryCondition) -> FieldPair:
    """Discrete Laplacian of p(state), with p evaluated on the ghost-extended state.

    Extending the state (rather than the flux values) keeps this operator
    identical to the divergence-form one under both boundary rules.
    """
    grid = state.grid
    p = eval_p(c, SpeciesPair(_extend(state.u, bc), _extend(state.v, bc)))
    return FieldPair(grid, _stencil(p.u, grid.h)[0], _stencil(p.v, grid.h)[0])


def _reaction_rhs(c: Coefficients, state: FieldPair) -> FieldPair:
    s = SpeciesPair(state.u, state.v)
    q = eval_q(c, s)
    l = eval_l(c, s)
    return FieldPair(state.grid, l.u - q.u, l.v - q.v)


def step_explicit(c: Coefficients, state: FieldPair, bc: BoundaryCondition, dt: float,
                  forcing: FieldPair | None = None) -> FieldPair:
    """One forward-Euler step of the Laplacian-of-flux form.

    Refuses with the computed bound when dt exceeds h^2/(2 d P_max) for the
    current state.
    """
    bound = stability_bound(c, state)
    if dt > bound:
        raise StabilityError(dt, bound)
    lap = laplacian_of_flux(c, state, bc)
    rhs = _reaction_rhs(c, state)
    new_u = state.u + dt * (lap.u + rhs.u)
    new_v = state.v + dt * (lap.v + rhs.v)
    if forcing is not None:
        new_u = new_u + dt * forcing.u
        new_v = new_v + dt * forcing.v
    return FieldPair(state.grid, new_u, new_v)


def _nodal_jacobian(c: Coefficients, state: FieldPair) -> np.ndarray:
    """Flux Jacobian P(state) as a (2, 2, N) array over the raveled nodes."""
    P = jac_P(c, SpeciesPair(state.u, state.v))
    return np.reshape(P, (2, 2, -1))


def divergence_form_matrix(c: Coefficients, state: FieldPair,
                           bc: BoundaryCondition) -> sp.csr_matrix:
    """Sparse 2N x 2N matrix of w -> div(P(state) grad w) with face-averaged P.

    Unknowns are stacked [w_u; w_v]; the sparsity is the cached
    :func:`block_pattern` of (grid, bc), so only the values are computed.
    Because the Jacobian entries are affine in the state, the arithmetic face
    average equals the midpoint evaluation and flux differences of the
    quadratic map are reproduced exactly.
    """
    grid = state.grid
    pattern = block_pattern(grid, bc)
    nodal = _nodal_jacobian(c, state).ravel()
    inv_h2 = 1.0 / grid.h ** 2
    data = 0.5 * inv_h2 * (nodal[pattern.row] + nodal[pattern.col])
    # Each diagonal entry balances its row of the block (zero row sums) ...
    data[pattern.node_diag] = 0.0
    row_sums = np.bincount(pattern.row, weights=data, minlength=nodal.size)
    data[pattern.node_diag] = -row_sums[pattern.row[pattern.node_diag]]
    # ... except at a Dirichlet wall: the ghost state is the negated interior
    # state, so the face coefficient averages to diag(d1, d2) and the
    # across-face jump is 2 w_wall.
    data[pattern.ident] -= 2.0 * inv_h2 * np.outer((c.d1, c.d2), pattern.walls).ravel()
    return pattern.matrix(data)


def _imex_blocks(c: Coefficients, state: FieldPair, bc: BoundaryCondition, dt: float):
    """(lower, diag, upper) blocks of I - dt div(P grad .) in 1D; see
    :func:`~sktsim.linalg.solve_block_tridiagonal`."""
    nodal = _nodal_jacobian(c, state)
    inv_h2 = 1.0 / state.grid.h ** 2
    face = 0.5 * inv_h2 * (nodal[..., :-1] + nodal[..., 1:])
    diag = np.zeros_like(nodal)
    diag[..., :-1] -= face
    diag[..., 1:] -= face
    if bc is BoundaryCondition.DIRICHLET:
        for r, d in enumerate((c.d1, c.d2)):
            diag[r, r, [0, -1]] -= 2.0 * d * inv_h2
    diag *= -dt
    diag[[0, 1], [0, 1]] += 1.0
    return -dt * face, diag, -dt * face


def step_imex(c: Coefficients, state: FieldPair, bc: BoundaryCondition, dt: float,
              forcing: FieldPair | None = None) -> FieldPair:
    """One semi-implicit step: implicit lagged-coefficient diffusion, explicit reactions.

    Solves (I - dt L_n) w = state + dt (l - q + forcing): a banded direct
    solve in 1D, scipy BiCGStab in 2D, accepted in both only at true relative
    residual <= 1e-10 (else :class:`~sktsim.linalg.LinearSolveError`);
    accuracy O(dt).
    """
    grid = state.grid
    rhs = _reaction_rhs(c, state)
    bu = state.u + dt * rhs.u
    bv = state.v + dt * rhs.v
    if forcing is not None:
        bu = bu + dt * forcing.u
        bv = bv + dt * forcing.v
    if grid.dim == 1:
        u, v = linalg.solve_block_tridiagonal(*_imex_blocks(c, state, bc, dt), np.array([bu, bv]))
        return FieldPair(grid, u, v)
    A = divergence_form_matrix(c, state, bc)
    A.data *= -dt
    A.data[block_pattern(grid, bc).ident] += 1.0
    b = np.concatenate([bu.ravel(), bv.ravel()])
    x0 = np.concatenate([state.u.ravel(), state.v.ravel()])
    x = krylov_solve(A, b, x0)
    ncell = grid.node_count
    return FieldPair(grid, x[:ncell].reshape(grid.shape), x[ncell:].reshape(grid.shape))


@dataclass
class ForwardProblem:
    """Everything one forward run needs."""

    coefficients: Coefficients
    grid: Grid
    bc: BoundaryCondition
    time_grid: TimeGrid
    scheme: SchemeKind
    initial: FieldPair
    stride: int = 1
    forcing: Callable[[float], FieldPair] | None = None
    clamp_negative: bool = False
    require_nonnegative_initial: bool = True


def _diagnostics_row(c: Coefficients, state: FieldPair, bc: BoundaryCondition,
                     step: int, t: float, wtd_dtu: float) -> dict[str, float]:
    grid = state.grid
    vol = grid.cell_volume
    # One ghost extension per component serves both H1 norms and p(ext).
    ext = SpeciesPair(_extend(state.u, bc), _extend(state.v, bc))
    h1 = [math.sqrt(vol * float(np.sum(arr ** 2))
                    + vol * float(np.sum(sum(g * g for g in _stencil(e, grid.h)[1]))))
          for arr, e in zip((state.u, state.v), ext)]
    lap_p_sq = grad_p_sq = 0.0
    for e in eval_p(c, ext):
        lap, grads = _stencil(e, grid.h)
        lap_p_sq += np.sum(lap ** 2)
        grad_p_sq += sum(np.sum(g ** 2) for g in grads)
    return {
        "step": float(step),
        "t": t,
        "mass_u": vol * float(np.sum(state.u)),
        "mass_v": vol * float(np.sum(state.v)),
        "min_u": float(np.min(state.u)),
        "min_v": float(np.min(state.v)),
        "l2_u": component_l2(state.u, grid),
        "l2_v": component_l2(state.v, grid),
        "h1_u": h1[0],
        "h1_v": h1[1],
        "l4_pair": (vol * (float(np.sum(state.u ** 4)) + float(np.sum(state.v ** 4)))) ** 0.25,
        "gradp_l2": math.sqrt(vol * float(grad_p_sq)),
        "lapp_l2": math.sqrt(vol * float(lap_p_sq)),
        "wtd_dtu_l2": wtd_dtu,
    }


@np.errstate(over="ignore", invalid="ignore")
def run_forward(problem: ForwardProblem) -> Trajectory:
    """Integrate 0 -> T recording per-step diagnostics and strided snapshots.

    Negative values are never clipped silently; the opt-in clamp is recorded
    in the trajectory metadata.  A step that fails (non-finite values or the
    explicit stability bound) raises :class:`NumericalFailure` carrying the
    step index and time, without numpy overflow warnings.
    """
    c, grid, bc = problem.coefficients, problem.grid, problem.bc
    tg = problem.time_grid
    state = problem.initial.copy()
    if state.grid != grid:
        raise ValueError("initial data grid does not match the problem grid")
    if problem.require_nonnegative_initial and (np.any(state.u < 0) or np.any(state.v < 0)):
        raise ValueError("initial data must be nonnegative")
    stride = max(int(problem.stride), 1)

    rows = [_diagnostics_row(c, state, bc, 0, 0.0, 0.0)]
    stored_steps = [0]
    snapshots = [state.copy()]
    dt = tg.dt

    for n in range(tg.steps):
        t_next = (n + 1) * dt
        forcing = problem.forcing(n * dt) if problem.forcing is not None else None
        prev = state
        try:
            if problem.scheme is SchemeKind.EXPLICIT:
                state = step_explicit(c, state, bc, dt, forcing)
            else:
                state = step_imex(c, state, bc, dt, forcing)
        except NumericalFailure as exc:
            exc.step, exc.t = n + 1, t_next
            raise
        if problem.clamp_negative:
            state = FieldPair(grid, np.maximum(state.u, 0.0), np.maximum(state.v, 0.0))
        weight = 1.0 + np.abs(prev.u) + np.abs(prev.v)
        rate = (np.abs(state.u - prev.u) + np.abs(state.v - prev.v)) / dt
        wtd = math.sqrt(grid.cell_volume * float(np.sum(weight * rate ** 2)))
        rows.append(_diagnostics_row(c, state, bc, n + 1, t_next, wtd))
        if (n + 1) % stride == 0 or n + 1 == tg.steps:
            stored_steps.append(n + 1)
            snapshots.append(state.copy())

    diagnostics = {key: np.array([row[key] for row in rows]) for key in DIAGNOSTIC_COLUMNS}
    return Trajectory(time_grid=tg, stride=stride, stored_steps=stored_steps,
                      snapshots=snapshots, diagnostics=diagnostics,
                      metadata={"scheme": problem.scheme.value, "bc": bc.value,
                                "clamp_negative": problem.clamp_negative})


@dataclass
class ConvergenceTable:
    ns: list[int]
    errors: list[float]

    @property
    def orders(self) -> list[float]:
        return [math.log2(a / b) for a, b in zip(self.errors, self.errors[1:])]


def manufactured_convergence(problem: ForwardProblem, exact,
                             ns: tuple[int, ...] = (16, 32, 64, 128),
                             dt_for_h: Callable[[float], float] | None = None) -> ConvergenceTable:
    """Refinement study against a manufactured solution.

    ``exact`` supplies exact fields and the residual forcing (see
    :mod:`sktsim.mms`).  For each resolution the forcing is injected on the
    right-hand side, the problem is integrated to T, and the max-norm error
    against the exact final state is recorded.  ``dt_for_h`` maps the grid
    spacing to the step (default dt proportional to h^2, which balances the
    first-order-in-time schemes to a clean second-order total).
    """
    T = problem.time_grid.t_final
    errors = []
    for n in ns:
        grid = Grid(problem.grid.dim, problem.grid.length, n)
        h = grid.h
        dt = dt_for_h(h) if dt_for_h is not None else T / max(1, int(round(T / (0.5 * h * h))))
        steps = max(1, int(round(T / dt)))
        dt = T / steps
        sub = ForwardProblem(
            coefficients=problem.coefficients, grid=grid, bc=problem.bc,
            time_grid=TimeGrid(T, dt), scheme=problem.scheme,
            initial=exact.field(grid, 0.0), stride=max(1, steps),
            forcing=lambda t, g=grid: exact.forcing(g, t),
            require_nonnegative_initial=False)
        traj = run_forward(sub)
        final = traj.final_state()
        ref = exact.field(grid, T)
        errors.append(max(float(np.max(np.abs(final.u - ref.u))),
                          float(np.max(np.abs(final.v - ref.v)))))
    return ConvergenceTable(ns=list(ns), errors=errors)
