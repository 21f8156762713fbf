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

Both implicit operators, the IMEX one here and the continuous-adjoint one
of :mod:`sktsim.adjoint`, are computed as CSR values on the cached
:func:`~sktsim.grid.block_pattern` of (grid, bc), in 1D and 2D alike, and
solved through :func:`_solve_on_pattern`: a banded direct solve in 1D,
BiCGStab in 2D.

Per-step diagnostics track the quantities whose boundedness characterizes
solution regularity: masses, extrema, L2/H1/L4 norms, the L2 norms of
grad p(u) and of the discrete Laplacian of p(u), and the density-weighted
time-derivative norm.  ``run_forward`` marches a block of levels at a time
and computes the diagnostics of a whole block with axis reductions, in the
arithmetic of one level at a time.

Every march, forward or backward, batched or not, runs through one stepping
loop, :func:`_march`, and both directions return a :class:`Trajectory`
whose stored levels are one stacked array: every ``stride``-th level and
the last (:func:`_stored_steps`).

Each level is checked for finiteness once, when its :class:`FieldPair` is
built; the steps therefore call the unchecked algebra cores (``_eval_p``,
``_jac_P``, ...) on the arrays of a FieldPair, while the public maps check
their inputs.
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from sktsim import linalg
from sktsim.algebra import Coefficients, Matrix2, SpeciesPair, _eval_l, _eval_p, _eval_q, _jac_P
from sktsim.grid import (
    BlockPattern,
    BoundaryCondition,
    FieldPair,
    Grid,
    NumericalFailure,
    _extend,
    _grad_stencil,
    _grid_sums,
    _lap_stencil,
    block_pattern,
    h1_norms,
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
    """Uniform time grid on (0, t_final] with M = round(t_final/dt) >= 1 steps."""

    t_final: float
    dt: float

    def __post_init__(self) -> None:
        if not (self.t_final > 0.0 and self.dt > 0.0):
            raise ValueError("t_final and dt must be positive")
        steps = self.steps
        if steps < 1 or abs(steps * self.dt - self.t_final) > 1e-12 * max(1.0, self.t_final):
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
    """Stored levels and per-level diagnostics of a forward or backward march.

    ``levels`` has shape (len(stored_steps), 2, *grid.shape): level
    ``stored_steps[i]`` is ``levels[i]``, in ascending time.
    """

    grid: Grid
    time_grid: TimeGrid
    stored_steps: list[int]
    levels: np.ndarray
    diagnostics: dict[str, np.ndarray]

    def state(self, i: int) -> FieldPair:
        """The ``i``-th stored level, a view of ``levels``."""
        return FieldPair(self.grid, self.levels[i, 0], self.levels[i, 1])

    def initial_state(self) -> FieldPair:
        return self.state(0)

    def final_state(self) -> FieldPair:
        return self.state(-1)


def _stored_steps(steps: int, stride: int) -> list[int]:
    """Levels a march of ``steps`` steps stores: {0, stride, 2 stride, ...} and ``steps``."""
    return [*range(0, steps, max(int(stride), 1)), steps]


def _keep(stored: np.ndarray, kept: list[int], levels: np.ndarray, first: int) -> None:
    """Copy those of ``levels``, the levels ``first``, ``first`` + 1, ..., whose
    steps are in ``kept`` into their rows of ``stored`` (one row per kept step)."""
    i, j = bisect.bisect_left(kept, first), bisect.bisect_right(kept, first + len(levels) - 1)
    stored[i:j] = levels[[s - first for s in kept[i:j]]]


@np.errstate(over="ignore", invalid="ignore")
def _march(advance: Callable[[FieldPair, int], FieldPair], phi: FieldPair, start: int, stop: int,
           dt: float) -> np.ndarray:
    """March ``phi``, the level ``start``, to level ``stop`` in either time
    direction; every march runs this loop.

    ``advance(phi, k)`` returns level k from its neighbour ``phi``; ``phi``
    may carry batch axes if ``advance`` accepts them.  Returns the levels
    between ``start`` and ``stop`` in ascending time, shape (*batch,
    |stop - start| + 1, 2, *grid.shape).  A blow-up raises
    :class:`NumericalFailure` carrying the step index and time of the level
    being computed.
    """
    grid = phi.grid
    batch = phi.u.shape[:phi.u.ndim - grid.dim]
    sign, bottom = (1, start) if stop >= start else (-1, stop)
    levels = np.empty(batch + (abs(stop - start) + 1, 2) + grid.shape)
    by_level = np.moveaxis(levels, (len(batch), len(batch) + 1), (0, 1))
    by_level[start - bottom, 0], by_level[start - bottom, 1] = phi.u, phi.v
    for k in range(start + sign, stop + sign, sign):
        try:
            phi = advance(phi, k)
        except NumericalFailure as exc:
            exc.step, exc.t = k, k * dt
            raise
        by_level[k - bottom, 0], by_level[k - bottom, 1] = phi.u, phi.v
    return levels


def stability_bound(c: Coefficients, state: FieldPair) -> float:
    """h^2 / (2 d P_max) with P_max the max nodal row-sum norm of the flux Jacobian."""
    return _jacobian_stability_bound(_jac_P(c, SpeciesPair(state.u, state.v)), state.grid)


def _jacobian_stability_bound(P: Matrix2, grid: Grid) -> float:
    """:func:`stability_bound` of a state whose flux Jacobian ``P`` is already built."""
    row1 = np.abs(P.m11) + np.abs(P.m12)
    row2 = np.abs(P.m21) + np.abs(P.m22)
    p_max = max(float(np.max(row1)), float(np.max(row2)))
    if p_max == 0.0:
        return math.inf
    return grid.h ** 2 / (2.0 * grid.dim * p_max)


def _lap_flux(c: Coefficients, state: FieldPair, bc: BoundaryCondition) -> SpeciesPair:
    """Discrete Laplacian of p(state), with p evaluated on the ghost-extended state.

    Extending the state (rather than the flux values) keeps this operator
    identical to the divergence-form one under both boundary rules.
    """
    grid = state.grid
    h, dim = grid.h, grid.dim
    p = _eval_p(c, SpeciesPair(_extend(state.u, bc, dim), _extend(state.v, bc, dim)))
    return SpeciesPair(_lap_stencil(p.u, h, dim), _lap_stencil(p.v, h, dim))


def _reaction_rhs(c: Coefficients, state: FieldPair) -> SpeciesPair:
    s = SpeciesPair(state.u, state.v)
    q = _eval_q(c, s)
    l = _eval_l(c, s)
    return SpeciesPair(l.u - q.u, l.v - q.v)


def step_explicit(c: Coefficients, state: FieldPair, bc: BoundaryCondition, dt: float,
                  forcing: FieldPair | None = None) -> FieldPair:
    """One forward-Euler step of the Laplacian-of-flux form.

    Refuses with the computed bound when dt exceeds h^2/(2 d P_max) for the
    current state.
    """
    bound = stability_bound(c, state)
    if dt > bound:
        raise StabilityError(dt, bound)
    lap = _lap_flux(c, state, bc)
    rhs = _reaction_rhs(c, state)
    new_u = state.u + dt * (lap.u + rhs.u)
    new_v = state.v + dt * (lap.v + rhs.v)
    if forcing is not None:
        new_u = new_u + dt * forcing.u
        new_v = new_v + dt * forcing.v
    return FieldPair(state.grid, new_u, new_v)


def _nodal_jacobian(c: Coefficients, state: FieldPair) -> np.ndarray:
    """Flux Jacobian P(state) as a (2, 2, N) array over the raveled nodes."""
    P = _jac_P(c, SpeciesPair(state.u, state.v))
    return np.reshape(P, (2, 2, -1))


def _divergence_form_data(c: Coefficients, state: FieldPair, pattern: BlockPattern) -> np.ndarray:
    """Values on ``pattern`` (the :func:`block_pattern` of the state's grid and
    bc) of the 2N x 2N operator w -> div(P(state) grad w) with face-averaged
    P, on stacked unknowns [w_u; w_v].

    Because the Jacobian entries are affine in the state, the arithmetic face
    average equals the midpoint evaluation and flux differences of the
    quadratic map are reproduced exactly.
    """
    nodal = _nodal_jacobian(c, state).ravel()
    inv_h2 = 1.0 / state.grid.h ** 2
    data = 0.5 * inv_h2 * (nodal[pattern.row] + nodal[pattern.col])
    # Each diagonal entry balances its row of the block (zero row sums) ...
    data[pattern.node_diag] = 0.0
    row_sums = np.bincount(pattern.row, weights=data, minlength=nodal.size)
    data[pattern.node_diag] = -row_sums[pattern.row[pattern.node_diag]]
    # ... except at a Dirichlet wall: the ghost state is the negated interior
    # state, so the face coefficient averages to diag(d1, d2) and the
    # across-face jump is 2 w_wall.
    data[pattern.ident] -= 2.0 * inv_h2 * np.outer((c.d1, c.d2), pattern.walls).ravel()
    return data


def _solve_on_pattern(pattern: BlockPattern, data: np.ndarray, bu: np.ndarray, bv: np.ndarray,
                      guess: FieldPair) -> FieldPair:
    """Solve the implicit system with values ``data`` on ``pattern`` for the
    right-hand side (bu, bv): a banded direct solve in 1D, BiCGStab from
    ``guess`` in 2D, accepted in both only at true relative residual
    <= 1e-10 (else :class:`~sktsim.linalg.LinearSolveError`)."""
    grid = guess.grid
    b = np.concatenate([bu.ravel(), bv.ravel()])
    if grid.dim == 1:
        x = linalg.solve_band(pattern, data, b)
    else:
        x = krylov_solve(pattern.matrix(data), b, np.concatenate([guess.u.ravel(), guess.v.ravel()]))
    ncell = grid.node_count
    return FieldPair(grid, x[:ncell].reshape(grid.shape), x[ncell:].reshape(grid.shape))


def step_imex(c: Coefficients, state: FieldPair, bc: BoundaryCondition, dt: float,
              forcing: FieldPair | None = None) -> FieldPair:
    """One semi-implicit step: implicit lagged-coefficient diffusion, explicit reactions.

    Solves (I - dt L_n) w = state + dt (l - q + forcing) on the cached
    :func:`block_pattern` (see :func:`_solve_on_pattern`); accuracy O(dt).
    """
    rhs = _reaction_rhs(c, state)
    bu = state.u + dt * rhs.u
    bv = state.v + dt * rhs.v
    if forcing is not None:
        bu = bu + dt * forcing.u
        bv = bv + dt * forcing.v
    pattern = block_pattern(state.grid, bc)
    data = _divergence_form_data(c, state, pattern)
    data *= -dt
    data[pattern.ident] += 1.0
    return _solve_on_pattern(pattern, data, bu, bv, state)


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
    require_nonnegative_initial: bool = True


#: Cells per species held by the block of levels whose diagnostics are
#: computed together: 256 levels at 1D n = 64, one level at 2D n = 128.
_BLOCK_CELLS = 2 ** 14


def _diagnostics_block(c: Coefficients, grid: Grid, bc: BoundaryCondition,
                       levels: np.ndarray, steps: np.ndarray, dt: float) -> np.ndarray:
    """Diagnostics of ``levels[1:]`` as a (len(DIAGNOSTIC_COLUMNS), k) array,
    row i holding column ``DIAGNOSTIC_COLUMNS[i]`` of the k levels.

    ``levels`` is (k + 1, 2, *grid.shape); ``levels[0]`` is the predecessor of
    the first level, for ``wtd_dtu_l2``, and ``steps`` holds the k step
    indices.  Every sum runs along the contiguous trailing grid axes in the
    order of a single-level sum, so the numbers do not depend on k.
    """
    h, dim, vol = grid.h, grid.dim, grid.cell_volume
    prev, cur = levels[:-1], levels[1:]
    k = len(cur)

    h1 = h1_norms(grid, cur, bc)
    # The flux is evaluated on the extended state, p(ext u), which under
    # Dirichlet walls is not ext p(u).  Both extended arrays are freed as
    # soon as they are used, which keeps the peak memory near three times
    # that of ``levels``.
    ext = _extend(cur, bc, dim)
    p_ext = np.stack(_eval_p(c, SpeciesPair(ext[:, 0], ext[:, 1])), axis=1)
    del ext
    lap_p = _grid_sums(_lap_stencil(p_ext, h, dim) ** 2, dim)
    grad_p = sum(_grid_sums(g ** 2, dim) for g in _grad_stencil(p_ext, h, dim))
    del p_ext
    fourth = _grid_sums(cur ** 4, dim)
    weight = 1.0 + np.abs(prev[:, 0]) + np.abs(prev[:, 1])
    jump = np.abs(cur - prev)
    rate = (jump[:, 0] + jump[:, 1]) / dt
    wtd = np.sqrt(vol * _grid_sums(weight * rate ** 2, dim))
    mass = vol * _grid_sums(cur, dim)
    low = np.min(cur.reshape(k, 2, -1), axis=-1)
    l2 = np.sqrt(vol * _grid_sums(cur ** 2, dim))
    return np.array([
        steps, steps * dt, mass[:, 0], mass[:, 1], low[:, 0], low[:, 1],
        l2[:, 0], l2[:, 1], h1[:, 0], h1[:, 1],
        # Python floats: numpy's vectorised power can differ from libm pow by an ulp.
        [s ** 0.25 for s in (vol * (fourth[:, 0] + fourth[:, 1])).tolist()],
        np.sqrt(vol * (grad_p[:, 0] + grad_p[:, 1])),
        np.sqrt(vol * (lap_p[:, 0] + lap_p[:, 1])),
        wtd])


@np.errstate(over="ignore", invalid="ignore")
def run_forward(problem: ForwardProblem) -> Trajectory:
    """Integrate 0 -> T recording per-step diagnostics and strided snapshots.

    Negative values are never clipped; the ``min_u``/``min_v`` columns
    record any undershoot.  A step that fails (non-finite values or the
    explicit stability bound) raises :class:`NumericalFailure` carrying the
    step index and time, without numpy overflow warnings.  The march runs
    through :func:`_march` a block of levels at a time; each block's
    diagnostics are computed together and its stored levels kept.
    """
    c, grid, bc = problem.coefficients, problem.grid, problem.bc
    tg = problem.time_grid
    state = problem.initial
    if state.grid != grid:
        raise ValueError("initial data grid does not match the problem grid")
    if problem.require_nonnegative_initial and (np.any(state.u < 0) or np.any(state.v < 0)):
        raise ValueError("initial data must be nonnegative")
    dt = tg.dt
    step = step_explicit if problem.scheme is SchemeKind.EXPLICIT else step_imex

    def advance(state: FieldPair, k: int) -> FieldPair:
        forcing = problem.forcing((k - 1) * dt) if problem.forcing is not None else None
        return step(c, state, bc, dt, forcing)

    kept = _stored_steps(tg.steps, problem.stride)
    stored = np.empty((len(kept), 2, *grid.shape))
    stored[0] = state.u, state.v
    columns = np.empty((len(DIAGNOSTIC_COLUMNS), tg.steps + 1))
    # Level 0 paired with itself: its time-derivative norm is exactly zero.
    columns[:, :1] = _diagnostics_block(c, grid, bc, stored[[0, 0]], np.zeros(1), dt)
    block = max(1, _BLOCK_CELLS // grid.node_count)
    for lo in range(0, tg.steps, block):
        hi = min(lo + block, tg.steps)
        levels = _march(advance, state, lo, hi, dt)
        columns[:, lo + 1:hi + 1] = _diagnostics_block(
            c, grid, bc, levels, np.arange(lo + 1, hi + 1, dtype=float), dt)
        _keep(stored, kept, levels, lo)
        state = FieldPair(grid, levels[-1, 0], levels[-1, 1])

    return Trajectory(grid=grid, time_grid=tg, stored_steps=kept, levels=stored,
                      diagnostics=dict(zip(DIAGNOSTIC_COLUMNS, columns)))


@dataclass
class ConvergenceTable:
    ns: list[int]
    errors: list[float]

    @property
    def orders(self) -> list[float]:
        return [math.log2(a / b) for a, b in zip(self.errors, self.errors[1:])]


def manufactured_convergence(problem: ForwardProblem, exact,
                             ns: tuple[int, ...] = (16, 32, 64, 128)) -> ConvergenceTable:
    """Refinement study against a manufactured solution.

    ``exact`` supplies exact fields and the residual forcing (see
    :mod:`sktsim.mms`).  For each resolution the forcing is injected on the
    right-hand side, the problem is integrated to T, and the max-norm error
    against the exact final state is recorded.  The step is
    dt = T / round(T / (0.5 h^2)): dt proportional to h^2 balances the
    first-order-in-time schemes to a clean second-order total.
    """
    T = problem.time_grid.t_final
    errors = []
    for n in ns:
        grid = Grid(problem.grid.dim, problem.grid.length, n)
        steps = max(1, int(round(T / (0.5 * grid.h * grid.h))))
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
