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
:func:`~sktsim.linalg.block_pattern` of (grid, bc), in 1D and 2D alike,
and solved by :func:`~sktsim.linalg.solve`.  The explicit step takes a
batch of pairs (*batch, 2, *grid.shape); so does the IMEX step in 1D,
whose operators, one per pair, are solved in one band, bit for bit as one
pair at a time.  A 2D IMEX step takes one pair.  The initial data of a
march, batched or not, are checked by one helper, :func:`_initial_levels`.

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

A march carries stacked pairs only, arrays of shape (*batch, 2,
*grid.shape) (see :mod:`sktsim.grid`): every step takes its level as one
array and returns the next one, and :func:`_march` checks each new level
for finiteness once and stores it with one assignment.  The initial data
are a stacked pair too, so no object is built per step; ``run_forward``
checks them once, where they enter.  The steps take an optional forcing
term, which only :func:`manufactured_convergence` passes: it marches its
forced runs through :func:`_march` itself, evaluates the forcing once per
block of levels, at all the block's times in one call, and hands each
step its row; ``run_forward`` marches without one.  The steps
call the maps of :mod:`sktsim.algebra` (``eval_p``, ``jac_P``, ...), the
one implementation of the model maps, which the algebra gates call too.
The explicit step evaluates the flux, its Laplacian and the stability
bound once each, on the whole stacked array, and sums the update into the
Laplacian's array in place; :func:`stability_bound` also serves the
transpose adjoint step.  Both forward steps evaluate the reactions l - q
only when ``Coefficients.has_reactions`` is set.  Otherwise l - q is a
signed zero at every node: the explicit level is then bit for bit the one
the pass would give, and the IMEX right-hand side could differ from it
only in the sign of a zero, where the level holds -0.0.
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from sktsim import linalg
from sktsim.algebra import Coefficients, eval_l, eval_p, eval_q, jac_P
from sktsim.grid import (
    BoundaryCondition,
    FieldPair,
    Grid,
    NumericalFailure,
    _extend,
    _flat,
    _grad_stencil,
    _grid_sums,
    _lap_stencil,
    h1_norms,
)

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
    """Uniform time grid on (0, t_final] with M = round(t_final/dt) >= 1 steps;
    t_final / dt must be finite."""

    t_final: float
    dt: float

    def __post_init__(self) -> None:
        if not (self.t_final > 0.0 and self.dt > 0.0):
            raise ValueError("t_final and dt must be positive")
        if not math.isfinite(self.t_final / self.dt):
            raise ValueError(f"t_final / dt = {self.t_final:g} / {self.dt:g} is not finite")
        steps = self.steps
        if steps < 1 or abs(steps * self.dt - self.t_final) > 1e-12 * max(1.0, self.t_final):
            raise ValueError(f"dt={self.dt} does not divide t_final={self.t_final}")

    @property
    def steps(self) -> int:
        return int(round(self.t_final / self.dt))


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

    def final_state(self) -> FieldPair:
        """The last stored level as a :class:`FieldPair` of views of
        ``levels``, for callers outside the package that read u and v."""
        return FieldPair(self.grid, self.levels[-1, 0], self.levels[-1, 1])


def _stored_steps(steps: int, stride: int) -> list[int]:
    """Levels a march of ``steps`` steps stores: {0, stride, 2 stride, ...} and ``steps``."""
    return [*range(0, steps, max(int(stride), 1)), steps]


def _keep(stored: np.ndarray, kept: list[int], levels: np.ndarray, first: int) -> None:
    """Copy those of ``levels``, the levels ``first``, ``first`` + 1, ..., whose
    steps are in ``kept`` into their rows of ``stored`` (one row per kept step)."""
    i, j = bisect.bisect_left(kept, first), bisect.bisect_right(kept, first + len(levels) - 1)
    stored[i:j] = levels[[s - first for s in kept[i:j]]]


@np.errstate(over="ignore", invalid="ignore")
def _march(advance: Callable[[np.ndarray, int], np.ndarray], grid: Grid, w: np.ndarray,
           start: int, stop: int, dt: float) -> np.ndarray:
    """March ``w``, the stacked level ``start`` (*batch, 2, *grid.shape), to
    level ``stop`` in either time direction; every march runs this loop.

    ``advance(w, k)`` returns level k, stacked like its neighbour ``w``.
    Returns the levels between ``start`` and ``stop`` in ascending time,
    shape (*batch, |stop - start| + 1, 2, *grid.shape).  Each new level is
    checked for finiteness once; a blow-up raises :class:`NumericalFailure`
    carrying the step index and time of the level being computed.
    """
    batch = w.shape[:w.ndim - 1 - grid.dim]
    sign, bottom = (1, start) if stop >= start else (-1, stop)
    levels = np.empty(batch + (abs(stop - start) + 1,) + w.shape[len(batch):])
    by_level = np.moveaxis(levels, len(batch), 0)
    by_level[start - bottom] = w
    for k in range(start + sign, stop + sign, sign):
        try:
            w = advance(w, k)
            if not np.isfinite(w).all():
                raise NumericalFailure("non-finite field values")
        except NumericalFailure as exc:
            exc.step, exc.t = k, k * dt
            raise
        by_level[k - bottom] = w
    return levels


def stability_bound(grid: Grid, diag: np.ndarray, off: np.ndarray) -> float | np.ndarray:
    """h^2 / (2 d P_max) for the flux Jacobian P with diagonal ``diag`` and
    off-diagonal ``off`` (see :func:`~sktsim.algebra.jac_P`): P_max is the
    largest of the rows |P11| + |P12| and |P21| + |P22| over the nodes.

    One state (2, N) gives a float; a stack (*batch, 2, N) of states gives
    the bound of each, an array of shape ``batch`` (inf where P = 0).
    """
    rows = np.abs(diag)
    rows += np.abs(off)
    if rows.ndim > 2:
        with np.errstate(divide="ignore"):
            return grid.h ** 2 / (2.0 * grid.dim * rows.max(axis=(-2, -1)))
    p_max = float(rows.max())
    if p_max == 0.0:
        return math.inf
    return grid.h ** 2 / (2.0 * grid.dim * p_max)


def _extended_flux(c: Coefficients, grid: Grid, w: np.ndarray, bc: BoundaryCondition) -> np.ndarray:
    """p(ext w) of the stacked pairs ``w``, on the ghost-extended grid.

    Evaluating p on the extended state (rather than extending the flux
    values, which under Dirichlet walls differ) keeps the Laplacian of the
    flux identical to the divergence-form operator under both boundary rules.
    """
    ext = _extend(w, bc, grid.dim)
    return eval_p(c, _flat(ext, grid.dim)).reshape(ext.shape)


def step_explicit(c: Coefficients, grid: Grid, w: np.ndarray, bc: BoundaryCondition, dt: float,
                  forcing: np.ndarray | None = None) -> np.ndarray:
    """One forward-Euler step of the Laplacian-of-flux form on the stacked
    pairs ``w`` (*batch, 2, *grid.shape); ``forcing`` is stacked like ``w``.

    Refuses with the computed bound when dt exceeds h^2/(2 d P_max) for the
    current state.
    """
    s = _flat(w, grid.dim)
    bound = stability_bound(grid, *jac_P(c, s))
    if w.ndim > grid.dim + 1:  # the pairs of a batch share dt, so the smallest bound holds
        bound = float(bound.min())
    if dt > bound:
        raise StabilityError(dt, bound)
    # w + dt (Lap p(ext w) + l - q), built in the stencil's new array.
    new = _lap_stencil(_extended_flux(c, grid, w, bc), grid.h, grid.dim)
    if c.has_reactions:
        new += (eval_l(c, s) - eval_q(c, s)).reshape(w.shape)
    new *= dt
    new += w
    if forcing is not None:
        new += dt * forcing
    return new


def _divergence_form_data(c: Coefficients, grid: Grid, w: np.ndarray,
                          pattern: linalg.BlockPattern) -> np.ndarray:
    """Values on ``pattern`` (the :func:`~sktsim.linalg.block_pattern` of
    ``grid`` and the bc) of the 2N x 2N operator x -> div(P(w) grad x) with
    face-averaged P, on stacked unknowns [x_u; x_v], for each stacked pair of
    ``w`` (*batch, 2, *grid.shape): shape (*batch, nnz).

    Because the Jacobian entries are affine in the state, the arithmetic face
    average equals the midpoint evaluation and flux differences of the
    quadratic map are reproduced exactly.
    """
    batch = w.shape[:w.ndim - 1 - grid.dim]
    diag, off = jac_P(c, _flat(w, grid.dim))
    # P11, P12, P21, P22 over the nodes: the 4N values per pair that pattern.row indexes.
    nodal = np.concatenate((diag[..., :1, :], off, diag[..., 1:, :]), axis=-2).ravel()
    row, col, node_diag, ident = pattern.row, pattern.col, pattern.node_diag, pattern.ident
    if batch:  # the pairs side by side: pair m's values and entries offset by m 4N and m nnz
        pair = np.arange(math.prod(batch))[:, None]
        row, col = ((index + 4 * grid.node_count * pair).ravel() for index in (row, col))
        node_diag, ident = ((index + pattern.row.size * pair).ravel() for index in (node_diag, ident))
    inv_h2 = 1.0 / grid.h ** 2
    data = nodal.take(row)
    data += nodal.take(col)
    data *= 0.5 * inv_h2
    # Each diagonal entry balances its row of the block (zero row sums) ...
    data[node_diag] = 0.0
    row_sums = np.bincount(row, weights=data, minlength=nodal.size)
    data[node_diag] = -row_sums[row[node_diag]]
    # ... except at a Dirichlet wall: the ghost state is the negated interior
    # state, so the face coefficient averages to diag(d1, d2) and the
    # across-face jump is 2 x_wall.  Neumann has no wall faces.
    if pattern.walls.size:
        wall = (2.0 * inv_h2 * np.outer((c.d1, c.d2), pattern.walls)).ravel()
        data[ident] -= np.tile(wall, len(pair)) if batch else wall
    return data.reshape(*batch, -1) if batch else data


def step_imex(c: Coefficients, grid: Grid, w: np.ndarray, bc: BoundaryCondition, dt: float,
              forcing: np.ndarray | None = None) -> np.ndarray:
    """One semi-implicit step on the stacked pairs ``w``: implicit
    lagged-coefficient diffusion, explicit reactions.

    Solves (I - dt L_n) x = w + dt (l - q + forcing) with
    :func:`~sktsim.linalg.solve`; accuracy O(dt).  In 1D, ``w`` may be a
    batch (*batch, 2, n), each pair with its own operator, solved in one
    band, and ``forcing`` is stacked like ``w``; in 2D it is one pair.
    """
    b = w
    if c.has_reactions:
        s = _flat(w, grid.dim)
        b = w + dt * (eval_l(c, s) - eval_q(c, s)).reshape(w.shape)
    if forcing is not None:
        b = b + dt * forcing
    pattern = linalg.block_pattern(grid, bc)
    data = _divergence_form_data(c, grid, w, pattern)
    data *= -dt
    data.T[pattern.ident] += 1.0  # data.T[k]: entry k of every pair
    return linalg.solve(pattern, data, b, w)


#: The step of each scheme.  ``run_forward`` calls the steps through this
#: table, bound at import, not through the module attributes that the layer
#: tracer of ``perfbench/spans.py`` replaces: its ``forward.step`` wrapper
#: reads ``.grid`` off the second argument, which a stacked array lacks
#: (ROADMAP item 1).
_STEPS = {SchemeKind.EXPLICIT: step_explicit, SchemeKind.IMEX_LAGGED: step_imex}


@dataclass
class ForwardProblem:
    """Everything one forward run needs.  ``initial`` is the stacked pair
    (2, *grid.shape) at t = 0, or anything ``np.asarray`` turns into one
    (a :class:`FieldPair`).  A run has no source term; the one forced
    march, :func:`manufactured_convergence`, passes its forcing to the
    step itself."""

    coefficients: Coefficients
    grid: Grid
    bc: BoundaryCondition
    time_grid: TimeGrid
    scheme: SchemeKind
    initial: np.ndarray
    stride: int = 1


#: Cells per species held by the block of levels whose diagnostics are
#: computed together, or whose forcing is evaluated in one call: 256 levels
#: at 1D n = 64, one level at 2D n = 128.
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
    # p(ext u) is freed as soon as it is used, which keeps the peak memory
    # near three times that of ``levels``.
    p_ext = _extended_flux(c, grid, cur, bc)
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


def _initial_levels(initial, grid: Grid, batch: tuple[int, ...] = ()) -> np.ndarray:
    """``initial`` as stacked pairs of floats, shape (*batch, 2, *grid.shape),
    checked as every forward march checks its initial data: a wrong shape or
    a negative value raises ``ValueError``, a non-finite value
    :class:`NumericalFailure`."""
    initial = np.asarray(initial, dtype=float)
    shape = (*batch, 2, *grid.shape)
    if initial.shape != shape:
        raise ValueError(f"initial data shape {initial.shape} does not match the stacked "
                         f"grid shape {shape}")
    if not np.isfinite(initial).all():
        raise NumericalFailure("non-finite initial data")
    if np.any(initial < 0):
        raise ValueError("initial data must be nonnegative")
    return initial


@np.errstate(over="ignore", invalid="ignore")
def run_forward(problem: ForwardProblem) -> Trajectory:
    """Integrate 0 -> T recording per-step diagnostics and strided snapshots.

    Negative values are never clipped; the ``min_u``/``min_v`` columns
    record any undershoot.  A step that fails (non-finite values or the
    explicit stability bound) raises :class:`NumericalFailure` carrying the
    step index and time, without numpy overflow warnings.  The march runs
    through :func:`_march` a block of levels at a time; each block's
    diagnostics are computed together and its stored levels kept.  The
    initial data must be a finite, nonnegative stacked pair.
    """
    c, grid, bc = problem.coefficients, problem.grid, problem.bc
    tg = problem.time_grid
    initial = _initial_levels(problem.initial, grid)
    dt = tg.dt
    step = _STEPS[problem.scheme]

    kept = _stored_steps(tg.steps, problem.stride)
    stored = np.empty((len(kept), 2, *grid.shape))
    stored[0] = w = initial
    columns = np.empty((len(DIAGNOSTIC_COLUMNS), tg.steps + 1))
    # Level 0 paired with itself: its time-derivative norm is exactly zero.
    columns[:, :1] = _diagnostics_block(c, grid, bc, stored[[0, 0]], np.zeros(1), dt)
    block = max(1, _BLOCK_CELLS // grid.node_count)
    for lo in range(0, tg.steps, block):
        hi = min(lo + block, tg.steps)
        levels = _march(lambda w, _: step(c, grid, w, bc, dt), grid, w, lo, hi, dt)
        columns[:, lo + 1:hi + 1] = _diagnostics_block(
            c, grid, bc, levels, np.arange(lo + 1, hi + 1, dtype=float), dt)
        _keep(stored, kept, levels, lo)
        w = levels[-1]

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
    :mod:`sktsim.mms`).  For each resolution the step of ``problem.scheme``
    (``_STEPS``) marches the exact fields at t = 0, checked by
    :func:`_initial_levels`, to T through :func:`_march`, a block of levels
    (``_BLOCK_CELLS``) at a time, and the max-norm error against the exact
    final state is recorded.  Step k takes the forcing at t = (k - 1) dt,
    evaluated for all the steps of its block in one ``exact.forcing``
    call; a non-finite forcing fails at the step that takes it.  Only the
    last level is kept and no diagnostics are computed.  The step is
    dt = T / round(T / (0.5 h^2)): dt proportional to h^2 balances the
    first-order-in-time schemes to a clean second-order total.
    """
    c, bc, step = problem.coefficients, problem.bc, _STEPS[problem.scheme]
    T = problem.time_grid.t_final
    errors = []
    for n in ns:
        grid = Grid(problem.grid.dim, problem.grid.length, n)
        steps = max(1, int(round(T / (0.5 * grid.h * grid.h))))
        dt = T / steps
        w = _initial_levels(exact.field(grid, 0.0), grid)
        block = max(1, _BLOCK_CELLS // grid.node_count)
        for lo in range(0, steps, block):
            hi = min(lo + block, steps)
            forcing = exact.forcing(grid, np.arange(lo, hi) * dt)
            w = _march(lambda w, k: step(c, grid, w, bc, dt, forcing[k - 1 - lo]),
                       grid, w, lo, hi, dt)[-1]
        errors.append(float(np.max(np.abs(w - exact.field(grid, T)))))
    return ConvergenceTable(ns=list(ns), errors=errors)
