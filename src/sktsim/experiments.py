"""Verification campaigns: duality-based uniqueness and continuous dependence.

Uniqueness is rendered at desk scale as convergence: two different
discretizations of one problem must agree in the limit, so the terminal
pairings of their difference against a basis of terminal data shrink under
joint refinement.  The duality bookkeeping itself is validated to machine
precision on a synthetic run where the difference follows the exact
linearization of the program's explicit step, the secant of
:func:`~sktsim.forward.step_explicit` about a fixed state, and the adjoint
is its exact transpose.  The studies compose the program's steps and
restate none of their physics: no flux Jacobian, Laplacian or ghost
extension is evaluated here.  Every run here, each forward run, the
linearized difference and the batched transpose adjoint of the terminal
basis (on the truncated average of the two forward runs), is one call of
the one stepping loop :func:`sktsim.forward._march` over all its steps on
stacked pairs.  A forward run calls the step the way
:func:`~sktsim.forward.run_forward` does, through ``forward._STEPS``, with
its initial data checked by ``forward._initial_levels``; it keeps every
level it marches and computes no per-step diagnostics.
The transpose adjoint's coefficient states are all known before it
marches, so each study freezes them once
(:func:`sktsim.adjoint._freeze_transpose`) and every step reads its frozen
state, the only state the step takes.  The terminal basis is fixed: three
low modes in each species (:func:`chi_basis`).
The initial data, the terminal basis, the solution differences and the
adjoint levels are stacked pairs, and every pairing and norm of them is one
call to the reductions of :mod:`sktsim.grid`.

Continuous dependence perturbs the initial data along a fixed direction
and fits how the weak norm of the solution difference scales with the
perturbation size, alongside the ingredient terms of the initial-data
bound.  Its base run and three perturbed runs march as one 1D batch of
IMEX runs, one band solve per step, and the levels at each quarter of the
horizon are read from that march.

Each study takes the grids it marches on, a :class:`~sktsim.grid.Grid` and
a :class:`~sktsim.forward.TimeGrid` per level, and the stacked pairs it
starts from, as its caller pins them; it builds no grid of its own.  It
returns the table its campaign writes, as a dict of equal-length columns in
CSV order (``uniqueness_levels.csv``, ``dependence.csv``), built from one
tuple per row, and the campaign reads its gate values from those columns.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from sktsim.adjoint import AdjointRHSKind, _freeze_transpose, step_adjoint_transpose, theta_eps
from sktsim.algebra import Coefficients, dual_exponent, eval_l
from sktsim.forward import _STEPS, SchemeKind, TimeGrid, _initial_levels, _march
from sktsim.grid import (
    BoundaryCondition,
    Grid,
    _flat,
    h1_norms,
    inner,
    lp_norm,
    weak_norm,
)

__all__ = [
    "chi_basis",
    "continuous_dependence_experiment",
    "frozen_duality_check",
    "scalar_reduction_check",
    "uniqueness_experiment",
]

TINY_EPS = 1e-9  # truncation threshold far above any desk-scale data

# The two discretizations whose difference the uniqueness experiment pairs.
_SCHEMES = (SchemeKind.EXPLICIT, SchemeKind.IMEX_LAGGED)


def chi_basis(grid: Grid, bc: BoundaryCondition) -> np.ndarray:
    """Low-frequency terminal-data basis, one component at a time, H1-normalized.

    Returns the basis as stacked pairs, shape (6, 2, *grid.shape): each of
    three profiles first in u, then in v.  A profile is the product over the
    axes of cos(m pi x / L) from mode 0 under Neumann or sin(m pi x / L) from
    mode 1 under Dirichlet, so every element satisfies the homogeneous
    boundary condition exactly.  The modes are k, k+1, k+2 in 1D and
    (k, k), (k+1, k), (k, k+1) in 2D, for k = 0 or 1.
    """
    k, wave = (0, np.cos) if bc is BoundaryCondition.NEUMANN else (1, np.sin)
    if grid.dim == 1:
        mode_list = [(k,), (k + 1,), (k + 2,)]
    else:
        mode_list = [(k, k), (k + 1, k), (k, k + 1)]
    axes = grid.meshgrid()
    profiles = [math.prod(wave(m * np.pi * X / grid.length) for m, X in zip(mode, axes))
                for mode in mode_list]
    zero = np.zeros(grid.shape)
    basis = np.array([pair for prof in profiles for pair in ((prof, zero), (zero, prof))])
    h1 = h1_norms(grid, basis, bc)
    scale = np.sqrt(h1[:, 0] ** 2 + h1[:, 1] ** 2)
    return (1.0 / scale).reshape((-1,) + (1,) * (grid.dim + 1)) * basis


def scalar_reduction_check(times: np.ndarray, pairing: np.ndarray, a1: float) -> float:
    """Max deviation of exp(-(a1-1) t) * pairing(t) from its initial value."""
    times = np.asarray(times, dtype=float)
    pairing = np.asarray(pairing, dtype=float)
    if times.shape != pairing.shape:
        raise ValueError("times and pairing series must have the same length")
    weighted = np.exp(-(a1 - 1.0) * times) * pairing
    return float(np.max(np.abs(weighted - weighted[0])))


def _transpose_pairing(c: Coefficients, grid: Grid, dt: float, states: list, u_bar: np.ndarray,
                       chi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The transpose adjoint of the terminal data ``chi`` (B, 2, *grid.shape),
    marched back over the difference levels ``u_bar`` (S+1, 2, *grid.shape),
    its pairing series with ``u_bar`` and the discrete residual of the
    collapsed pairing identity.

    The step to level k reads the frozen state ``states[k]``
    (:func:`~sktsim.adjoint._freeze_transpose`).  Returns the adjoint
    levels, shape (B, S+1, 2, *grid.shape); the pairing series
    p_n = <u_bar^n, phi^n>, shape (B, S+1); and the residual, one row per
    basis member and one value per step:
    r_n = (p_{n+1} - p_n)/dt + <u_bar^n, phi^{n+1}> - <l(u_bar^n), phi^{n+1}>,
    identically zero (to roundoff) when the difference follows the
    linearized dynamics and the adjoint is its exact transpose with the
    identity right-hand side.
    """
    phi = _march(lambda phi, k: step_adjoint_transpose(c, grid, phi, states[k], dt,
                                                       AdjointRHSKind.IDENTITY),
                 grid, chi, len(u_bar) - 1, 0, dt)
    p = inner(grid, u_bar, phi)
    l_bar = eval_l(c, _flat(u_bar[:-1], grid.dim)).reshape(u_bar[:-1].shape)
    residual = ((p[:, 1:] - p[:, :-1]) / dt + inner(grid, u_bar[:-1], phi[:, 1:])
                - inner(grid, l_bar, phi[:, 1:]))
    return phi, p, residual


def frozen_duality_check(c: Coefficients, grid: Grid, bc: BoundaryCondition,
                         time_grid: TimeGrid, u_tilde: np.ndarray, u_bar0: np.ndarray,
                         chi: np.ndarray) -> float:
    """Max duality residual on a synthetic frozen-coefficient run.

    The difference u_bar marches by the secant of the program's explicit
    step about the fixed state u~, step(u~ + u_bar/2) - step(u~ - u_bar/2),
    both members one batch of two pairs; the step is quadratic in its
    state, so the secant is its exact linearization at u~.  The step is
    looked up where :func:`~sktsim.forward.run_forward` looks it up
    (``forward._STEPS``).  The adjoint is the exact transpose of that
    linearization at either wall.  The state ``u_tilde``, the initial
    difference ``u_bar0`` and the terminal data ``chi`` are stacked pairs
    (2, *grid.shape).  The residual is pure linear algebra and sits at
    roundoff level.
    """
    steps, dt, step = time_grid.steps, time_grid.dt, _STEPS[SchemeKind.EXPLICIT]
    u_bar = _march(lambda x, _: np.subtract(*step(c, grid, u_tilde + np.stack((x, -x)) / 2, bc, dt)),
                   grid, u_bar0, 0, steps, dt)
    # One coefficient state for every step, frozen once.
    states = _freeze_transpose(c, grid, u_tilde[None], bc) * steps
    *_, res = _transpose_pairing(c, grid, dt, states, u_bar, chi[None])
    return float(np.max(np.abs(res)))


def uniqueness_experiment(c: Coefficients, bc: BoundaryCondition,
                          levels: list[tuple[Grid, TimeGrid]],
                          initial: Callable[[Grid], np.ndarray]) -> dict[str, np.ndarray]:
    """Difference of two discretizations paired against terminal data.

    On each ``(grid, time_grid)`` of ``levels``: march the explicit and the
    IMEX step over every step from the stacked pair ``initial(grid)``,
    checked as :func:`~sktsim.forward.run_forward` checks its initial data,
    and march the transpose adjoint step on the average of their levels,
    truncated at ``TINY_EPS``, for the whole terminal basis
    (:func:`chi_basis`) as one batch.  Returns the columns of
    ``uniqueness_levels.csv``, one row per level: n, dt, and over the basis
    the largest endpoint pairing |<u_bar(T), chi>| (max_pairing), the
    largest per-step duality residual (max_residual), the largest
    summation-by-parts telescoping gap (sbp_gap) and the largest
    scalar-reduction deviation of a pairing series (reduction_deviation),
    read from the pairing series of :func:`_transpose_pairing`.
    """
    def run_level(grid: Grid, tg: TimeGrid) -> tuple[float, ...]:
        steps, dt, w0 = tg.steps, tg.dt, _initial_levels(initial(grid), grid)
        u1, u2 = (_march(lambda w, _: step(c, grid, w, bc, dt), grid, w0, 0, steps, dt)
                  for step in [_STEPS[scheme] for scheme in _SCHEMES])
        u_bar = u1 - u2

        # Every state is known before the march, so all are frozen at once.
        states = _freeze_transpose(c, grid, theta_eps(TINY_EPS, 0.5 * (u1 + u2)), bc)
        phi, series, res = _transpose_pairing(c, grid, dt, states, u_bar, chi_basis(grid, bc))
        # Summation by parts, term by term and summed in step order (cumsum):
        # its roundoff is what the gate reads.  series[:, -1] pairs with phi(T) = chi.
        terms = (inner(grid, u_bar[1:] - u_bar[:-1], phi[:, 1:])
                 + inner(grid, u_bar[:-1], phi[:, 1:] - phi[:, :-1]))
        telescoped = np.cumsum(terms, axis=1)[:, -1]
        sbp_gap = np.max(np.abs(telescoped - (series[:, -1] - series[:, 0])))
        times = np.arange(steps + 1.0) * dt
        reduction_dev = max(scalar_reduction_check(times, row, c.a1) for row in series)
        return (grid.n, dt, np.max(np.abs(series[:, -1])), np.max(np.abs(res)), sbp_gap,
                reduction_dev)

    rows = np.array([run_level(grid, tg) for grid, tg in levels]).reshape(-1, 6)
    names = ("n", "dt", "max_pairing", "max_residual", "sbp_gap", "reduction_deviation")
    return dict(zip(names, rows.T))


def continuous_dependence_experiment(
        c: Coefficients, bc: BoundaryCondition, grid: Grid, time_grid: TimeGrid,
        base: np.ndarray, direction: np.ndarray
) -> tuple[dict[str, np.ndarray], list[float], list[float]]:
    """Scaling of the weak norm of the solution difference with the data offset.

    For each delta in (1e-3, 1e-2, 1e-1) the IMEX run on ``grid`` and
    ``time_grid`` starts from the stacked pair base + delta * direction.  It
    marches with the run from ``base`` as one batch of four over every step,
    its initial data checked as :func:`~sktsim.forward.run_forward` checks
    them, and the levels at every quarter of the horizon are read from that
    one march.  The weak norm of the difference at tau = T/4, T/2, T is
    recorded next to the basis sup (over :func:`chi_basis`), the
    initial-data norms with exponent q = dual_exponent(d) and the three
    ingredient terms of the initial-data bound.  Returns the columns of
    ``dependence.csv`` (tau, delta, weak_norm, basis_sup, input_l2,
    input_lq, ing47, ing48, ing49; one row per (tau, delta), tau-major) and,
    read back from them per tau, the fitted log-log slope of the weak norm
    against delta and the fitted constant kappa, the largest ratio of the
    weak norm to the L^q size of the initial offset.
    """
    deltas = [1e-3, 1e-2, 1e-1]
    T, dt, dim = time_grid.t_final, time_grid.dt, grid.dim
    if time_grid.steps % 4 != 0:
        raise ValueError("step count must be divisible by 4 so tau levels are stored")
    quarter = time_grid.steps // 4
    q = dual_exponent(dim)

    # The step of ``run_forward``, looked up where it does (see forward._STEPS).
    step = _STEPS[SchemeKind.IMEX_LAGGED]
    w0 = _initial_levels(np.stack([base] + [base + delta * direction for delta in deltas]),
                         grid, (len(deltas) + 1,))
    levels = _march(lambda w, _: step(c, grid, w, bc, dt), grid, w0, 0, time_grid.steps,
                    dt)[:, ::quarter]
    diffs = levels[1:] - levels[0]  # per delta, the difference at quarter levels 0..4
    basis = chi_basis(grid, bc)

    sqrt_t = math.sqrt(T)
    p47 = 4.0 * dim / (dim + 2.0)
    p48 = 2.0 * dim / (6.0 - dim)
    # Per delta: input_l2, input_lq, ing47, ing48, ing49.
    inputs = [(l2, lp_norm(grid, bar0, q), sqrt_t * lp_norm(grid, bar0, p47),
               T * lp_norm(grid, bar0, p48), sqrt_t * l2)
              for bar0 in diffs[:, 0] for l2 in [math.sqrt(inner(grid, bar0, bar0))]]
    # tau = T/4, T/2 and T are the quarter levels 1, 2 and 4.
    rows = [(k / 4 * T, delta, weak_norm(grid, diff[k], bc),
             np.max(np.abs(inner(grid, diff[k], basis))), *row)
            for k in (1, 2, 4) for delta, diff, row in zip(deltas, diffs, inputs)]
    names = ("tau", "delta", "weak_norm", "basis_sup", "input_l2", "input_lq", "ing47", "ing48",
             "ing49")
    columns = dict(zip(names, np.array(rows).T))

    by_tau = (-1, len(deltas))
    weak_norms = columns["weak_norm"].reshape(by_tau)
    log_d = np.log(deltas)
    slopes = [float(np.polyfit(log_d, np.log(row), 1)[0]) for row in weak_norms]
    kappas = np.max(weak_norms / columns["input_lq"].reshape(by_tau), axis=1).tolist()
    return columns, slopes, kappas
