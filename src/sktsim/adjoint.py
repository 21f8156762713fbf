"""Backward-in-time adjoint solves with truncation regularization.

The adjoint system is marched in reversed time with the diffusion term
treated implicitly (nodewise transposed Jacobian frozen at the target
level) and the zeroth-order terms explicitly.  Coefficients come from a
forward trajectory, clamped by the smooth truncation so the frozen
diffusion matrices stay bounded; the truncation threshold eps is a runtime
parameter, and sweeps over it quantify how little the solution depends on
it once the threshold clears the data.

``run_adjoint`` marches this discretization of the continuous adjoint PDE
from the final time of one forward trajectory down to t = 0.  The explicit
step :func:`step_adjoint_transpose` applies the exact transpose of the
linearization of the program's explicit forward step,
:func:`sktsim.forward.step_explicit`, at either wall, which makes the
discrete duality pairing hold to machine precision; the uniqueness campaign
marches it directly, with coefficients averaged over two trajectories.
Like the implicit step it takes only a frozen state, which carries its
wall: :func:`_freeze_transpose` computes P^T, Q^T and the stability bound
for a whole stack of states in one call (:class:`_FrozenTranspose`).  At a
Dirichlet wall ``step_explicit`` evaluates the flux on the ghost state, the
negated wall state, so its linearization has a zeroth-order wall term; the
freeze subtracts its transpose from Q^T, and a Neumann freeze computes
nothing more.

Every backward march, batched or not, runs through the stepping loop of
the forward marches, ``forward._march``, and carries stacked pairs only:
both steps take the adjoint level phi as stacked pairs and return the next
level stacked like phi, and the march checks each new level for finiteness
once.  The implicit step solves for one pair through
:func:`sktsim.linalg.solve` and refuses a batch; the explicit one also
takes a batch of pairs (..., 2, *grid.shape) against one frozen
coefficient state and refuses a step past
:func:`sktsim.forward.stability_bound`, the bound of the explicit forward
step, which its frozen state holds.  Both
steps read P, Q and l through the maps of
:mod:`sktsim.algebra` that the forward steps and the gates call.  A
coefficient state with a negative density (an IMEX undershoot, which the
forward march does not clip) raises :class:`NumericalFailure`, so the
march reports its step and time.  The terminal
data chi are a stacked pair (2, *grid.shape) on the trajectory's grid,
which ``run_adjoint`` checks where they enter.  ``run_adjoint``
marches blocks of levels, computes a block's diagnostics with axis
reductions, in the arithmetic of one level at a time, and returns a forward
``Trajectory``.  Before it marches a block it computes, once for the
block's distinct frozen states, everything the implicit step takes from a
state (:class:`_FrozenState`: the negativity check, Q^T and the values of
I - dt P^T Lap on the pattern of its wall), so that a step only forms its
right-hand side and solves.

A per-run tracker measures the differential-inequality constant of the
backward energy (H1) balance and asserts its exponentially weighted
telescoped consequences, which is the discrete shape of the a-priori
bounds on the adjoint.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from sktsim import forward, linalg
from sktsim.algebra import Coefficients, _apply, eval_l, jac_P, jac_Q
from sktsim.forward import _BLOCK_CELLS, StabilityError, Trajectory
from sktsim.grid import (
    BoundaryCondition,
    Grid,
    NumericalFailure,
    _flat,
    _grid_sums,
    h1_norms,
    laplacian,
)

__all__ = [
    "ADJOINT_DIAGNOSTIC_COLUMNS",
    "AdjointBoundsReport",
    "AdjointRHSKind",
    "eps_cauchy_study",
    "run_adjoint",
    "step_adjoint_backward",
    "step_adjoint_transpose",
    "theta_eps",
]


class AdjointRHSKind(enum.Enum):
    """Right-hand side of the backward system: the solution itself or its growth map."""

    IDENTITY = "identity"
    GROWTH = "l"


def theta_eps(eps: float, s):
    """Smooth clamp: identity below 1/eps, constant 1/eps above 2/eps.

    The blend on [1/eps, 2/eps] is the C1 cubic Hermite interpolant with
    endpoint values (1/eps, 1/eps) and endpoint slopes (1, 0); its
    derivative stays in [-1/3, 1].  Elementwise over arrays; a scalar gives
    a float.
    """
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    arr = np.asarray(s, dtype=float)
    a = 1.0 / eps
    t = np.clip(arr * eps - 1.0, 0.0, 1.0)
    blend = a * (1.0 + t * (1.0 - t) ** 2)
    out = np.where(arr <= a, arr, np.where(arr >= 2.0 * a, a, blend))
    return float(out) if np.ndim(s) == 0 else out


class _FrozenState(NamedTuple):
    """Everything the implicit backward step takes from one frozen truncated
    state apart from phi: its smallest value (the negativity check), the
    diagonal and transposed off-diagonal of Q, and the values ``data`` of
    I - dt P^T Lap on ``pattern``, which carries the wall.  The arrays are
    rows of those :func:`_freeze` builds for a block of states."""

    low: float
    q_diag: np.ndarray
    q_off_t: np.ndarray
    data: np.ndarray
    pattern: linalg.BlockPattern


def _freeze(c: Coefficients, grid: Grid, states: np.ndarray, bc: BoundaryCondition,
            dt: float) -> list[_FrozenState]:
    """The :class:`_FrozenState` of each of the truncated states ``states``
    (k, 2, *grid.shape), computed for all k together in the arithmetic of one
    state at a time."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    k = len(states)
    s = _flat(states, grid.dim)
    q_diag, q_off = jac_Q(c, s)
    diag, off = jac_P(c, s)
    # P^T over the nodes, (P11, P21, P12, P22): block (r, c) of the operator is P_cr Lap.
    nodal_t = np.concatenate((diag[:, :1], off[:, ::-1], diag[:, 1:]), axis=1).reshape(k, -1)
    pattern = linalg.block_pattern(grid, bc)
    # -dt P^T Lap + I, in place: the block's values are the one array of their size.
    data = nodal_t[:, pattern.row]
    data *= -dt
    data *= pattern.lap
    data[:, pattern.ident] += 1.0
    low = np.min(states.reshape(k, -1), axis=1).tolist()
    return [_FrozenState(*row, pattern) for row in zip(low, q_diag, q_off[..., ::-1, :], data)]


def step_adjoint_backward(c: Coefficients, grid: Grid, phi: np.ndarray,
                          frozen: _FrozenState, dt: float, rhs: AdjointRHSKind) -> np.ndarray:
    """One semi-implicit backward step (reversed time marches forward) of the
    stacked pair ``phi``.

    Solves (I - dt P(u~)^T Lap) phi_new = phi + dt (-Q(u~)^T phi + rhs(phi))
    with the nodewise transposed Jacobian frozen at a truncated state u~,
    through :func:`sktsim.linalg.solve`, which takes one pair only.
    ``frozen`` is that state as :func:`_freeze` built it, with the same c,
    grid and dt, for a block of states; its pattern carries the wall.
    """
    if frozen.low < 0.0:
        # A forward undershoot (IMEX does not clip): the march adds step and time.
        raise NumericalFailure(f"truncated coefficient state has a negative density "
                               f"{frozen.low:.3g}")
    x = _flat(phi, grid.dim)
    src = x if rhs is AdjointRHSKind.IDENTITY else eval_l(c, x)
    b = (x + dt * (src - _apply(frozen.q_diag, frozen.q_off_t, x))).reshape(phi.shape)
    return linalg.solve(frozen.pattern, frozen.data, b, phi)


class _FrozenTranspose(NamedTuple):
    """Everything the explicit transpose step takes from one coefficient
    state m apart from phi: the stability bound of the explicit forward step
    on it, the diagonal and transposed off-diagonal of P, those of Q^T less
    the Dirichlet wall term 2 walls / h^2 (P(m) - diag(d1, d2))^T (see
    :func:`_freeze_transpose`; nothing is subtracted under Neumann), and the
    wall.  The arrays are rows of those :func:`_freeze_transpose` builds for
    a stack of states; a march makes one record per step, so it is a tuple,
    cheap to build."""

    bound: float
    p_diag: np.ndarray
    p_off_t: np.ndarray
    q_diag: np.ndarray
    q_off_t: np.ndarray
    bc: BoundaryCondition


def _freeze_transpose(c: Coefficients, grid: Grid, states: np.ndarray,
                      bc: BoundaryCondition) -> list[_FrozenTranspose]:
    """The :class:`_FrozenTranspose` of each of the coefficient states
    ``states`` (k, 2, *grid.shape) under the wall ``bc``, computed for all k
    together in the arithmetic of one state at a time."""
    s = _flat(states, grid.dim)
    diag, off = jac_P(c, s)
    q_diag, q_off = jac_Q(c, s)
    bounds = forward.stability_bound(grid, diag, off).tolist()
    if bc is BoundaryCondition.DIRICHLET:
        # step_explicit reads P at the ghost state -m, and P(-m) = 2 D - P(m)
        # with D = diag(d1, d2), so each wall face of a node adds
        # 2 / h^2 (P(m) - D) to its row of the step's linearization.
        walls = 2.0 / grid.h ** 2 * linalg.block_pattern(grid, bc).walls
        q_diag = q_diag - walls * (diag - np.array([[c.d1], [c.d2]]))
        q_off = q_off - walls * off
    return [_FrozenTranspose(*row, bc) for row in
            zip(bounds, diag, off[..., ::-1, :], q_diag, q_off[..., ::-1, :])]


def step_adjoint_transpose(c: Coefficients, grid: Grid, phi: np.ndarray,
                           frozen: _FrozenTranspose, dt: float, rhs: AdjointRHSKind) -> np.ndarray:
    """One explicit backward step, the exact transpose of the linearization
    of :func:`~sktsim.forward.step_explicit` at the coefficient state
    (diffusion, reaction, and source all taken at the known level), at
    either wall.  ``phi`` is stacked and may carry batch axes; the
    coefficient state ``frozen``, as :func:`_freeze_transpose` built it with
    the same c and grid for a stack of states, is one state and broadcasts
    over them, and carries the wall.

    Refuses, as :func:`~sktsim.forward.step_explicit` does, when dt exceeds
    the stability bound of the coefficient state.
    """
    if dt > frozen.bound:
        raise StabilityError(dt, frozen.bound)
    x = _flat(phi, grid.dim)
    lap = _flat(laplacian(grid, phi, frozen.bc), grid.dim)
    pt_lap = _apply(frozen.p_diag, frozen.p_off_t, lap)
    qt = _apply(frozen.q_diag, frozen.q_off_t, x)
    src = x if rhs is AdjointRHSKind.IDENTITY else eval_l(c, x)
    return (x + dt * (pt_lap - qt + src)).reshape(phi.shape)


ADJOINT_DIAGNOSTIC_COLUMNS = ("step", "t", "h1_phi", "weighted_lap_partial",
                              "dt_l43_partial")


@dataclass(frozen=True)
class AdjointBoundsReport:
    """Measured estimate functionals and the constants they imply.

    ``weighted_lap`` is the space-time integral of (1 + u~ + v~)|Lap phi|^2
    and its kappa is recorded against ||chi||_H1 as stated (not squared).
    ``gronwall_kappa`` is the measured per-step constant of the backward
    energy inequality; ``gronwall_slack`` is the worst relative violation of
    its telescoped consequences (expected nonpositive up to roundoff).
    """

    sup_h1: float
    weighted_lap: float
    dt_l43: float
    chi_h1: float
    kappa_sup: float
    kappa_weighted_lap: float
    kappa_dt: float
    gronwall_kappa: float
    gronwall_slack: float
    eps: float
    rhs: str


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def run_adjoint(c: Coefficients, bc: BoundaryCondition, traj: Trajectory, eps: float,
                rhs: AdjointRHSKind, chi: np.ndarray,
                stride: int = 1) -> tuple[Trajectory, AdjointBoundsReport]:
    """March the adjoint with :func:`step_adjoint_backward` from phi(T) = chi
    at the final time T of ``traj`` down to t = 0; chi is a stacked pair
    (2, *grid.shape) on the trajectory's grid.

    The coefficient state of each step is the last stored level of ``traj``
    at or before the target level (piecewise constant between stored
    levels), truncated by :func:`theta_eps`.  The distinct states of a
    block of steps (at most an eighth of the forward block size) are
    truncated and frozen (:func:`_freeze`) together before the block is
    marched, and freed before the next block; a negative state fails at the
    first step that takes it.  Records the three
    estimate functionals (block by block through ``forward._march``,
    partial sums in march order), their ratios against ||chi||_H1, and the
    energy-inequality tracker; the trajectory lives on the time grid of
    ``traj``.  A blow-up raises :class:`NumericalFailure` carrying the step
    index and time of the level being computed.
    """
    grid = traj.grid
    if chi.shape != (2, *grid.shape):
        raise ValueError(f"terminal data shape {chi.shape} does not match the stacked grid "
                         f"shape {(2, *grid.shape)} of the trajectory")
    time_grid = traj.time_grid
    dt, tau, steps = time_grid.dt, time_grid.t_final, time_grid.steps
    dim, vol = grid.dim, grid.cell_volume
    block = max(1, _BLOCK_CELLS // grid.node_count)
    # A block freezes at most ``cap`` distinct states.  One state's operators
    # hold about as many values as 8 (1D) to 12 (2D) levels, so a block's
    # frozen operators take about the memory of its levels.
    cap = max(1, block // 8)

    # Per-level values indexed by step: E_n = ||phi_n||_H1^2, the weighted
    # Laplacian term and the L^{4/3} rate term of the step that computed level n.
    # E_n = hu^2 + hv^2 is squared in Python floats: libm pow can differ from
    # numpy's square by an ulp.
    energy, weighted, rate = np.empty(steps + 1), np.empty(steps), np.empty(steps)
    kept = forward._stored_steps(steps, stride)
    stored = np.empty((len(kept), 2, *grid.shape))
    stored[-1] = phi = chi
    hu, hv = h1_norms(grid, phi, bc).tolist()
    energy[steps] = hu ** 2 + hv ** 2
    # The stored level at or before each step; step k's state is frozen there.
    below = np.searchsorted(traj.stored_steps, np.arange(steps), side="right") - 1
    top = steps
    while top > 0:
        # ``below`` grows by 0 or 1 per step, so the states of steps
        # bottom..top - 1 are the stored levels below[bottom]..below[top - 1].
        bottom = max(top - block, int(np.searchsorted(below, below[top - 1] - cap + 1)))
        which = below[bottom:top] - below[bottom]
        coef = theta_eps(eps, traj.levels[below[bottom]:below[top - 1] + 1])
        frozen = _freeze(c, grid, coef, bc, dt)
        levels = forward._march(
            lambda phi, k: step_adjoint_backward(c, grid, phi, frozen[which[k - bottom]], dt, rhs),
            grid, phi, top, bottom, dt)
        # Free the block's operators before the next block builds its own.
        del frozen
        new = levels[:-1]
        energy[bottom:top] = [hu ** 2 + hv ** 2 for hu, hv in h1_norms(grid, new, bc).tolist()]
        lap_sq = laplacian(grid, new, bc) ** 2
        w = (1.0 + coef[:, 0] + coef[:, 1])[which] * (lap_sq[:, 0] + lap_sq[:, 1])
        weighted[bottom:top] = vol * _grid_sums(w, dim)
        r = _grid_sums(np.abs((levels[1:] - new) / dt) ** (4.0 / 3.0), dim)
        rate[bottom:top] = dt * vol * (r[:, 0] + r[:, 1])
        forward._keep(stored, kept, levels, bottom)
        phi, top = new[0], bottom

    # Running sums accumulate in march order, from tau down to 0.
    wlap_partial = np.cumsum(dt * weighted[::-1])[::-1]
    dt43_partial = np.cumsum(rate[::-1])[::-1].tolist()
    alpha_eff = min(c.alpha, 0.5 * c.d0)
    e_new, e_old = energy[:-1], energy[1:]
    kappa = (-(e_old - e_new) / dt + alpha_eff * weighted) / e_old
    kappa_run = float(np.max(np.where((e_old > 0.0) & (kappa > 0.0), kappa, 0.0)))
    level = np.arange(steps + 1.0)
    diagnostics = dict(zip(ADJOINT_DIAGNOSTIC_COLUMNS, (
        level, level * dt, np.sqrt(energy), np.append(wlap_partial, 0.0),
        # Python floats: numpy's vectorised power can differ from libm pow by an ulp.
        np.array([p ** 0.75 for p in dt43_partial] + [0.0]))))

    chi_h1 = math.sqrt(energy[steps])
    energy, weighted = energy[::-1].tolist(), weighted[::-1].tolist()  # march order
    sup_h1 = math.sqrt(max(energy))
    weighted_lap = dt * float(np.sum(weighted))
    dt_l43 = dt43_partial[0] ** 0.75

    # The telescoped consequences E_n <= e^{kappa t_n} E_T and the e^{2t}-weighted
    # budget for the weighted-Laplacian term, compared in logarithms so that a
    # large kappa t cannot overflow: each slack term is
    # expm1(log lhs - log E_T - log factor), and the budget's e^{2t} weights
    # are scaled by e^{-2 tau}.  With E_T = 0 a zero lhs gives nan, which fmax
    # skips, and a positive one gives inf; 0 is the E_T term's own value.
    weighted_e2t = dt * alpha_eff * sum(
        w * math.exp(2.0 * ((steps - 1 - i) * dt - tau)) for i, w in enumerate(weighted))
    log_lhs = np.log(np.append(energy, weighted_e2t))
    log_factor = np.append(kappa_run * np.arange(steps + 1.0) * dt,
                           math.log1p(kappa_run * (tau + dt)) + kappa_run * tau)
    slack = float(np.fmax.reduce(np.expm1(log_lhs - log_lhs[0] - log_factor), initial=0.0))

    def ratio(x: float) -> float:
        return x / chi_h1 if chi_h1 > 0.0 else 0.0

    report = AdjointBoundsReport(
        sup_h1=sup_h1, weighted_lap=weighted_lap, dt_l43=dt_l43, chi_h1=chi_h1,
        kappa_sup=ratio(sup_h1), kappa_weighted_lap=ratio(weighted_lap),
        kappa_dt=ratio(dt_l43), gronwall_kappa=kappa_run, gronwall_slack=slack,
        eps=eps, rhs=rhs.value)
    trajectory = Trajectory(grid=grid, time_grid=time_grid, stored_steps=kept, levels=stored,
                            diagnostics=diagnostics)
    return trajectory, report


def eps_cauchy_study(c: Coefficients, bc: BoundaryCondition, traj: Trajectory,
                     eps_list: list[float], rhs: AdjointRHSKind, chi: np.ndarray
                     ) -> tuple[dict[str, np.ndarray], list[AdjointBoundsReport]]:
    """Differences between adjoint solves on ``traj`` at consecutive
    truncation thresholds.

    Returns the columns of ``eps_cauchy.csv``, one row per consecutive pair
    of thresholds: eps_coarse, eps_fine, the sup-in-time H1 and space-time
    L2-of-Laplacian distances diff_sup_h1 and diff_lap_l2, and
    truncation_inactive (1.0 once both thresholds clear the coefficient
    data: the clamp is then the identity and the difference vanishes
    exactly).  Also returns the bounds report of each solve, in
    ``eps_list`` order, so callers need not march again.
    """
    runs = []
    reports = []
    u_max = max(0.0, float(np.max(traj.levels)))

    for eps in eps_list:
        phi_traj, report = run_adjoint(c, bc, traj, eps, rhs, chi, stride=1)
        runs.append((eps, phi_traj.levels))
        reports.append(report)

    grid, dim, dt = traj.grid, traj.grid.dim, traj.time_grid.dt
    rows = []
    for (eps_a, levels_a), (eps_b, levels_b) in zip(runs, runs[1:]):
        diff = levels_a - levels_b
        sup_h1 = max([0.0] + [math.sqrt(hu ** 2 + hv ** 2)
                              for hu, hv in h1_norms(grid, diff, bc).tolist()])
        # Every level but the top one carries a Laplacian term, summed in step order.
        lap_sq = _grid_sums(laplacian(grid, diff[:-1], bc) ** 2, dim)
        lap_l2 = math.sqrt(np.cumsum(dt * grid.cell_volume * (lap_sq[:, 0] + lap_sq[:, 1]))[-1])
        inactive = (1.0 / max(eps_a, eps_b)) >= u_max
        rows.append((eps_a, eps_b, sup_h1, lap_l2, inactive))
    names = ("eps_coarse", "eps_fine", "diff_sup_h1", "diff_lap_l2", "truncation_inactive")
    return dict(zip(names, np.array(rows, dtype=float).reshape(-1, 5).T)), reports
