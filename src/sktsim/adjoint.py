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
explicit linearized forward difference operator, which makes the discrete
duality pairing hold to machine precision; the uniqueness campaign marches
it directly, with coefficients averaged over two trajectories.

Every backward march, batched or not, runs through the stepping loop of
the forward marches, ``forward._march``, and carries stacked pairs only:
both steps take the adjoint level phi and the coefficient state as stacked
pairs and return the next level stacked like phi, and the march checks each
new level for finiteness once.  The implicit step solves for one pair
through :func:`sktsim.linalg.solve`; the explicit one also takes a batch
of pairs (..., 2, *grid.shape) against one coefficient state.  The terminal
data chi are a stacked pair (2, *grid.shape) on the trajectory's grid,
which ``run_adjoint`` checks where they enter.  ``run_adjoint``
marches blocks of levels, computes a block's diagnostics with axis
reductions, in the arithmetic of one level at a time, and returns a forward
``Trajectory``.

A per-run tracker measures the differential-inequality constant of the
backward energy (H1) balance and asserts its exponentially weighted
telescoped consequences, which is the discrete shape of the a-priori
bounds on the adjoint.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from sktsim import forward, linalg
from sktsim.algebra import Coefficients, _apply, _stacked_P, _stacked_Q
from sktsim.forward import _BLOCK_CELLS, StabilityError, Trajectory
from sktsim.grid import (
    BoundaryCondition,
    Grid,
    _extend,
    _flat,
    _grid_sums,
    _lap_stencil,
    h1_norms,
    laplacian,
)

__all__ = [
    "ADJOINT_DIAGNOSTIC_COLUMNS",
    "AdjointBoundsReport",
    "AdjointRHSKind",
    "EpsCauchyRow",
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


def _zeroth_order(c: Coefficients, s: np.ndarray, x: np.ndarray,
                  rhs: AdjointRHSKind) -> tuple[np.ndarray, np.ndarray]:
    """Q(s)^T x and rhs(x) for the flattened coefficient state ``s`` (2, N)
    and adjoint levels ``x`` (..., 2, N)."""
    q_diag, q_off = _stacked_Q(c, s)
    src = x if rhs is AdjointRHSKind.IDENTITY else c.columns.growth * x
    return _apply(q_diag, q_off[..., ::-1, :], x), src


def step_adjoint_backward(c: Coefficients, grid: Grid, phi: np.ndarray, u_tilde_eps: np.ndarray,
                          bc: BoundaryCondition, dt: float,
                          rhs: AdjointRHSKind) -> np.ndarray:
    """One semi-implicit backward step (reversed time marches forward) of the
    stacked pair ``phi``.

    Solves (I - dt P(u~)^T Lap) phi_new = phi + dt (-Q(u~)^T phi + rhs(phi))
    with the nodewise transposed Jacobian frozen at the supplied truncated
    state ``u_tilde_eps`` (stacked), through :func:`sktsim.linalg.solve`,
    which takes one pair only.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if np.any(u_tilde_eps < 0.0):
        raise ValueError("truncated coefficient state must be nonnegative")
    s, x = _flat(u_tilde_eps, grid.dim), _flat(phi, grid.dim)
    qt, src = _zeroth_order(c, s, x, rhs)
    b = (x + dt * (src - qt)).reshape(phi.shape)
    diag, off = _stacked_P(c, s)
    # P^T over the nodes, (P11, P21, P12, P22): block (r, c) of the operator is P_cr Lap.
    nodal_t = np.concatenate((diag[:1], off[::-1], diag[1:])).ravel()
    pattern = linalg.block_pattern(grid, bc)
    data = -dt * nodal_t[pattern.row] * pattern.lap
    data[pattern.ident] += 1.0
    return linalg.solve(pattern, data, b, phi)


def step_adjoint_transpose(c: Coefficients, grid: Grid, phi: np.ndarray, u_tilde_eps: np.ndarray,
                           bc: BoundaryCondition, dt: float,
                           rhs: AdjointRHSKind) -> np.ndarray:
    """One explicit backward step, the exact transpose of the linearized
    explicit forward difference update (diffusion, reaction, and source all
    taken at the known level).  ``phi`` is stacked and may carry batch axes;
    the coefficient state is one stacked pair and broadcasts over them.

    Refuses, as :func:`~sktsim.forward.step_explicit` does, when dt exceeds
    the stability bound of the coefficient state.
    """
    s, x = _flat(u_tilde_eps, grid.dim), _flat(phi, grid.dim)
    diag, off = _stacked_P(c, s)
    bound = forward._row_sum_bound(grid, diag, off)
    if dt > bound:
        raise StabilityError(dt, bound)
    lap = _flat(laplacian(grid, phi, bc), grid.dim)
    pt_lap = _apply(diag, off[..., ::-1, :], lap)
    qt, src = _zeroth_order(c, s, x, rhs)
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
    levels), truncated by :func:`theta_eps`; the states of a block of steps
    are built together.  Records the three
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
    h, dim, vol = grid.h, grid.dim, grid.cell_volume
    block = max(1, _BLOCK_CELLS // grid.node_count)

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
    for top in range(steps, 0, -block):
        bottom = max(top - block, 0)
        coef = theta_eps(eps, traj.levels[below[bottom:top]])
        levels = forward._march(
            lambda phi, k: step_adjoint_backward(c, grid, phi, coef[k - bottom], bc, dt, rhs),
            grid, phi, top, bottom, dt)
        new = levels[:-1]
        energy[bottom:top] = [hu ** 2 + hv ** 2 for hu, hv in h1_norms(grid, new, bc).tolist()]
        lap_sq = _lap_stencil(_extend(new, bc, dim), h, dim) ** 2
        w = (1.0 + coef[:, 0] + coef[:, 1]) * (lap_sq[:, 0] + lap_sq[:, 1])
        weighted[bottom:top] = vol * _grid_sums(w, dim)
        r = _grid_sums(np.abs((levels[1:] - new) / dt) ** (4.0 / 3.0), dim)
        rate[bottom:top] = dt * vol * (r[:, 0] + r[:, 1])
        forward._keep(stored, kept, levels, bottom)
        phi = new[0]

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


@dataclass(frozen=True)
class EpsCauchyRow:
    eps_coarse: float
    eps_fine: float
    diff_sup_h1: float
    diff_lap_l2: float
    truncation_inactive: bool


def eps_cauchy_study(c: Coefficients, bc: BoundaryCondition, traj: Trajectory,
                     eps_list: list[float], rhs: AdjointRHSKind, chi: np.ndarray
                     ) -> tuple[list[EpsCauchyRow], list[AdjointBoundsReport]]:
    """Differences between adjoint solves on ``traj`` at consecutive
    truncation thresholds.

    Reports sup-in-time H1 and space-time L2-of-Laplacian distances; once
    both thresholds clear the coefficient data the clamp is the identity
    and the difference vanishes exactly.  Also returns the bounds report of
    each solve, in ``eps_list`` order, so callers need not march again.
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
        lap_sq = _grid_sums(_lap_stencil(_extend(diff[:-1], bc, dim), grid.h, dim) ** 2, dim)
        lap_l2 = math.sqrt(np.cumsum(dt * grid.cell_volume * (lap_sq[:, 0] + lap_sq[:, 1]))[-1])
        inactive = (1.0 / max(eps_a, eps_b)) >= u_max
        rows.append(EpsCauchyRow(eps_coarse=eps_a, eps_fine=eps_b, diff_sup_h1=sup_h1,
                                 diff_lap_l2=lap_l2, truncation_inactive=inactive))
    return rows, reports
