"""Backward-in-time adjoint solves with truncation regularization.

The adjoint system is marched in reversed time with the diffusion term
treated implicitly (nodewise transposed Jacobian frozen at the target
level) and the zeroth-order terms explicitly.  Coefficients come from the
average of two forward trajectories, clamped by the smooth truncation so
the frozen diffusion matrices stay bounded; the truncation threshold eps
is a runtime parameter, and sweeps over it quantify how little the
solution depends on it once the threshold clears the data.

Two discretizations are available: the default discretizes the continuous
adjoint PDE; the transpose mode applies the exact transpose of the
explicit linearized forward difference operator, which makes the discrete
duality pairing hold to machine precision and isolates discretization
error from the duality bookkeeping.

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
import scipy.sparse as sp

from sktsim import linalg
from sktsim.algebra import Coefficients, SpeciesPair, jac_P, jac_Q
from sktsim.forward import Trajectory
from sktsim.grid import (
    BoundaryCondition,
    FieldPair,
    Grid,
    NumericalFailure,
    block_pattern,
    component_h1,
    laplacian,
    laplacian_matrix,
)
from sktsim.linalg import krylov_solve

__all__ = [
    "ADJOINT_DIAGNOSTIC_COLUMNS",
    "AdjointBoundsReport",
    "AdjointMode",
    "AdjointRHSKind",
    "AdjointTrajectory",
    "EpsCauchyRow",
    "eps_cauchy_study",
    "run_adjoint",
    "step_adjoint_backward",
    "step_adjoint_transpose",
    "theta_eps",
    "theta_eps_derivative",
    "truncation_bound_check",
]


class AdjointRHSKind(enum.Enum):
    """Right-hand side of the backward system: the solution itself or its growth map."""

    IDENTITY = "identity"
    GROWTH = "l"


class AdjointMode(enum.Enum):
    CONTINUOUS = "continuous"
    TRANSPOSE = "transpose"


def theta_eps(eps: float, s):
    """Smooth clamp: identity below 1/eps, constant 1/eps above 2/eps.

    The blend on [1/eps, 2/eps] is the C1 cubic Hermite interpolant with
    endpoint values (1/eps, 1/eps) and endpoint slopes (1, 0); its
    derivative stays in [-1/3, 1].  Componentwise over SpeciesPair or
    FieldPair inputs, elementwise over arrays.
    """
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    if isinstance(s, FieldPair):
        return FieldPair(s.grid, theta_eps(eps, s.u), theta_eps(eps, s.v))
    if isinstance(s, SpeciesPair):
        return SpeciesPair(theta_eps(eps, s.u), theta_eps(eps, s.v))
    arr = np.asarray(s, dtype=float)
    a = 1.0 / eps
    t = np.clip(arr * eps - 1.0, 0.0, 1.0)
    blend = a * (1.0 + t * (1.0 - t) ** 2)
    out = np.where(arr <= a, arr, np.where(arr >= 2.0 * a, a, blend))
    return float(out) if np.ndim(s) == 0 else out


def theta_eps_derivative(eps: float, s):
    """Derivative of the clamp: 1 below, 0 above, (1-t)(1-3t) on the blend."""
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    arr = np.asarray(s, dtype=float)
    a = 1.0 / eps
    t = np.clip(arr * eps - 1.0, 0.0, 1.0)
    blend = (1.0 - t) * (1.0 - 3.0 * t)
    out = np.where(arr <= a, 1.0, np.where(arr >= 2.0 * a, 0.0, blend))
    return float(out) if np.ndim(s) == 0 else out


def _q_transpose_apply(c: Coefficients, state: FieldPair, phi: FieldPair) -> FieldPair:
    Q = jac_Q(c, SpeciesPair(state.u, state.v))
    return FieldPair(phi.grid, Q.m11 * phi.u + Q.m21 * phi.v,
                     Q.m12 * phi.u + Q.m22 * phi.v)


def _rhs_apply(c: Coefficients, kind: AdjointRHSKind, phi: FieldPair) -> FieldPair:
    if kind is AdjointRHSKind.IDENTITY:
        return phi
    return FieldPair(phi.grid, c.a1 * phi.u, c.a2 * phi.v)


def _adjoint_blocks(P: np.ndarray, lap: sp.csr_matrix, dt: float):
    """(lower, diag, upper) blocks of I - dt P^T Lap in 1D; see
    :func:`~sktsim.linalg.solve_block_tridiagonal`.

    Block (r, c) of P^T Lap is diag(P[c, r]) Lap; ``P`` is (2, 2, n).
    """
    Pt = P.transpose(1, 0, 2)
    diag = -dt * Pt * lap.diagonal()
    diag[[0, 1], [0, 1]] += 1.0
    return -dt * Pt[..., 1:] * lap.diagonal(-1), diag, -dt * Pt[..., :-1] * lap.diagonal(1)


def step_adjoint_backward(c: Coefficients, phi: FieldPair, u_tilde_eps: FieldPair,
                          bc: BoundaryCondition, dt: float,
                          rhs: AdjointRHSKind) -> FieldPair:
    """One semi-implicit backward step (reversed time marches forward).

    Solves (I - dt P(u~)^T Lap) phi_new = phi + dt (-Q(u~)^T phi + rhs(phi))
    with the nodewise transposed Jacobian frozen at the supplied truncated
    state: a banded direct solve in 1D, scipy BiCGStab in 2D, accepted in
    both only at true relative residual <= 1e-10 (else
    :class:`~sktsim.linalg.LinearSolveError`).
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if np.any(u_tilde_eps.u < 0.0) or np.any(u_tilde_eps.v < 0.0):
        raise ValueError("truncated coefficient state must be nonnegative")
    grid = phi.grid
    P = np.reshape(jac_P(c, SpeciesPair(u_tilde_eps.u, u_tilde_eps.v)), (2, 2, -1))
    qt = _q_transpose_apply(c, u_tilde_eps, phi)
    src = _rhs_apply(c, rhs, phi)
    bu = phi.u + dt * (src.u - qt.u)
    bv = phi.v + dt * (src.v - qt.v)
    if grid.dim == 1:
        blocks = _adjoint_blocks(P, laplacian_matrix(grid, bc), dt)
        u, v = linalg.solve_block_tridiagonal(*blocks, np.array([bu, bv]))
        return FieldPair(grid, u, v)
    pattern = block_pattern(grid, bc)
    data = -dt * P.transpose(1, 0, 2).ravel()[pattern.row] * pattern.lap
    data[pattern.ident] += 1.0
    b = np.concatenate([bu.ravel(), bv.ravel()])
    x0 = np.concatenate([phi.u.ravel(), phi.v.ravel()])
    x = krylov_solve(pattern.matrix(data), b, x0)
    ncell = grid.node_count
    return FieldPair(grid, x[:ncell].reshape(grid.shape), x[ncell:].reshape(grid.shape))


def step_adjoint_transpose(c: Coefficients, phi: FieldPair, u_tilde_eps: FieldPair,
                           bc: BoundaryCondition, dt: float,
                           rhs: AdjointRHSKind) -> FieldPair:
    """One explicit backward step, the exact transpose of the linearized
    explicit forward difference update (diffusion, reaction, and source all
    taken at the known level)."""
    lap_phi = laplacian(phi, bc)
    P = jac_P(c, SpeciesPair(u_tilde_eps.u, u_tilde_eps.v))
    pt_lap = FieldPair(phi.grid, P.m11 * lap_phi.u + P.m21 * lap_phi.v,
                       P.m12 * lap_phi.u + P.m22 * lap_phi.v)
    qt = _q_transpose_apply(c, u_tilde_eps, phi)
    src = _rhs_apply(c, rhs, phi)
    return FieldPair(phi.grid,
                     phi.u + dt * (pt_lap.u - qt.u + src.u),
                     phi.v + dt * (pt_lap.v - qt.v + src.v))


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
    mode: str


@dataclass
class AdjointTrajectory:
    """Backward solution levels (ascending time order) and per-level diagnostics."""

    dt: float
    horizon: float
    stored_steps: list[int]
    snapshots: list[FieldPair]
    diagnostics: dict[str, np.ndarray]

    @property
    def grid(self) -> Grid:
        return self.snapshots[0].grid

    def initial_state(self) -> FieldPair:
        """phi at t = 0, the end of the backward march."""
        return self.snapshots[0]

    def snapshot_at_step(self, step: int) -> FieldPair:
        return self.snapshots[self.stored_steps.index(step)]


def _pair_h1_sq(f: FieldPair, bc: BoundaryCondition) -> float:
    return component_h1(f.u, f.grid, bc) ** 2 + component_h1(f.v, f.grid, bc) ** 2


def _weighted_lap(f: FieldPair, weight_state: FieldPair, bc: BoundaryCondition) -> float:
    lap = laplacian(f, bc)
    w = 1.0 + weight_state.u + weight_state.v
    return f.grid.cell_volume * float(np.sum(w * (lap.u ** 2 + lap.v ** 2)))


@np.errstate(over="ignore", invalid="ignore")
def run_adjoint(c: Coefficients, bc: BoundaryCondition,
                u_pair: tuple[Trajectory, Trajectory], eps: float,
                rhs: AdjointRHSKind, chi: FieldPair,
                horizon: float | None = None,
                mode: AdjointMode = AdjointMode.CONTINUOUS,
                stride: int = 1) -> tuple[AdjointTrajectory, AdjointBoundsReport]:
    """March the adjoint backward from phi(horizon) = chi.

    The coefficient state is the average of the two forward trajectories
    (piecewise constant between stored levels), truncated at threshold
    ``eps``.  Records the three estimate functionals, their ratios against
    ||chi||_H1, and the energy-inequality tracker.  A blow-up raises
    :class:`NumericalFailure` carrying the step index and time of the level
    being computed.
    """
    traj1, traj2 = u_pair
    if traj1.grid != traj2.grid:
        raise ValueError("forward trajectories live on different grids")
    if traj1.time_grid != traj2.time_grid:
        raise ValueError("forward trajectories have different time grids")
    if chi.grid != traj1.grid:
        raise ValueError("terminal data grid does not match the trajectories")
    dt = traj1.time_grid.dt
    T = traj1.time_grid.t_final
    tau = T if horizon is None else horizon
    if not 0.0 < tau <= T * (1 + 1e-12):
        raise ValueError(f"horizon {tau} outside (0, {T}]")
    steps = max(1, int(round(tau / dt)))
    stride = max(int(stride), 1)

    def coeff_state(t: float) -> FieldPair:
        avg = 0.5 * (traj1.snapshot_at(t) + traj2.snapshot_at(t))
        return theta_eps(eps, avg)

    phi = chi.copy()
    chi_h1 = math.sqrt(_pair_h1_sq(chi, bc))
    energy = [_pair_h1_sq(phi, bc)]          # E_n indexed from tau downward
    weighted = []                            # alpha-weighted Laplacian budget per step
    kappas = []
    dt43_sum = 0.0
    alpha_eff = min(c.alpha, 0.5 * c.d0)

    rows = [{"step": float(steps), "t": steps * dt, "h1_phi": math.sqrt(energy[0]),
             "weighted_lap_partial": 0.0, "dt_l43_partial": 0.0}]
    stored = [(steps, phi.copy())]
    wlap_sum = 0.0

    for m in range(steps, 0, -1):
        t_target = (m - 1) * dt
        state = coeff_state(t_target)
        try:
            if mode is AdjointMode.CONTINUOUS:
                new_phi = step_adjoint_backward(c, phi, state, bc, dt, rhs)
            else:
                new_phi = step_adjoint_transpose(c, phi, state, bc, dt, rhs)
        except NumericalFailure as exc:
            exc.step, exc.t = m - 1, t_target
            raise

        e_new = _pair_h1_sq(new_phi, bc)
        w_new = _weighted_lap(new_phi, state, bc)
        e_old = energy[-1]
        if e_old > 0.0:
            kappas.append(max(0.0, (-(e_old - e_new) / dt + alpha_eff * w_new) / e_old))
        else:
            kappas.append(0.0)
        energy.append(e_new)
        weighted.append(w_new)
        wlap_sum += dt * w_new

        diff_u = (phi.u - new_phi.u) / dt
        diff_v = (phi.v - new_phi.v) / dt
        dt43_sum += dt * new_phi.grid.cell_volume * float(
            np.sum(np.abs(diff_u) ** (4.0 / 3.0)) + np.sum(np.abs(diff_v) ** (4.0 / 3.0)))

        phi = new_phi
        rows.append({"step": float(m - 1), "t": t_target,
                     "h1_phi": math.sqrt(e_new),
                     "weighted_lap_partial": wlap_sum,
                     "dt_l43_partial": dt43_sum ** 0.75})
        if (m - 1) % stride == 0 or m - 1 == 0:
            stored.append((m - 1, phi.copy()))

    sup_h1 = math.sqrt(max(energy))
    weighted_lap = dt * float(np.sum(weighted))
    dt_l43 = dt43_sum ** 0.75

    kappa_run = max(kappas) if kappas else 0.0
    slack = -math.inf
    e_terminal = energy[0]
    for idx, e_val in enumerate(energy):
        bound = math.exp(kappa_run * idx * dt) * e_terminal
        if bound > 0.0:
            slack = max(slack, e_val / bound - 1.0)
        elif e_val > 0.0:
            slack = max(slack, math.inf)
    # exp(2t)-weighted telescoped budget for the weighted-Laplacian term
    weighted_e2t = dt * alpha_eff * sum(
        w * math.exp(2.0 * (steps - 1 - i) * dt) for i, w in enumerate(weighted))
    budget = (1.0 + kappa_run * (tau + dt)) * math.exp((kappa_run + 2.0) * tau) * e_terminal
    if budget > 0.0:
        slack = max(slack, weighted_e2t / budget - 1.0)
    elif weighted_e2t > 0.0:
        slack = max(slack, math.inf)
    if slack == -math.inf:
        slack = 0.0

    def ratio(x: float) -> float:
        return x / chi_h1 if chi_h1 > 0.0 else 0.0

    report = AdjointBoundsReport(
        sup_h1=sup_h1, weighted_lap=weighted_lap, dt_l43=dt_l43, chi_h1=chi_h1,
        kappa_sup=ratio(sup_h1), kappa_weighted_lap=ratio(weighted_lap),
        kappa_dt=ratio(dt_l43), gronwall_kappa=kappa_run, gronwall_slack=slack,
        eps=eps, rhs=rhs.value, mode=mode.value)

    stored.reverse()
    rows.reverse()
    diagnostics = {key: np.array([row[key] for row in rows])
                   for key in ADJOINT_DIAGNOSTIC_COLUMNS}
    trajectory = AdjointTrajectory(dt=dt, horizon=tau,
                                   stored_steps=[s for s, _ in stored],
                                   snapshots=[f for _, f in stored],
                                   diagnostics=diagnostics)
    return trajectory, report


def truncation_bound_check(u_tilde: FieldPair, eps: float,
                           bc: BoundaryCondition = BoundaryCondition.NEUMANN) -> tuple[float, float]:
    """(H1 norm of the truncated field, H1 norm of the field itself).

    The clamp contracts both values and differences on nonnegative data, so
    the first entry stays within a unit factor of the second; callers
    assert first <= 1.05 * second to absorb discrete corner effects.
    """
    truncated = theta_eps(eps, u_tilde)
    return (math.sqrt(_pair_h1_sq(truncated, bc)), math.sqrt(_pair_h1_sq(u_tilde, bc)))


@dataclass(frozen=True)
class EpsCauchyRow:
    eps_coarse: float
    eps_fine: float
    diff_sup_h1: float
    diff_lap_l2: float
    truncation_inactive: bool


def eps_cauchy_study(c: Coefficients, bc: BoundaryCondition,
                     u_pair: tuple[Trajectory, Trajectory],
                     eps_list: list[float], rhs: AdjointRHSKind, chi: FieldPair,
                     horizon: float | None = None
                     ) -> tuple[list[EpsCauchyRow], list[AdjointBoundsReport]]:
    """Differences between adjoint solves at consecutive truncation thresholds.

    Reports sup-in-time H1 and space-time L2-of-Laplacian distances; once
    both thresholds clear the coefficient data the clamp is the identity
    and the difference vanishes exactly.  Also returns the bounds report of
    each solve, in ``eps_list`` order, so callers need not march again.
    """
    runs = []
    reports = []
    u_max = 0.0
    for s1, s2 in zip(u_pair[0].snapshots, u_pair[1].snapshots):
        avg = 0.5 * (s1 + s2)
        u_max = max(u_max, float(np.max(avg.u)), float(np.max(avg.v)))

    for eps in eps_list:
        traj, report = run_adjoint(c, bc, u_pair, eps, rhs, chi, horizon=horizon, stride=1)
        runs.append((eps, traj))
        reports.append(report)

    rows = []
    for (eps_a, run_a), (eps_b, run_b) in zip(runs, runs[1:]):
        sup_h1 = 0.0
        lap_sq = 0.0
        dt = run_a.dt
        for step, fa in zip(run_a.stored_steps, run_a.snapshots):
            fb = run_b.snapshot_at_step(step)
            diff = fa - fb
            sup_h1 = max(sup_h1, math.sqrt(_pair_h1_sq(diff, bc)))
            if step != run_a.stored_steps[-1]:
                lap = laplacian(diff, bc)
                lap_sq += dt * diff.grid.cell_volume * float(
                    np.sum(lap.u ** 2) + np.sum(lap.v ** 2))
        inactive = (1.0 / max(eps_a, eps_b)) >= u_max
        rows.append(EpsCauchyRow(eps_coarse=eps_a, eps_fine=eps_b,
                                 diff_sup_h1=sup_h1,
                                 diff_lap_l2=math.sqrt(lap_sq),
                                 truncation_inactive=inactive))
    return rows, reports
