import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sktsim.adjoint
import sktsim.campaigns
from sktsim.adjoint import (
    AdjointMode,
    AdjointRHSKind,
    eps_cauchy_study,
    run_adjoint,
    step_adjoint_backward,
    theta_eps,
    theta_eps_derivative,
    truncation_bound_check,
)
from sktsim.algebra import CFG_A, Coefficients, SpeciesPair
from sktsim.campaigns import run_campaign
from sktsim.config import parse_config
from sktsim.forward import ForwardProblem, SchemeKind, TimeGrid, run_forward
from sktsim.grid import BoundaryCondition, FieldPair, Grid, NumericalFailure
from sktsim.mms import bump_profile, heat_limit_coefficients

NEU = BoundaryCondition.NEUMANN


def test_theta_eps_worked_values():
    assert theta_eps(0.1, 5.0) == 5.0          # identity branch
    assert theta_eps(0.1, 25.0) == 10.0        # clamp branch
    assert theta_eps(0.1, 15.0) == pytest.approx(11.25, abs=1e-14)  # Hermite midpoint
    with pytest.raises(ValueError):
        theta_eps(0.0, 1.0)
    with pytest.raises(ValueError):
        theta_eps(-1.0, 1.0)


def test_theta_eps_c1_at_knots():
    eps = 0.25
    a, b = 1.0 / eps, 2.0 / eps
    delta = 1e-9
    for knot in (a, b):
        left = theta_eps(eps, knot - delta)
        right = theta_eps(eps, knot + delta)
        assert abs(left - right) <= 1e-7  # value continuity
    assert abs(theta_eps_derivative(eps, a - 1e-12) - 1.0) <= 1e-12
    assert abs(theta_eps_derivative(eps, a) - 1.0) <= 1e-12
    assert abs(theta_eps_derivative(eps, b)) <= 1e-12
    assert abs(theta_eps_derivative(eps, b + 1e-12)) <= 1e-12


@settings(max_examples=300)
@given(st.floats(min_value=1e-3, max_value=10.0),
       st.floats(min_value=-5.0, max_value=1e4))
def test_theta_eps_properties(eps, value):
    out = theta_eps(eps, value)
    deriv = theta_eps_derivative(eps, value)
    assert -1.0 / 3.0 - 1e-12 <= deriv <= 1.0 + 1e-12
    if value <= 1.0 / eps:
        assert out == value  # fixed point below the threshold
    else:
        assert out <= value
    assert out <= (1.0 + 4.0 / 27.0) / eps + 1e-12


def test_theta_eps_on_pairs_and_fields():
    s = theta_eps(0.1, SpeciesPair(5.0, 25.0))
    assert s == (5.0, 10.0)
    grid = Grid(1, 1.0, 8)
    f = FieldPair(grid, np.full(grid.shape, 25.0), np.full(grid.shape, 5.0))
    out = theta_eps(0.1, f)
    assert np.all(out.u == 10.0) and np.all(out.v == 5.0)


def zero_trajectory(n=16, T=0.5, dt=0.0125):
    grid = Grid(1, 1.0, n)
    problem = ForwardProblem(heat_limit_coefficients(), grid, NEU, TimeGrid(T, dt),
                             SchemeKind.IMEX_LAGGED, FieldPair.zeros(grid))
    return run_forward(problem)


@pytest.mark.parametrize("mode", [AdjointMode.CONTINUOUS, AdjointMode.TRANSPOSE])
def test_frozen_exponential_oracle(mode):
    # With zero coefficient data the system is a pure ODE: phi(0) = c e^T.
    T, dt, c_val = 0.5, 0.0125, 2.0
    traj = zero_trajectory(T=T, dt=dt)
    chi = FieldPair.constant(traj.grid, c_val, c_val)
    phi_traj, report = run_adjoint(heat_limit_coefficients(), NEU, (traj, traj),
                                   eps=1.0, rhs=AdjointRHSKind.IDENTITY, chi=chi,
                                   mode=mode)
    target = c_val * math.exp(T)
    err = np.max(np.abs(phi_traj.initial_state().u - target))
    assert err <= 3.0 * dt * math.exp(T)
    assert report.kappa_sup == pytest.approx(math.exp(T), rel=5 * dt)


def test_growth_rhs_with_unit_rates_matches_identity_rhs():
    traj = zero_trajectory()
    chi = FieldPair.constant(traj.grid, 1.0, 1.0)
    runs = []
    for rhs in (AdjointRHSKind.IDENTITY, AdjointRHSKind.GROWTH):
        phi_traj, _ = run_adjoint(CFG_A, NEU, (traj, traj), eps=1.0, rhs=rhs, chi=chi)
        runs.append(phi_traj.initial_state())
    assert np.array_equal(runs[0].u, runs[1].u)
    assert np.array_equal(runs[0].v, runs[1].v)


def test_zero_terminal_data_gives_zero_adjoint():
    traj = zero_trajectory()
    phi_traj, report = run_adjoint(CFG_A, NEU, (traj, traj), eps=0.5,
                                   rhs=AdjointRHSKind.IDENTITY,
                                   chi=FieldPair.zeros(traj.grid))
    assert all(np.all(s.u == 0.0) and np.all(s.v == 0.0) for s in phi_traj.snapshots)
    assert report.sup_h1 == report.weighted_lap == report.dt_l43 == 0.0
    assert report.kappa_sup == 0.0


def test_step_adjoint_backward_validates_inputs():
    grid = Grid(1, 1.0, 8)
    phi = FieldPair.constant(grid, 1.0, 1.0)
    bad_state = FieldPair(grid, -np.ones(grid.shape), np.zeros(grid.shape))
    with pytest.raises(ValueError):
        step_adjoint_backward(CFG_A, phi, bad_state, NEU, 0.01, AdjointRHSKind.IDENTITY)
    with pytest.raises(ValueError):
        step_adjoint_backward(CFG_A, phi, FieldPair.zeros(grid), NEU, -0.01,
                              AdjointRHSKind.IDENTITY)


def forward_desk_pair(n=32, T=0.25, dt=1e-3, amplitude=2.0):
    grid = Grid(1, 1.0, n)
    initial = FieldPair(grid,
                        bump_profile(grid, 0.5, 0.3, amplitude) + 0.1,
                        bump_profile(grid, 0.35, 0.25, 0.6 * amplitude) + 0.1)
    problem = ForwardProblem(CFG_A, grid, NEU, TimeGrid(T, dt),
                             SchemeKind.IMEX_LAGGED, initial)
    traj = run_forward(problem)
    return traj, traj


def unit_h1_cosine(grid):
    from sktsim.grid import norms
    x = grid.centers()
    chi = FieldPair(grid, np.cos(np.pi * x / grid.length),
                    np.cos(2 * np.pi * x / grid.length))
    return (1.0 / norms(chi, NEU).h1) * chi


def test_kappa_ratios_stable_across_eps():
    u_pair = forward_desk_pair()
    chi = unit_h1_cosine(u_pair[0].grid)
    kappas = {"sup": [], "wlap": [], "dt": []}
    for eps in (1.0, 0.5, 0.25, 0.125):
        _, report = run_adjoint(CFG_A, NEU, u_pair, eps, AdjointRHSKind.IDENTITY, chi)
        kappas["sup"].append(report.kappa_sup)
        kappas["wlap"].append(report.kappa_weighted_lap)
        kappas["dt"].append(report.kappa_dt)
    for seq in kappas.values():
        assert max(seq) / min(seq) < 1.10  # constants do not drift with eps


def test_gronwall_telescoped_consequences_hold():
    u_pair = forward_desk_pair()
    chi = unit_h1_cosine(u_pair[0].grid)
    _, report = run_adjoint(CFG_A, NEU, u_pair, 0.5, AdjointRHSKind.IDENTITY, chi)
    assert report.gronwall_kappa >= 0.0
    assert report.gronwall_slack <= 1e-8


def test_truncation_bound_check_cases():
    grid = Grid(1, 1.0, 64)
    eps = 0.5
    below = FieldPair.constant(grid, 1.0, 0.5)  # entirely under 1/eps = 2
    t_norm, f_norm = truncation_bound_check(below, eps)
    assert t_norm == pytest.approx(f_norm, rel=1e-14)

    above = FieldPair.constant(grid, 3.0 / eps, 3.0 / eps)
    t_norm, f_norm = truncation_bound_check(above, eps)
    assert t_norm == pytest.approx(math.sqrt(2.0) / eps, rel=1e-12)
    assert t_norm < f_norm

    rng = np.random.default_rng(3)
    x = grid.centers()
    smooth = FieldPair(grid,
                       2.0 + 1.5 * np.sin(2 * np.pi * x) + rng.uniform(0, 0.1, grid.shape),
                       1.0 + np.cos(np.pi * x) ** 2)
    for eps in (2.0, 1.0, 0.5, 0.25):
        t_norm, f_norm = truncation_bound_check(smooth, eps)
        assert t_norm <= 1.05 * f_norm


def test_eps_cauchy_zero_differences_once_threshold_clears_data():
    u_pair = forward_desk_pair(amplitude=2.0)
    chi = unit_h1_cosine(u_pair[0].grid)
    rows, _ = eps_cauchy_study(CFG_A, NEU, u_pair, [1.0, 0.5, 0.25, 0.125],
                               AdjointRHSKind.IDENTITY, chi)
    assert len(rows) == 3
    saw_inactive = False
    for row in rows:
        if row.truncation_inactive:
            saw_inactive = True
            assert row.diff_sup_h1 == 0.0
            assert row.diff_lap_l2 == 0.0
    assert saw_inactive
    # active rows actually differ
    assert rows[0].diff_sup_h1 > 0.0


def test_eps_cauchy_campaign_marches_each_adjoint_once(tmp_path, monkeypatch):
    # One march for the exponential oracle, one per eps for the sweep; the
    # kappa sweep reuses the eps-cauchy study's reports instead of re-marching.
    calls = []
    original = sktsim.adjoint.run_adjoint

    def counting(*args, **kwargs):
        calls.append(args[3])  # eps
        return original(*args, **kwargs)

    monkeypatch.setattr(sktsim.adjoint, "run_adjoint", counting)
    monkeypatch.setattr(sktsim.campaigns, "run_adjoint", counting)
    cfg = parse_config(Path(__file__).resolve().parent.parent / "configs" / "cfg_a_1d.cfg")
    results = run_campaign("eps-cauchy", cfg, tmp_path)
    assert all(r.passed for r in results), [r.line() for r in results if not r.passed]
    assert calls == [1.0, 1.0, 0.5, 0.25, 0.125]


@pytest.mark.parametrize("mode", [AdjointMode.CONTINUOUS, AdjointMode.TRANSPOSE])
def test_adjoint_blowup_raises_numerical_failure_with_step(mode):
    # Growth rate 1e200 takes phi from 1e-60 to 1e138 on the first backward
    # step and past the float range on the second.
    grid = Grid(1, 1.0, 8)
    problem = ForwardProblem(heat_limit_coefficients(), grid, NEU, TimeGrid(0.1, 0.01),
                             SchemeKind.IMEX_LAGGED, FieldPair.zeros(grid))
    traj = run_forward(problem)
    growth = Coefficients(0, 0, 0, 0, a1=1e200, a2=1e200, d1=1.0, d2=1.0)
    with pytest.raises(NumericalFailure) as err:
        run_adjoint(growth, NEU, (traj, traj), 1.0, AdjointRHSKind.GROWTH,
                    FieldPair.constant(grid, 1e-60, 1e-60), mode=mode)
    assert err.value.step == 8
    assert err.value.t == pytest.approx(0.08)
    assert str(err.value).startswith("step 8 (t=0.08): ")


def test_run_adjoint_horizon_shorter_than_final_time():
    u_pair = forward_desk_pair(T=0.25, dt=1e-3)
    chi = unit_h1_cosine(u_pair[0].grid)
    traj, report = run_adjoint(CFG_A, NEU, u_pair, 0.5, AdjointRHSKind.GROWTH, chi,
                               horizon=0.125)
    assert traj.horizon == 0.125
    assert traj.stored_steps[0] == 0 and traj.stored_steps[-1] == 125
    assert report.kappa_sup > 0.0 and math.isfinite(report.kappa_weighted_lap)
    assert report.rhs == "l"
    assert report.gronwall_slack <= 1e-8


def test_run_adjoint_rejects_mismatched_grids():
    traj = zero_trajectory(n=16)
    other = zero_trajectory(n=24)
    chi = FieldPair.zeros(traj.grid)
    with pytest.raises(ValueError):
        run_adjoint(CFG_A, NEU, (traj, other), 0.5, AdjointRHSKind.IDENTITY, chi)
