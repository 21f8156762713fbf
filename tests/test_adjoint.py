import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import NEU, component_h1, constant_pair, frozen_alone, pair_h1

import sktsim.adjoint
import sktsim.campaigns
from sktsim.adjoint import (
    ADJOINT_DIAGNOSTIC_COLUMNS,
    AdjointBoundsReport,
    AdjointRHSKind,
    eps_cauchy_study,
    run_adjoint,
    step_adjoint_backward,
    step_adjoint_transpose,
    theta_eps,
)
from sktsim.algebra import CFG_A, Coefficients
from sktsim.campaigns import run_campaign
from sktsim.config import parse_config, parse_config_text
from sktsim.forward import (
    _BLOCK_CELLS,
    ForwardProblem,
    SchemeKind,
    StabilityError,
    TimeGrid,
    Trajectory,
    _march,
    run_forward,
)
from sktsim.grid import (
    BoundaryCondition,
    FieldPair,
    Grid,
    NumericalFailure,
    laplacian,
)
from sktsim.mms import bump_profile, heat_limit_coefficients, polynomial_neumann_solution


def theta_slope(eps, s, delta):
    """Difference quotient of theta_eps over [s, s + delta]: by the mean value
    theorem, its slope at some point of that interval, up to rounding."""
    s1 = s + delta
    return (theta_eps(eps, s1) - theta_eps(eps, s)) / (s1 - s)


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
    # Slope continuity: the quotients on either side of a knot approach its
    # slope (1 at 1/eps, 0 at 2/eps).  On the blend |theta''| <= 4 eps, so a
    # quotient over a step h misses the knot's slope by at most 4 eps h, plus
    # the rounding of two evaluations of size <= b over h.
    h = 2.0 ** -20
    tol = 4.0 * eps * h + 4.0 * np.spacing(b) / h
    for knot, slope in ((a, 1.0), (b, 0.0)):
        assert abs(theta_slope(eps, knot - h, h) - slope) <= tol
        assert abs(theta_slope(eps, knot, h) - slope) <= tol


@settings(max_examples=300)
@given(st.floats(min_value=1e-3, max_value=10.0),
       st.floats(min_value=-5.0, max_value=1e4))
def test_theta_eps_properties(eps, value):
    out = theta_eps(eps, value)
    # The documented slope range [-1/3, 1]; the step keeps rounding < 1e-12.
    slope = theta_slope(eps, value, max(1.0, abs(value)) / 64.0)
    assert -1.0 / 3.0 - 1e-12 <= slope <= 1.0 + 1e-12
    if value <= 1.0 / eps:
        assert out == value  # fixed point below the threshold
    else:
        assert out <= value
    assert out <= (1.0 + 4.0 / 27.0) / eps + 1e-12


def averaged_state(u_pair, eps, step):
    """The average of the two trajectories at their last stored levels at or
    before ``step``, truncated at ``eps``."""
    s1, s2 = (traj.levels[np.searchsorted(traj.stored_steps, step, side="right") - 1]
              for traj in u_pair)
    return theta_eps(eps, 0.5 * (s1 + s2))


def transpose_march(c, bc, u_pair, eps, rhs, chi):
    """The transpose adjoint as the uniqueness campaign marches it:
    step_adjoint_transpose through forward._march from phi(T) = chi, on the
    averaged state of the pair; the levels in ascending time."""
    grid, tg = u_pair[0].grid, u_pair[0].time_grid
    return _march(lambda phi, k: step_adjoint_transpose(
        c, grid, phi, frozen_alone(c, grid, averaged_state(u_pair, eps, k)), bc, tg.dt, rhs),
        grid, chi, tg.steps, 0, tg.dt)


def zero_trajectory(n=16, T=0.5, dt=0.0125):
    grid = Grid(1, 1.0, n)
    problem = ForwardProblem(heat_limit_coefficients(), grid, NEU, TimeGrid(T, dt),
                             SchemeKind.IMEX_LAGGED, np.zeros((2, *grid.shape)))
    return run_forward(problem)


@pytest.mark.parametrize("march", ["continuous", "transpose"])
def test_frozen_exponential_oracle(march):
    # With zero coefficient data the system is a pure ODE: phi(0) = c e^T.
    T, dt, c_val = 0.5, 0.0125, 2.0

    def run(dt):
        """The adjoint levels and kappa_sup = sup_t ||phi||_H1 / ||chi||_H1."""
        traj = zero_trajectory(T=T, dt=dt)
        chi = constant_pair(traj.grid, c_val, c_val)
        if march == "continuous":
            phi_traj, report = run_adjoint(heat_limit_coefficients(), NEU, traj,
                                           eps=1.0, rhs=AdjointRHSKind.IDENTITY, chi=chi)
            return phi_traj.levels, report.kappa_sup
        levels = transpose_march(heat_limit_coefficients(), NEU, (traj, traj), 1.0,
                                 AdjointRHSKind.IDENTITY, chi)
        sup = max(pair_h1(traj.grid, level, NEU) for level in levels)
        return levels, sup / pair_h1(traj.grid, chi, NEU)

    if march == "transpose":
        # The explicit transpose step's bound is h^2 / 2 = 1/512 at n = 16:
        # dt = 0.0125 exceeds it 6.4-fold, whatever the terminal data.
        with pytest.raises(StabilityError):
            run(dt)
        dt = 0.00125
    levels, kappa_sup = run(dt)
    target = c_val * math.exp(T)
    err = np.max(np.abs(levels[0, 0] - target))
    assert err <= 3.0 * dt * math.exp(T)
    assert kappa_sup == pytest.approx(math.exp(T), rel=5 * dt)


def test_growth_rhs_with_unit_rates_matches_identity_rhs():
    traj = zero_trajectory()
    chi = constant_pair(traj.grid, 1.0, 1.0)
    runs = []
    for rhs in (AdjointRHSKind.IDENTITY, AdjointRHSKind.GROWTH):
        phi_traj, _ = run_adjoint(CFG_A, NEU, traj, eps=1.0, rhs=rhs, chi=chi)
        runs.append(phi_traj.levels[0])
    assert np.array_equal(runs[0][0], runs[1][0])
    assert np.array_equal(runs[0][1], runs[1][1])


def test_zero_terminal_data_gives_zero_adjoint():
    traj = zero_trajectory()
    phi_traj, report = run_adjoint(CFG_A, NEU, traj, eps=0.5,
                                   rhs=AdjointRHSKind.IDENTITY,
                                   chi=np.zeros((2, *traj.grid.shape)))
    assert np.all(phi_traj.levels == 0.0)
    assert report.sup_h1 == report.weighted_lap == report.dt_l43 == 0.0
    assert report.kappa_sup == 0.0
    assert report.gronwall_slack == 0.0


def test_step_adjoint_backward_validates_inputs():
    grid = Grid(1, 1.0, 8)
    phi = constant_pair(grid, 1.0, 1.0)
    bad_state = constant_pair(grid, -1.0, 0.0)
    with pytest.raises(NumericalFailure, match="negative density -1"):
        step_adjoint_backward(CFG_A, grid, phi, frozen_alone(CFG_A, grid, bad_state, NEU, 0.01),
                              0.01, AdjointRHSKind.IDENTITY)
    with pytest.raises(ValueError, match="dt must be positive"):
        frozen_alone(CFG_A, grid, np.zeros((2, *grid.shape)), NEU, -0.01)


@pytest.mark.parametrize("stride, bad, first_step", [(1, 472, 472), (10, 470, 479)])
def test_negative_frozen_state_fails_at_its_step_mid_block(stride, bad, first_step):
    # run_adjoint freezes the states of a block of steps together, but a
    # negative state fails at the first step that takes it (the march runs
    # downward; step k takes the stored level at or before k), with that
    # step's index and time, not when its block starts.
    grid = Grid(1, 1.0, 64)
    steps, dt = 600, 1e-4
    block = _BLOCK_CELLS // grid.node_count
    assert steps - block < first_step < steps - 1  # inside the first block marched
    stored = list(range(0, steps + 1, stride))
    levels = np.full((len(stored), 2, *grid.shape), 0.5)
    levels[stored.index(bad), 0, 7] = -0.25
    traj = Trajectory(grid, TimeGrid(steps * dt, dt), stored, levels, {})
    with pytest.raises(NumericalFailure, match="negative density -0.25") as err:
        run_adjoint(CFG_A, NEU, traj, 0.5, AdjointRHSKind.IDENTITY, unit_h1_cosine(grid))
    assert (err.value.step, err.value.t) == (first_step, first_step * dt)


def forward_desk_trajectory(n=32, T=0.25, dt=1e-3, amplitude=2.0):
    grid = Grid(1, 1.0, n)
    initial = np.stack((bump_profile(grid, 0.5, 0.3, amplitude) + 0.1,
                        bump_profile(grid, 0.35, 0.25, 0.6 * amplitude) + 0.1))
    problem = ForwardProblem(CFG_A, grid, NEU, TimeGrid(T, dt),
                             SchemeKind.IMEX_LAGGED, initial)
    return run_forward(problem)


def unit_h1_cosine(grid):
    x = grid.centers()
    chi = np.stack((np.cos(np.pi * x / grid.length), np.cos(2 * np.pi * x / grid.length)))
    return (1.0 / pair_h1(grid, chi, NEU)) * chi


def test_kappa_ratios_stable_across_eps():
    traj = forward_desk_trajectory()
    chi = unit_h1_cosine(traj.grid)
    kappas = {"sup": [], "wlap": [], "dt": []}
    for eps in (1.0, 0.5, 0.25, 0.125):
        _, report = run_adjoint(CFG_A, NEU, traj, eps, AdjointRHSKind.IDENTITY, chi)
        kappas["sup"].append(report.kappa_sup)
        kappas["wlap"].append(report.kappa_weighted_lap)
        kappas["dt"].append(report.kappa_dt)
    for seq in kappas.values():
        assert max(seq) / min(seq) < 1.10  # constants do not drift with eps


def test_gronwall_telescoped_consequences_hold():
    traj = forward_desk_trajectory()
    chi = unit_h1_cosine(traj.grid)
    _, report = run_adjoint(CFG_A, NEU, traj, 0.5, AdjointRHSKind.IDENTITY, chi)
    assert report.gronwall_kappa >= 0.0
    assert report.gronwall_slack <= 1e-8


def test_truncation_bound_check_cases():
    # The clamp contracts values and differences on nonnegative data, so the
    # H1 norm of the truncated field stays within a unit factor of the
    # field's own; 1.05 absorbs discrete corner effects.
    grid = Grid(1, 1.0, 64)

    def truncation_h1(f, eps):
        return pair_h1(grid, theta_eps(eps, f), NEU), pair_h1(grid, f, NEU)

    eps = 0.5
    below = np.stack((np.full(grid.shape, 1.0), np.full(grid.shape, 0.5)))  # under 1/eps = 2
    t_norm, f_norm = truncation_h1(below, eps)
    assert t_norm == pytest.approx(f_norm, rel=1e-14)

    above = np.full((2, *grid.shape), 3.0 / eps)
    t_norm, f_norm = truncation_h1(above, eps)
    assert t_norm == pytest.approx(math.sqrt(2.0) / eps, rel=1e-12)
    assert t_norm < f_norm

    rng = np.random.default_rng(3)
    x = grid.centers()
    smooth = np.stack((2.0 + 1.5 * np.sin(2 * np.pi * x) + rng.uniform(0, 0.1, grid.shape),
                       1.0 + np.cos(np.pi * x) ** 2))
    for eps in (2.0, 1.0, 0.5, 0.25):
        t_norm, f_norm = truncation_h1(smooth, eps)
        assert t_norm <= 1.05 * f_norm


def test_eps_cauchy_zero_differences_once_threshold_clears_data():
    traj = forward_desk_trajectory(amplitude=2.0)
    chi = unit_h1_cosine(traj.grid)
    table, _ = eps_cauchy_study(CFG_A, NEU, traj, [1.0, 0.5, 0.25, 0.125],
                                AdjointRHSKind.IDENTITY, chi)
    assert table["eps_coarse"].tolist() == [1.0, 0.5, 0.25]
    assert table["eps_fine"].tolist() == [0.5, 0.25, 0.125]
    inactive = table["truncation_inactive"] == 1.0
    assert set(table["truncation_inactive"].tolist()) <= {0.0, 1.0}
    assert np.any(inactive)
    assert np.all(table["diff_sup_h1"][inactive] == 0.0)
    assert np.all(table["diff_lap_l2"][inactive] == 0.0)
    # active rows actually differ
    assert table["diff_sup_h1"][0] > 0.0


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


@pytest.mark.parametrize("march", ["continuous", "transpose"])
def test_adjoint_blowup_raises_numerical_failure_with_step(march):
    # Growth rate 1e200 takes phi from 1e-60 to 1e138 on the first backward
    # step and past the float range on the second.
    grid = Grid(1, 1.0, 8)
    growth = Coefficients(0, 0, 0, 0, a1=1e200, a2=1e200, d1=1.0, d2=1.0)

    def failure(T, dt):
        problem = ForwardProblem(heat_limit_coefficients(), grid, NEU, TimeGrid(T, dt),
                                 SchemeKind.IMEX_LAGGED, np.zeros((2, *grid.shape)))
        traj = run_forward(problem)
        chi = constant_pair(grid, 1e-60, 1e-60)
        with pytest.raises(NumericalFailure) as err:
            if march == "continuous":
                run_adjoint(growth, NEU, traj, 1.0, AdjointRHSKind.GROWTH, chi)
            else:
                transpose_march(growth, NEU, (traj, traj), 1.0, AdjointRHSKind.GROWTH, chi)
        return err.value

    T, dt, prefix = 0.1, 0.01, "step 8 (t=0.08): "
    if march == "transpose":
        # dt = 0.01 exceeds the explicit transpose step's bound h^2 / 2 = 1/128,
        # so the first backward step refuses.
        exc = failure(T, dt)
        assert isinstance(exc, StabilityError)
        assert exc.step == 9
        T, dt, prefix = 0.05, 0.005, "step 8 (t=0.04): "
    exc = failure(T, dt)
    assert exc.step == 8
    assert exc.t == pytest.approx(8 * dt)
    assert str(exc).startswith(prefix)


def test_forward_undershoot_fails_the_adjoint_naming_the_step():
    # IMEX does not clip negative densities: with a12 = 10 two offset bumps
    # drive u below zero at level 1.  The backward step frozen at that level
    # reports the negative density as a numerical failure of its step.
    text = (Path(__file__).resolve().parent.parent / "configs" / "cfg_a_1d.cfg").read_text()
    for old, new in (("coeff.a12 = 1.0", "coeff.a12 = 10.0"),
                     ("time.t_final = 0.5", "time.t_final = 0.005"),
                     ("storage.stride = 10", "storage.stride = 1"),
                     ("init.u = bump 0.5 0.3 2.0", "init.u = bump 0.3 0.15 2.0"),
                     ("init.v = bump 0.35 0.25 1.2", "init.v = bump 0.6 0.2 3.0")):
        text = text.replace(old, new)
    cfg = parse_config_text(text)
    traj = run_forward(cfg.forward_problem())
    assert traj.levels[1].min() < 0.0 <= traj.levels[2:].min()
    with pytest.raises(NumericalFailure) as err:
        run_adjoint(cfg.coefficients, cfg.bc, traj, cfg.eps, cfg.rhs, cfg.terminal)
    assert err.value.step == 1
    assert str(err.value).startswith(
        "step 1 (t=0.001): truncated coefficient state has a negative density -0.0")


def test_transpose_adjoint_refuses_an_unstable_coefficient_state():
    # Strong growth drives the IMEX forward data up until the explicit bound
    # of the coefficient state averaged over two stored strides is 2.35 times
    # below dt.  The continuous adjoint is implicit and marches on either
    # trajectory; the transpose step must refuse with the bound and the step
    # instead of overflowing.
    bc = BoundaryCondition.DIRICHLET
    c = dataclasses.replace(CFG_A, a1=40.0, a2=40.0)
    grid = Grid(2, 1.0, 24)
    x, y = grid.meshgrid()
    bump = np.sin(np.pi * x) * np.sin(np.pi * y)
    u_pair = tuple(run_forward(ForwardProblem(c, grid, bc, TimeGrid(70e-4, 1e-4),
                                              SchemeKind.IMEX_LAGGED,
                                              np.stack((5.0 * bump + 0.5, 5.0 * bump + 0.5)),
                                              stride=stride))
                   for stride in (7, 11))
    chi = np.stack((bump, bump))
    for traj in u_pair:
        _, report = run_adjoint(c, bc, traj, 0.5, AdjointRHSKind.GROWTH, chi)
        assert report.gronwall_kappa == 0.0
    with pytest.raises(StabilityError) as err:
        transpose_march(c, bc, u_pair, 0.5, AdjointRHSKind.GROWTH, chi)
    assert 1e-4 / err.value.bound == pytest.approx(2.35, abs=0.01)
    assert str(err.value).startswith("step 69 (t=0.0069): ")


@pytest.mark.parametrize("batch", [1, 6])
@pytest.mark.parametrize("bc", [NEU, BoundaryCondition.DIRICHLET])
@pytest.mark.parametrize("rhs", list(AdjointRHSKind))
def test_transpose_state_frozen_in_a_stack_gives_the_state_frozen_alone(batch, bc, rhs):
    # A state frozen inside a stack of five gives the same level, bit for
    # bit, as the same state frozen alone.
    grid = Grid(1, 1.0, 16)
    rng = np.random.default_rng(batch)
    states = rng.uniform(0.1, 1.5, (5, 2, *grid.shape))
    phi = rng.standard_normal((batch, 2, *grid.shape))
    frozen = sktsim.adjoint._freeze_transpose(CFG_A, grid, states)
    dt = 0.5 * min(record.bound for record in frozen)
    for state, record in zip(states, frozen):
        alone = frozen_alone(CFG_A, grid, state)
        assert np.array_equal(step_adjoint_transpose(CFG_A, grid, phi, record, bc, dt, rhs),
                              step_adjoint_transpose(CFG_A, grid, phi, alone, bc, dt, rhs))


def test_frozen_transpose_march_refuses_a_state_past_its_bound_at_its_step():
    # The march freezes all its states before the first step; the state of
    # step 5 (0-based, of 12) is scaled past the bound and is refused only
    # when the march reaches it, with the bound and message of the state frozen
    # alone.
    grid, bc, dt, steps = Grid(1, 1.0, 16), NEU, 1e-4, 12
    states = np.stack([constant_pair(grid, 0.5, 0.4)] * steps)
    states[5] *= 40.0
    frozen = sktsim.adjoint._freeze_transpose(CFG_A, grid, states)
    assert frozen[4].bound > dt > frozen[5].bound
    with pytest.raises(StabilityError) as alone:
        step_adjoint_transpose(CFG_A, grid, constant_pair(grid, 1.0, 1.0),
                               frozen_alone(CFG_A, grid, states[5]), bc, dt,
                               AdjointRHSKind.IDENTITY)
    reached = []

    def step(phi, k):
        reached.append(k)
        return step_adjoint_transpose(CFG_A, grid, phi, frozen[k], bc, dt,
                                      AdjointRHSKind.IDENTITY)

    with pytest.raises(StabilityError) as err:
        _march(step, grid, constant_pair(grid, 1.0, 1.0), steps, 0, dt)
    assert reached == list(range(steps - 1, 4, -1))
    assert err.value.step == 5 and err.value.bound == alone.value.bound
    assert str(err.value) == f"step 5 (t={5 * dt:g}): {alone.value}"


def test_gronwall_slack_does_not_overflow_on_a_stable_march():
    # Growth rate 1000 over T = 0.5 gives kappa T > 709, past exp's range,
    # while phi itself grows from 1e-100 to about 1e117 and stays finite.
    c = dataclasses.replace(heat_limit_coefficients(), a1=1000.0, a2=1000.0)
    grid = Grid(1, 1.0, 16)
    traj = run_forward(ForwardProblem(c, grid, NEU, TimeGrid(0.5, 1e-3),
                                      SchemeKind.IMEX_LAGGED, np.zeros((2, *grid.shape))))
    _, report = run_adjoint(c, NEU, traj, 0.5, AdjointRHSKind.GROWTH,
                            constant_pair(grid, 1e-100, 1e-100))
    assert report.gronwall_kappa * 0.5 > 709.8
    assert 0.0 <= report.gronwall_slack <= 1e-8
    # A final time past 355 overflows the budget's e^{2t} weights alone.
    grid = Grid(1, 1.0, 8)
    traj = run_forward(ForwardProblem(CFG_A, grid, NEU, TimeGrid(400.0, 1.0),
                                      SchemeKind.IMEX_LAGGED, constant_pair(grid, 0.5, 0.5),
                                      stride=50))
    chi = np.stack((np.cos(np.pi * grid.centers()), np.zeros(grid.shape)))
    _, report = run_adjoint(CFG_A, NEU, traj, 0.5, AdjointRHSKind.IDENTITY, chi)
    assert report.weighted_lap > 0.0
    assert 0.0 <= report.gronwall_slack <= 1e-8


def test_run_adjoint_rejects_mismatched_grids():
    # Terminal data that are not one stacked pair on the trajectory's grid.
    traj = zero_trajectory(n=16)
    for shape in ((2, 24), (1, 2, 16), (16,)):
        with pytest.raises(ValueError, match="does not match the stacked grid shape"):
            run_adjoint(CFG_A, NEU, traj, 0.5, AdjointRHSKind.IDENTITY, np.zeros(shape))


def reference_adjoint(c, bc, traj, eps, rhs, chi, stride):
    """The adjoint march with its diagnostics computed one backward step at a
    time, in the arithmetic of the per-step implementation it replaced."""
    grid, vol = traj.grid, traj.grid.cell_volume
    dt, T, steps = traj.time_grid.dt, traj.time_grid.t_final, traj.time_grid.steps

    def pair_h1_sq(f):
        return component_h1(f[0], grid, bc) ** 2 + component_h1(f[1], grid, bc) ** 2

    def snapshot(t):
        """The last stored level with time <= t (piecewise constant in time)."""
        times = np.asarray(traj.stored_steps) * dt
        return traj.levels[np.searchsorted(times, t + 1e-12 * max(1.0, t), side="right") - 1]

    def weighted_lap(f, state):
        lap = laplacian(grid, f, bc)
        w = 1.0 + state[0] + state[1]
        return vol * float(np.sum(w * (lap[0] ** 2 + lap[1] ** 2)))

    phi = chi
    energy = [pair_h1_sq(phi)]
    weighted, kappas = [], []
    alpha_eff = min(c.alpha, 0.5 * c.d0)
    wlap_sum = dt43_sum = 0.0
    rows = {steps: [steps, steps * dt, math.sqrt(energy[0]), 0.0, 0.0]}
    stored = {steps: phi}
    for m in range(steps, 0, -1):
        t = (m - 1) * dt
        state = theta_eps(eps, snapshot(t))
        new = step_adjoint_backward(c, grid, phi, frozen_alone(c, grid, state, bc, dt), dt, rhs)
        e_new, w_new, e_old = pair_h1_sq(new), weighted_lap(new, state), energy[-1]
        kappas.append(max(0.0, (-(e_old - e_new) / dt + alpha_eff * w_new) / e_old)
                      if e_old > 0.0 else 0.0)
        energy.append(e_new)
        weighted.append(w_new)
        wlap_sum += dt * w_new
        dt43_sum += dt * vol * float(np.sum(np.abs((phi[0] - new[0]) / dt) ** (4.0 / 3.0))
                                     + np.sum(np.abs((phi[1] - new[1]) / dt) ** (4.0 / 3.0)))
        phi = new
        rows[m - 1] = [m - 1, t, math.sqrt(e_new), wlap_sum, dt43_sum ** 0.75]
        if (m - 1) % stride == 0:
            stored[m - 1] = phi

    kappa = max(kappas)
    slack = max(e / (math.exp(kappa * i * dt) * energy[0]) - 1.0 for i, e in enumerate(energy))
    weighted_e2t = dt * alpha_eff * sum(
        w * math.exp(2.0 * (steps - 1 - i) * dt) for i, w in enumerate(weighted))
    budget = (1.0 + kappa * (T + dt)) * math.exp((kappa + 2.0) * T) * energy[0]
    slack = max(slack, weighted_e2t / budget - 1.0)
    chi_h1, sup_h1 = math.sqrt(energy[0]), math.sqrt(max(energy))
    wlap, dt_l43 = dt * float(np.sum(weighted)), dt43_sum ** 0.75
    report = AdjointBoundsReport(
        sup_h1=sup_h1, weighted_lap=wlap, dt_l43=dt_l43, chi_h1=chi_h1,
        kappa_sup=sup_h1 / chi_h1, kappa_weighted_lap=wlap / chi_h1, kappa_dt=dt_l43 / chi_h1,
        gronwall_kappa=kappa, gronwall_slack=slack, eps=eps, rhs=rhs.value)
    return np.array([rows[n] for n in range(steps + 1)]), dict(sorted(stored.items())), report


@pytest.mark.parametrize("dim,n,steps,dt,bc", [
    (1, 64, 600, 1e-5, NEU),
    (2, 24, 70, 2e-5, BoundaryCondition.DIRICHLET),
], ids=["1d-neumann", "2d-dirichlet"])
def test_adjoint_diagnostics_across_block_boundaries(dim, n, steps, dt, bc):
    # run_adjoint computes its diagnostics per block of levels and carries the
    # partial sums across blocks; the per-step computation is the reference.
    # Strong growth rates make the energy rise, so the kappas are not all zero.
    c, rhs = dataclasses.replace(CFG_A, a1=200.0, a2=200.0), AdjointRHSKind.GROWTH
    grid = Grid(dim, 1.0, n)
    block = max(1, _BLOCK_CELLS // grid.node_count)
    assert 2 * block < steps < 3 * block  # three blocks, the last one partial
    coords = grid.meshgrid() if dim == 2 else (grid.centers(),)
    bump = np.prod([np.sin(np.pi * x) for x in coords], axis=0)
    wave = np.prod([np.cos(np.pi * x) for x in coords], axis=0)
    forward = run_forward(ForwardProblem(c, grid, bc, TimeGrid(steps * dt, dt),
                                         SchemeKind.IMEX_LAGGED,
                                         np.stack((0.5 + 1.5 * bump, 0.4 + 0.2 * bump)),
                                         stride=7))
    chi = np.stack((bump + 0.3 * wave, 0.5 * bump - 0.2 * wave))
    traj, report = run_adjoint(c, bc, forward, 0.5, rhs, chi, stride=3)
    ref_rows, ref_stored, ref_report = reference_adjoint(c, bc, forward, 0.5, rhs, chi, stride=3)

    got = np.column_stack([traj.diagnostics[key] for key in ADJOINT_DIAGNOSTIC_COLUMNS])
    assert got.shape == ref_rows.shape == (steps + 1, len(ADJOINT_DIAGNOSTIC_COLUMNS))
    scale = np.max(np.abs(ref_rows), axis=0)
    assert np.all(scale > 0.0)
    assert np.all(np.abs(got - ref_rows) <= 1e-13 * scale)
    for key, ref in vars(ref_report).items():
        value = getattr(report, key)
        if isinstance(ref, str):
            assert value == ref
        else:
            assert abs(value - ref) <= 1e-13 * abs(ref), key
    assert ref_report.gronwall_kappa > 0.0 and ref_report.weighted_lap > 0.0
    assert traj.stored_steps == list(ref_stored)
    assert traj.levels.shape == (len(ref_stored), 2, *grid.shape)
    for i, ref in enumerate(ref_stored.values()):
        assert np.array_equal(traj.levels[i], ref)


def test_run_adjoint_memory_does_not_grow_with_steps():
    # With no stored levels but the endpoints, the march holds one block of
    # levels at a time: its peak memory must not grow with the step count.
    grid = Grid(1, 1.0, 64)
    dt = 5e-5
    chi = unit_h1_cosine(grid)

    def peak(steps):
        traj = run_forward(ForwardProblem(heat_limit_coefficients(), grid, NEU,
                                          TimeGrid(steps * dt, dt), SchemeKind.EXPLICIT,
                                          np.stack((1.0 + 0.5 * np.cos(np.pi * grid.centers()),
                                                    np.ones(grid.shape))), stride=10**9))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_adjoint(heat_limit_coefficients(), NEU, traj, 0.5, AdjointRHSKind.IDENTITY,
                        chi, stride=10**9)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    short, long = peak(400), peak(4000)
    assert long - short < 2 ** 20, (short, long)


def test_marches_build_no_field_pair_per_step(monkeypatch):
    # A march carries stacked arrays: run_forward, run_adjoint and the
    # transpose march build no FieldPair, whatever the step count.
    grid = Grid(1, 1.0, 64)
    initial = np.stack((bump_profile(grid, 0.5, 0.3, 1.0) + 0.2,
                        bump_profile(grid, 0.4, 0.25, 0.6) + 0.2))
    chi = np.stack((np.cos(np.pi * grid.centers()), np.ones(grid.shape)))
    built = []
    post_init = FieldPair.__post_init__

    def counted(pair):
        built.append(pair)
        post_init(pair)

    monkeypatch.setattr(FieldPair, "__post_init__", counted)

    def forward_pairs(steps):
        built.clear()
        traj = run_forward(ForwardProblem(CFG_A, grid, NEU, TimeGrid(steps * 1e-5, 1e-5),
                                          SchemeKind.EXPLICIT, initial, stride=10))
        return len(built), traj

    assert forward_pairs(1000)[0] == forward_pairs(100)[0] == 0

    exact = polynomial_neumann_solution(CFG_A, 1)

    def forced_pairs(steps):
        built.clear()
        run_forward(ForwardProblem(CFG_A, grid, NEU, TimeGrid(steps * 1e-5, 1e-5),
                                   SchemeKind.EXPLICIT, exact.field(grid, 0.0), stride=10,
                                   forcing=lambda times: exact.forcing(grid, times)))
        return len(built)

    assert forced_pairs(1000) == forced_pairs(100) == 0

    def adjoint_pairs(steps, march):
        traj = forward_pairs(steps)[1]
        built.clear()
        if march == "continuous":
            run_adjoint(CFG_A, NEU, traj, 0.5, AdjointRHSKind.IDENTITY, chi, stride=10)
        else:
            transpose_march(CFG_A, NEU, (traj, traj), 0.5, AdjointRHSKind.IDENTITY, chi)
        return len(built)

    for march in ("continuous", "transpose"):
        assert adjoint_pairs(200, march) == adjoint_pairs(20, march) == 0
