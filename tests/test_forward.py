import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from helpers import DIR, NEU, component_h1, constant_pair, frozen_alone

import sktsim.algebra
import sktsim.forward
import sktsim.linalg
from sktsim.adjoint import (
    AdjointRHSKind,
    step_adjoint_backward,
    step_adjoint_transpose,
    theta_eps,
)
from sktsim.algebra import CFG_A, Coefficients, eval_l, eval_p, eval_q, jac_P
from sktsim.forward import (
    _BLOCK_CELLS,
    DIAGNOSTIC_COLUMNS,
    ForwardProblem,
    NumericalFailure,
    SchemeKind,
    StabilityError,
    TimeGrid,
    Trajectory,
    manufactured_convergence,
    run_forward,
    stability_bound,
    step_explicit,
    step_imex,
)
from sktsim.grid import (
    FieldPair,
    Grid,
    _extend,
    _grad_stencil,
    _lap_stencil,
)
from sktsim.linalg import block_pattern
from sktsim.mms import bump_profile, heat_limit_coefficients, polynomial_neumann_solution


REACTION_FREE = Coefficients(1, 1, 1, 1, d1=1.0, d2=1.0)  # b = c = growth = 0
ASYMMETRIC = Coefficients(0.3, 0.7, 1.9, 0.45, b1=0.4, b2=1.3, c1=0.25, c2=0.6,
                          a1=1.1, a2=0.35, d1=1.7, d2=0.55)


def component_l2(arr, grid):
    return float(np.sqrt(grid.cell_volume * np.sum(arr ** 2)))


def lap_flux(c, grid, state, bc):
    """Discrete Laplacian of p(ext state), the flux term of the explicit step."""
    return _lap_stencil(sktsim.forward._extended_flux(c, grid, state, bc), grid.h, grid.dim)


def bump_pair(grid, amplitude=1.0):
    b = bump_profile(grid, 0.5 * grid.length, 0.3 * grid.length, amplitude)
    return np.stack((b + 0.2, 0.5 * b + 0.1))


def test_time_grid_validation():
    tg = TimeGrid(1.0, 0.125)
    assert tg.steps == 8
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0.3)
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 0.1)
    # A final time within the 1e-12 slack of zero would round to zero steps.
    with pytest.raises(ValueError):
        TimeGrid(1e-13, 1.0)


def test_explicit_step_zero_and_constant_states():
    grid = Grid(1, 1.0, 32)
    zero = np.zeros((2, *grid.shape))
    out = step_explicit(REACTION_FREE, grid, zero, NEU, 1e-5)
    assert np.all(out[0] == 0.0) and np.all(out[1] == 0.0)

    const = constant_pair(grid, 2.0, 1.0)
    out = step_explicit(REACTION_FREE, grid, const, NEU, 1e-5)
    assert np.allclose(out[0], 2.0, atol=1e-14) and np.allclose(out[1], 1.0, atol=1e-14)


def test_explicit_step_guards_stability():
    grid = Grid(1, 1.0, 32)
    state = constant_pair(grid, 1.0, 1.0)
    bound = stability_bound(grid, *jac_P(CFG_A, state.reshape(2, -1)))
    with pytest.raises(StabilityError) as err:
        step_explicit(CFG_A, grid, state, NEU, 2.0 * bound)
    assert err.value.bound == bound


@pytest.mark.parametrize("dim,n", [(1, 32), (2, 10)])
@pytest.mark.parametrize("bc", [NEU, DIR])
def test_divergence_form_matches_laplacian_of_flux(dim, n, bc):
    # The two spatial forms of the system coincide exactly on any state:
    # face-averaged Jacobians reproduce flux differences of the quadratic map.
    grid = Grid(dim, 1.0, n)
    rng = np.random.default_rng(42 + dim)
    state = np.stack((rng.uniform(0.0, 3.0, grid.shape), rng.uniform(0.0, 3.0, grid.shape)))
    pattern = block_pattern(grid, bc)
    L = pattern.matrix(sktsim.forward._divergence_form_data(CFG_A, grid, state, pattern))
    via_div = L @ state.ravel()
    expected = lap_flux(CFG_A, grid, state, bc).ravel()
    scale = max(1.0, float(np.max(np.abs(expected))))
    assert np.max(np.abs(via_div - expected)) <= 1e-11 * scale


def heat_problem(n, dt_factor, scheme, T=0.1):
    grid = Grid(1, 1.0, n)
    x = grid.centers()
    initial = np.stack((1.0 + np.cos(np.pi * x), np.zeros(grid.shape)))
    bound = grid.h ** 2 / 2.0
    dt = T / max(1, int(round(T / (dt_factor * bound))))
    return ForwardProblem(heat_limit_coefficients(), grid, NEU, TimeGrid(T, dt),
                          scheme, initial, stride=10**9)


def heat_exact(grid, t):
    return 1.0 + math.exp(-math.pi**2 * t) * np.cos(np.pi * grid.centers())


def test_heat_limit_explicit_tracks_analytic_solution():
    errors = []
    for n in (16, 32, 64):
        problem = heat_problem(n, 0.4, SchemeKind.EXPLICIT)
        traj = run_forward(problem)
        err = np.max(np.abs(traj.levels[-1, 0] - heat_exact(problem.grid, 0.1)))
        errors.append(err)
    for a, b in zip(errors, errors[1:]):
        assert 2.5 < a / b < 5.5  # dt ~ h^2 so the total error is O(h^2)


def test_heat_limit_imex_stable_beyond_explicit_bound():
    # 10x the explicit bound: still stable and O(dt) accurate.
    problem = heat_problem(32, 10.0, SchemeKind.IMEX_LAGGED)
    traj = run_forward(problem)
    err = np.max(np.abs(traj.levels[-1, 0] - heat_exact(problem.grid, 0.1)))
    assert err < 5e-2
    assert np.all(np.isfinite(traj.diagnostics["l2_u"]))


def test_imex_temporal_order_via_richardson():
    finals = []
    for factor in (16.0, 8.0, 4.0):
        traj = run_forward(heat_problem(32, factor, SchemeKind.IMEX_LAGGED))
        finals.append(traj.levels[-1, 0])
    e1 = np.max(np.abs(finals[0] - finals[1]))
    e2 = np.max(np.abs(finals[1] - finals[2]))
    order = math.log2(e1 / e2)
    assert order > 0.85


def test_one_step_scheme_difference_second_order_in_dt():
    grid = Grid(1, 1.0, 32)
    state = bump_pair(grid)
    dt0 = 0.5 * stability_bound(grid, *jac_P(CFG_A, state.reshape(2, -1)))
    diffs = []
    for dt in (dt0, dt0 / 2):
        a = step_explicit(CFG_A, grid, state, NEU, dt)
        b = step_imex(CFG_A, grid, state, NEU, dt)
        diffs.append(np.max(np.abs(a[0] - b[0])) + np.max(np.abs(a[1] - b[1])))
    ratio = diffs[0] / diffs[1]
    assert 3.0 < ratio < 5.0


def test_mass_conservation_neumann_without_reactions():
    grid = Grid(1, 1.0, 64)
    initial = bump_pair(grid)
    dt = 1e-5
    problem = ForwardProblem(REACTION_FREE, grid, NEU, TimeGrid(0.01, dt),
                             SchemeKind.EXPLICIT, initial, stride=10**9)
    traj = run_forward(problem)
    for key in ("mass_u", "mass_v"):
        drift = np.max(np.abs(traj.diagnostics[key] - traj.diagnostics[key][0]))
        assert drift <= 1e-12

    problem_imex = ForwardProblem(REACTION_FREE, grid, NEU, TimeGrid(0.01, 1e-4),
                                  SchemeKind.IMEX_LAGGED, initial, stride=10**9)
    traj = run_forward(problem_imex)
    for key in ("mass_u", "mass_v"):
        drift = np.max(np.abs(traj.diagnostics[key] - traj.diagnostics[key][0]))
        assert drift <= 1e-7  # limited by the 1e-10 relative linear-solve residual


def test_run_forward_zero_initial_stays_zero():
    grid = Grid(1, 1.0, 16)
    problem = ForwardProblem(CFG_A, grid, NEU, TimeGrid(0.01, 1e-3),
                             SchemeKind.IMEX_LAGGED, np.zeros((2, *grid.shape)))
    traj = run_forward(problem)
    assert np.all(traj.levels[-1, 0] == 0.0)
    for key in ("mass_u", "l2_u", "h1_v", "l4_pair", "gradp_l2", "lapp_l2", "wtd_dtu_l2"):
        assert np.all(traj.diagnostics[key] == 0.0)


def test_run_forward_rejects_negative_initial():
    grid = Grid(1, 1.0, 16)
    bad = np.stack((-np.ones(grid.shape), np.zeros(grid.shape)))
    problem = ForwardProblem(CFG_A, grid, NEU, TimeGrid(0.01, 1e-3),
                             SchemeKind.IMEX_LAGGED, bad)
    with pytest.raises(ValueError):
        run_forward(problem)


def test_run_forward_checks_the_initial_data():
    # The initial data enter as one stacked pair (2, *grid.shape), checked
    # once: the shape, then finiteness, then the sign.  A FieldPair, which
    # outside callers still pass, is read through np.asarray.
    grid = Grid(2, 1.0, 4)
    tg = TimeGrid(1e-3, 1e-3)

    def run(initial):
        return run_forward(ForwardProblem(CFG_A, grid, NEU, tg, SchemeKind.IMEX_LAGGED, initial))

    for shape in ((3, 2, 4, 4), (2, 4, 5), (2, 4), (2, 16), (4, 4), (1, 4, 4)):
        with pytest.raises(ValueError, match="does not match the stacked grid shape"):
            run(np.zeros(shape))
    bad = np.ones((2, *grid.shape))
    bad[1, 2, 3] = np.nan
    with pytest.raises(NumericalFailure, match="non-finite initial data"):
        run(bad)
    bad[1, 2, 3] = -1.0
    with pytest.raises(ValueError, match="nonnegative"):
        run(bad)
    initial = np.stack((np.full(grid.shape, 0.5), np.full(grid.shape, 0.25)))
    as_pair = FieldPair(grid, initial[0], initial[1])
    assert np.array_equal(run(as_pair).levels, run(initial).levels)


def test_run_forward_aborts_on_blowup():
    # Strong competition with a large step drives the state negative and the
    # explicit stability bound trips with the step index in the message.
    grid = Grid(1, 1.0, 16)
    c = Coefficients(1, 1, 1, 1, b1=200.0, b2=200.0, d1=1, d2=1)
    initial = constant_pair(grid, 5.0, 5.0)
    problem = ForwardProblem(c, grid, NEU, TimeGrid(1.0, 1e-4),
                             SchemeKind.EXPLICIT, initial)
    with pytest.raises(StabilityError) as err:
        run_forward(problem)
    assert err.value.step == 1 and err.value.t == 1e-4
    assert str(err.value).startswith("step 1 (t=0.0001): ")


def test_run_forward_reports_non_finite_level_with_step():
    # The competition term overflows to -inf in the first step; the one
    # finiteness check on the new level must report it, with no warning.
    grid = Grid(1, 1.0, 16)
    c = Coefficients(1, 1, 1, 1, b1=1e308, d1=1, d2=1)
    problem = ForwardProblem(c, grid, NEU, TimeGrid(1e-3, 1e-5), SchemeKind.EXPLICIT,
                             constant_pair(grid, 10.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalFailure) as err:
            run_forward(problem)
    assert not isinstance(err.value, StabilityError)
    assert err.value.step == 1 and err.value.t == 1e-5
    assert str(err.value) == "step 1 (t=1e-05): non-finite field values"


def test_positivity_monitoring_bump_run():
    grid = Grid(1, 1.0, 128)
    amp = 1.0
    initial = np.stack((bump_profile(grid, 0.5, 0.25, amp),
                        bump_profile(grid, 0.4, 0.3, 0.5 * amp)))
    dt = 2e-5
    problem = ForwardProblem(CFG_A, grid, NEU, TimeGrid(0.02, dt),
                             SchemeKind.IMEX_LAGGED, initial, stride=10**9)
    traj = run_forward(problem)
    assert float(np.min(traj.diagnostics["min_u"])) >= -1e-6 * amp
    assert float(np.min(traj.diagnostics["min_v"])) >= -1e-6 * amp


def test_scheme_agreement_first_order_in_dt():
    grid = Grid(1, 1.0, 32)
    initial = bump_pair(grid, amplitude=0.5)
    T = 0.01
    gaps = []
    for dt in (1e-5, 5e-6):
        finals = []
        for scheme in (SchemeKind.EXPLICIT, SchemeKind.IMEX_LAGGED):
            problem = ForwardProblem(CFG_A, grid, NEU, TimeGrid(T, dt), scheme,
                                     initial, stride=10**9)
            finals.append(run_forward(problem).levels[-1])
        du, dv = finals[0] - finals[1]
        gaps.append(math.sqrt(grid.h * (np.sum(du**2) + np.sum(dv**2))))
    assert 1.6 < gaps[0] / gaps[1] < 2.6


def test_snapshot_stride_and_lookup():
    grid = Grid(1, 1.0, 16)
    problem = ForwardProblem(CFG_A, grid, NEU, TimeGrid(0.01, 1e-3),
                             SchemeKind.IMEX_LAGGED, bump_pair(grid), stride=4)
    traj = run_forward(problem)
    assert traj.stored_steps == [0, 4, 8, 10]
    assert traj.levels.shape == (4, 2, *grid.shape)
    assert np.array_equal(traj.final_state().u, traj.levels[-1, 0])
    assert np.array_equal(traj.final_state().v, traj.levels[-1, 1])
    assert len(traj.diagnostics["t"]) == traj.time_grid.steps + 1
    # With the clamp inactive, the coefficient states the adjoint freezes
    # are the stored levels exactly.
    assert np.array_equal(theta_eps(1e-9, traj.levels), traj.levels)


class ConstantTarget:
    """The 1D target u = 1, v = 0.5 at every time; its residual forcing is
    the reaction residual q - l of that constant state."""

    def field(self, grid, t):
        pair = constant_pair(grid, 1.0, 0.5)
        return pair if np.ndim(t) == 0 else np.stack([pair] * len(t))

    def forcing(self, grid, t):
        w = self.field(grid, t)
        return eval_q(CFG_A, w) - eval_l(CFG_A, w)


def test_manufactured_constant_is_exact():
    exact = ConstantTarget()
    problem = ForwardProblem(CFG_A, Grid(1, 1.0, 16), NEU, TimeGrid(0.01, 1e-3),
                             SchemeKind.IMEX_LAGGED, np.zeros((2, 16)))
    table = manufactured_convergence(problem, exact, ns=(8, 16, 32))
    assert all(err < 1e-9 for err in table.errors)


def test_manufactured_full_coupling_spatial_order():
    exact = polynomial_neumann_solution(CFG_A, 1)
    base_grid = Grid(1, 1.0, 16)
    problem = ForwardProblem(CFG_A, base_grid, NEU, TimeGrid(0.05, 0.05),
                             SchemeKind.IMEX_LAGGED, np.zeros((2, *base_grid.shape)))
    table = manufactured_convergence(problem, exact, ns=(8, 16, 32))
    assert all(order >= 1.6 for order in table.orders)


def test_manufactured_target_follows_the_box_of_its_grid():
    # The target reads its walls from the grid it is evaluated on, so on a
    # box of length 1.5 its normal derivative vanishes there and the study
    # converges at second order.
    exact = polynomial_neumann_solution(CFG_A, 1)
    base_grid = Grid(1, 1.5, 16)
    problem = ForwardProblem(CFG_A, base_grid, NEU, TimeGrid(0.05, 0.05),
                             SchemeKind.IMEX_LAGGED, np.zeros((2, *base_grid.shape)))
    table = manufactured_convergence(problem, exact, ns=(16, 32, 64))
    assert all(order >= 1.8 for order in table.orders), table.orders


def test_cli_import_leaves_sympy_unloaded():
    src = os.path.dirname(os.path.dirname(sktsim.algebra.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = "import sys, sktsim.cli; print('sympy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True)
    assert out.stdout.strip() == "False"


def _sympy_manufactured(c, dim, length):
    """Targets and forcing of polynomial_neumann_solution, derived symbolically."""
    import sympy as sym  # from the test extra; the package itself never imports it
    t = sym.Symbol("t")
    xs = sym.symbols(f"x0:{dim}")
    w = sym.Mul(*[(x / length) ** 2 * (3 - 2 * x / length) for x in xs])
    u = 1 + sym.exp(-t) * w / 2
    v = 1 + sym.exp(-2 * t) * (1 - w) / 2
    p1 = (c.d1 + c.a11 * u + c.a12 * v) * u
    p2 = (c.d2 + c.a21 * u + c.a22 * v) * v
    fu = sym.diff(u, t) - sum(sym.diff(p1, x, 2) for x in xs) + (c.b1 * u + c.c1 * v) * u - c.a1 * u
    fv = sym.diff(v, t) - sum(sym.diff(p2, x, 2) for x in xs) + (c.b2 * u + c.c2 * v) * v - c.a2 * v
    return [sym.lambdify((*xs, t), e, "numpy") for e in (u, v, fu, fv)]


@pytest.mark.parametrize("c, dim, length", [(CFG_A, 1, 1.0), (CFG_A, 2, 2.5),
                                            (ASYMMETRIC, 1, 2.5), (ASYMMETRIC, 2, 1.0)])
def test_closed_form_forcing_matches_symbolic_derivation(c, dim, length):
    exact = polynomial_neumann_solution(c, dim)
    reference = _sympy_manufactured(c, dim, length)
    grid = Grid(dim, length, 13)
    for t in (0.0, 0.05, 0.7):
        field, forcing = exact.field(grid, t), exact.forcing(grid, t)
        for got, fn in zip((*field, *forcing), reference):
            want = np.broadcast_to(fn(*grid.meshgrid(), t), grid.shape)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    with pytest.raises(ValueError):
        exact.forcing(Grid(3 - dim, length, 13), 0.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_manufactured_values_at_a_vector_of_times_stack_the_single_time_calls(dim):
    # A 1-D array of times gives one stacked pair per time, bit for bit the
    # call at that time alone, whatever the other times asked for.
    exact = polynomial_neumann_solution(ASYMMETRIC, dim)
    grid = Grid(dim, 2.5, 13)
    times = np.array([0.0, 1e-5, 0.05, 0.7, 3.0])
    for method in (exact.field, exact.forcing):
        got = method(grid, times)
        assert got.shape == (len(times), 2, *grid.shape)
        assert np.array_equal(got, np.stack([method(grid, t) for t in times.tolist()]))
        assert np.array_equal(method(grid, times[::-1]), got[::-1])
        assert np.array_equal(method(grid, times[2:3]), got[2:3])
        with pytest.raises(ValueError, match="1-D array"):
            method(grid, times.reshape(1, -1))


def test_run_forward_evaluates_the_forcing_once_per_block():
    # Three blocks, the last one partial: three calls, at the times
    # (k - 1) dt of the steps k of each block, and the march is bit for bit
    # the one that takes the forcing one step at a time.
    grid = Grid(1, 1.0, 64)
    block = _BLOCK_CELLS // grid.node_count
    steps, dt = 2 * block + 10, 1e-5
    exact = polynomial_neumann_solution(CFG_A, 1)
    calls = []

    def forcing(times):
        calls.append(times.copy())
        return exact.forcing(grid, times)

    traj = run_forward(ForwardProblem(CFG_A, grid, NEU, TimeGrid(steps * dt, dt),
                                      SchemeKind.EXPLICIT, exact.field(grid, 0.0), stride=10,
                                      forcing=forcing))
    assert [len(times) for times in calls] == [block, block, 10]
    assert np.array_equal(np.concatenate(calls), np.arange(steps) * dt)
    w = exact.field(grid, 0.0)
    for k in range(1, steps + 1):
        w = step_explicit(CFG_A, grid, w, NEU, dt, exact.forcing(grid, (k - 1) * dt))
    assert np.array_equal(traj.levels[-1], w)


def test_run_forward_refuses_a_forcing_of_the_wrong_shape():
    grid = Grid(1, 1.0, 16)
    problem = ForwardProblem(CFG_A, grid, NEU, TimeGrid(1e-3, 1e-4), SchemeKind.EXPLICIT,
                             constant_pair(grid, 1.0, 1.0),
                             forcing=lambda times: np.ones((2, *grid.shape)))
    with pytest.raises(ValueError, match=r"forcing at 10 times has shape \(2, 16\)"):
        run_forward(problem)


def test_run_forward_memory_with_forcing_does_not_grow_with_steps():
    # The forcing is evaluated one block of steps at a time: with no stored
    # levels but the endpoints, the peak grows only by the diagnostic columns
    # (14 floats per step, 0.4 MB from 400 to 4000 steps).
    grid = Grid(1, 1.0, 64)
    dt = 1e-5
    exact = polynomial_neumann_solution(CFG_A, 1)

    def peak(steps):
        problem = ForwardProblem(CFG_A, grid, NEU, TimeGrid(steps * dt, dt),
                                 SchemeKind.EXPLICIT, exact.field(grid, 0.0), stride=10**9,
                                 forcing=lambda times: exact.forcing(grid, times))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_forward(problem)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    short, long = peak(400), peak(4000)
    assert long - short < 2 ** 20, (short, long)


def test_energy_diagnostics_stabilize_under_dt_refinement():
    grid = Grid(1, 1.0, 32)
    initial = bump_pair(grid, amplitude=0.8)
    sups = {"l2": [], "gradp": [], "lapp": []}
    for dt in (4e-5, 2e-5, 1e-5):
        problem = ForwardProblem(CFG_A, grid, NEU, TimeGrid(0.02, dt),
                                 SchemeKind.EXPLICIT, initial, stride=10**9)
        d = run_forward(problem).diagnostics
        sups["l2"].append(np.max(np.hypot(d["l2_u"], d["l2_v"])))
        sups["gradp"].append(np.max(d["gradp_l2"]))
        sups["lapp"].append(np.max(d["lapp_l2"]))
    for seq in sups.values():
        gap_coarse = abs(seq[0] - seq[1])
        gap_fine = abs(seq[1] - seq[2])
        assert gap_fine <= 0.8 * gap_coarse + 1e-12


def test_two_dimensional_imex_run_and_mass_conservation():
    grid = Grid(2, 1.0, 12)
    X, Y = grid.meshgrid()
    initial = np.stack((0.5 + 0.25 * np.cos(np.pi * X) * np.cos(np.pi * Y),
                        0.4 + 0.2 * np.cos(np.pi * X)))
    problem = ForwardProblem(REACTION_FREE, grid, NEU, TimeGrid(0.01, 5e-4),
                             SchemeKind.IMEX_LAGGED, initial, stride=10**9)
    traj = run_forward(problem)
    assert np.all(np.isfinite(traj.levels[-1, 0]))
    for key in ("mass_u", "mass_v"):
        drift = np.max(np.abs(traj.diagnostics[key] - traj.diagnostics[key][0]))
        assert drift <= 1e-8


def test_two_dimensional_mms_convergence():
    exact = polynomial_neumann_solution(CFG_A, 2)
    grid = Grid(2, 1.0, 8)
    problem = ForwardProblem(CFG_A, grid, NEU, TimeGrid(0.02, 0.02),
                             SchemeKind.IMEX_LAGGED, np.zeros((2, *grid.shape)))
    table = manufactured_convergence(problem, exact, ns=(8, 16, 32))
    assert all(order >= 1.5 for order in table.orders)


def test_positivity_undershoot_shrinks_under_refinement():
    undershoots = []
    for n in (48, 96):
        grid = Grid(1, 1.0, n)
        initial = np.stack((bump_profile(grid, 0.5, 0.18, 1.0),
                            bump_profile(grid, 0.45, 0.22, 0.7)))
        problem = ForwardProblem(CFG_A, grid, NEU, TimeGrid(0.02, 1e-5),
                                 SchemeKind.EXPLICIT, initial, stride=10**9)
        d = run_forward(problem).diagnostics
        undershoots.append(max(0.0, -min(float(np.min(d["min_u"])),
                                         float(np.min(d["min_v"])))))
    assert undershoots[0] <= 1e-6  # monitored, not clipped
    assert undershoots[1] <= undershoots[0] + 1e-14


def reference_diagnostics(c, traj, bc):
    """Diagnostics recomputed one level at a time from every stored level."""
    grid = traj.grid
    vol, h, dim = grid.cell_volume, grid.h, grid.dim
    dt = traj.time_grid.dt
    rows = []
    for j in range(len(traj.stored_steps)):
        state, prev = traj.levels[j], traj.levels[max(j - 1, 0)]
        (u, v), (u_prev, v_prev) = state, prev
        ext = np.stack((_extend(u, bc, dim), _extend(v, bc, dim)))
        p = eval_p(c, ext.reshape(2, -1)).reshape(ext.shape)
        grad_p_sq = sum(float(np.sum(g ** 2)) for e in p for g in _grad_stencil(e, h, dim))
        lap_p = lap_flux(c, grid, state, bc)
        weight = 1.0 + np.abs(u_prev) + np.abs(v_prev)
        rate = (np.abs(u - u_prev) + np.abs(v - v_prev)) / dt
        rows.append([
            j, j * dt, vol * np.sum(u), vol * np.sum(v),
            np.min(u), np.min(v),
            component_l2(u, grid), component_l2(v, grid),
            component_h1(u, grid, bc), component_h1(v, grid, bc),
            (vol * (np.sum(u ** 4) + np.sum(v ** 4))) ** 0.25,
            math.sqrt(vol * grad_p_sq),
            math.sqrt(vol * (np.sum(lap_p[0] ** 2) + np.sum(lap_p[1] ** 2))),
            math.sqrt(vol * np.sum(weight * rate ** 2))])
    return np.array(rows)


@pytest.mark.parametrize("dim,n,steps,dt,scheme,c,bc", [
    (1, 64, 600, 1e-5, SchemeKind.EXPLICIT, CFG_A, NEU),
    (2, 24, 60, 1e-4, SchemeKind.IMEX_LAGGED, CFG_A, DIR),
], ids=["1d-explicit", "2d-imex"])
def test_diagnostics_across_block_boundaries(dim, n, steps, dt, scheme, c, bc):
    # Diagnostics are computed per block of levels; each block's first row
    # takes its time-derivative predecessor from the previous block.
    grid = Grid(dim, 1.0, n)
    block = max(1, _BLOCK_CELLS // grid.node_count)
    assert 2 * block < steps < 3 * block  # three blocks, the last one partial
    if dim == 1:
        initial = bump_pair(grid, amplitude=0.8)
    else:
        X, Y = grid.meshgrid()
        initial = np.stack((0.5 + 0.25 * np.cos(np.pi * X) * np.cos(np.pi * Y),
                            0.4 + 0.2 * np.sin(np.pi * X)))
    traj = run_forward(ForwardProblem(c, grid, bc, TimeGrid(steps * dt, dt), scheme, initial))
    assert traj.stored_steps == list(range(steps + 1))
    ref = reference_diagnostics(c, traj, bc)
    got = np.column_stack([traj.diagnostics[key] for key in DIAGNOSTIC_COLUMNS])
    assert got.shape == ref.shape
    scale = np.max(np.abs(ref), axis=0)
    assert np.all(np.abs(got - ref) <= 1e-13 * scale)

    wtd = traj.diagnostics["wtd_dtu_l2"]
    assert wtd[0] == 0.0
    for first in (1, block + 1, 2 * block + 1):
        assert wtd[first] > 0.0
        assert abs(wtd[first] - ref[first, -1]) <= 1e-13 * scale[-1]


def test_explicit_march_checks_each_level_once(monkeypatch):
    # The march builds no FieldPair at all: _march checks each new level
    # once, as a stacked array.
    grid = Grid(1, 1.0, 64)
    steps = 50
    problem = ForwardProblem(REACTION_FREE, grid, NEU, TimeGrid(steps * 1e-5, 1e-5),
                             SchemeKind.EXPLICIT, bump_pair(grid), stride=10)
    counts = {"scan": 0}
    post_init = FieldPair.__post_init__

    def counted_post_init(pair):
        counts["scan"] += 1
        post_init(pair)

    monkeypatch.setattr(FieldPair, "__post_init__", counted_post_init)
    run_forward(problem)
    assert counts["scan"] == 0


@pytest.mark.parametrize("dim,n", [(1, 16), (2, 8)])
@pytest.mark.parametrize("bc", [NEU, DIR])
def test_steps_on_a_batch_equal_the_unbatched_steps(dim, n, bc):
    # A stack (B, 2, *grid.shape) holds B independent problems.  The explicit
    # and transpose steps' batched results equal their B unbatched calls bit
    # for bit, in 1D and 2D, and so do the IMEX step's in 1D, where the B
    # operators are solved in one band; in 2D the implicit steps take one
    # pair only (see the test below).  The reactions and cross-diffusion are
    # all nonzero and asymmetric.
    grid = Grid(dim, 1.0, n)
    rng = np.random.default_rng(7 + dim)
    batch = rng.uniform(0.1, 1.5, (4, 2, *grid.shape))
    forcing = rng.standard_normal(batch.shape)
    state = rng.uniform(0.1, 1.5, (2, *grid.shape))
    dt = 0.5 * min(stability_bound(grid, *jac_P(ASYMMETRIC, w.reshape(2, -1)))
                   for w in (*batch, state))
    steps = [lambda w, f: step_explicit(ASYMMETRIC, grid, w, bc, dt, f)]
    frozen = frozen_alone(ASYMMETRIC, grid, state)
    steps += [lambda w, f, rhs=rhs: step_adjoint_transpose(ASYMMETRIC, grid, w, frozen, bc, dt, rhs)
              for rhs in AdjointRHSKind]
    if dim == 1:
        steps.append(lambda w, f: step_imex(ASYMMETRIC, grid, w, bc, dt, f))
    for step in steps:
        out = step(batch, forcing)
        assert out.shape == batch.shape
        for member, f, got in zip(batch, forcing, out):
            assert np.array_equal(got, step(member, f))


@pytest.mark.parametrize("dim", [1, 2])
def test_implicit_steps_refuse_a_batch_before_the_solve(dim):
    # A 1D IMEX batch is solved (see the test above); a 2D one is not, and
    # neither is a batch of adjoint levels against one frozen state.
    grid = Grid(dim, 1.0, 8)
    batch = np.full((3, 2, *grid.shape), 0.5)
    state = np.full((2, *grid.shape), 0.5)
    message = r"an implicit solve takes one stacked pair of shape \(2, 8"
    if dim == 2:
        with pytest.raises(ValueError, match=message):
            step_imex(CFG_A, grid, batch, NEU, 1e-3)
    frozen = frozen_alone(CFG_A, grid, state, NEU, 1e-3)
    for rhs in AdjointRHSKind:
        with pytest.raises(ValueError, match=message):
            step_adjoint_backward(CFG_A, grid, batch, frozen, 1e-3, rhs)


@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_nonfinite_forcing_fails_at_its_step(scheme):
    # The forcing of step k is taken at t = (k - 1) dt; from t = 3 dt on it is NaN.
    grid = Grid(1, 1.0, 16)
    dt = 1e-4

    def forcing(times):
        return np.stack([np.full((2, *grid.shape), math.nan if t > 2.5 * dt else 1.0)
                         for t in times])

    problem = ForwardProblem(CFG_A, grid, NEU, TimeGrid(10 * dt, dt), scheme,
                             constant_pair(grid, 1.0, 1.0), forcing=forcing)
    with pytest.raises(NumericalFailure, match="non-finite field values") as err:
        run_forward(problem)
    assert (err.value.step, err.value.t) == (4, 4 * dt)


# ---------------------------------------------------------------- the step, bit for bit

def reference_extend(arr, bc, dim):
    """The ghost layer with each wall cell multiplied by its sign: +1 under
    Neumann, -1 under Dirichlet (corner ghosts zero)."""
    sign = -1.0 if bc is DIR else 1.0
    if dim == 1:
        ext = np.empty(arr.shape[:-1] + (arr.shape[-1] + 2,))
        ext[..., 1:-1] = arr
        ext[..., 0] = sign * arr[..., 0]
        ext[..., -1] = sign * arr[..., -1]
        return ext
    ext = np.zeros(arr.shape[:-2] + (arr.shape[-2] + 2, arr.shape[-1] + 2))
    ext[..., 1:-1, 1:-1] = arr
    ext[..., 0, 1:-1], ext[..., -1, 1:-1] = sign * arr[..., 0, :], sign * arr[..., -1, :]
    ext[..., 1:-1, 0], ext[..., 1:-1, -1] = sign * arr[..., 0], sign * arr[..., -1]
    return ext


def flat(arr, dim):
    return arr.reshape(arr.shape[:arr.ndim - dim] + (-1,))


def reference_bound(c, grid, w):
    diag, off = jac_P(c, flat(w, grid.dim))
    return grid.h ** 2 / (2.0 * grid.dim * float((np.abs(diag) + np.abs(off)).max()))


def reference_explicit(c, grid, w, bc, dt, forcing=None):
    """w + dt (Lap p(ext w) + l - q) (+ dt forcing), the algebra maps composed
    in one expression, reactions included whatever the coefficients."""
    s = flat(w, grid.dim)
    ext = reference_extend(w, bc, grid.dim)
    lap = _lap_stencil(eval_p(c, flat(ext, grid.dim)).reshape(ext.shape), grid.h, grid.dim)
    new = w + dt * (lap + (eval_l(c, s) - eval_q(c, s)).reshape(w.shape))
    return new if forcing is None else new + dt * forcing


def reference_imex(c, grid, w, bc, dt, forcing=None):
    s = flat(w, grid.dim)
    b = w + dt * (eval_l(c, s) - eval_q(c, s)).reshape(w.shape)
    if forcing is not None:
        b = b + dt * forcing
    pattern = block_pattern(grid, bc)
    data = sktsim.forward._divergence_form_data(c, grid, w, pattern)
    data *= -dt
    data[pattern.ident] += 1.0
    return sktsim.linalg.solve(pattern, data, b, w)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def rough_state(grid, batch=()):
    """Desk-like data with a block of exact zeros in each species (-0.0 in
    v) and one negative entry."""
    rng = np.random.default_rng(grid.n + grid.dim)
    w = np.broadcast_to(bump_pair(grid), batch + (2, *grid.shape)).copy()
    w += 0.05 * rng.standard_normal(w.shape)
    nodes = flat(w, grid.dim)  # a view: u and v along row-major nodes
    quarter = grid.node_count // 4
    nodes[..., 0, :quarter] = 0.0
    nodes[..., 1, -quarter:] = -0.0
    nodes[..., 1, grid.node_count // 2] = -0.01
    return w


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 24)])
@pytest.mark.parametrize("bc", [NEU, DIR])
@pytest.mark.parametrize("c", [CFG_A, heat_limit_coefficients()], ids=["cfg_a", "heat"])
def test_steps_equal_the_reference_composition_bit_for_bit(dim, n, bc, c):
    # Sign bits included: the reaction-free skip, the copied Neumann ghosts
    # and the in-place sums must reproduce the one-expression step exactly.
    grid = Grid(dim, 1.0, n)
    rng = np.random.default_rng(3)
    w = rough_state(grid)
    batch = rough_state(grid, (3,))
    dt = 0.5 * min(reference_bound(c, grid, w), reference_bound(c, grid, batch))
    forcing = rng.standard_normal(batch.shape)
    for state, f in ((w, None), (batch, None), (batch, forcing)):
        got = step_explicit(c, grid, state, bc, dt, f)
        assert same_bits(got, reference_explicit(c, grid, state, bc, dt, f))
    # The zero block stays exactly zero without reactions, so sign bits count.
    assert c.has_reactions or np.any(step_explicit(c, grid, w, bc, dt) == 0.0)
    for f in (None, forcing[0]):
        assert same_bits(step_imex(c, grid, w, bc, dt, f), reference_imex(c, grid, w, bc, dt, f))
    over = 1.5 * reference_bound(c, grid, w)
    with pytest.raises(StabilityError) as err:
        step_explicit(c, grid, w, bc, over)
    assert same_bits(np.float64(err.value.bound), np.float64(reference_bound(c, grid, w)))


@pytest.mark.parametrize("name", ["a1", "a2", "b1", "b2", "c1", "c2"])
@pytest.mark.parametrize("value", [0.5, -0.0])
def test_each_reaction_constant_sets_the_derived_flag(name, value):
    # A flag that missed one constant would skip a nonzero l - q; -0.0 counts
    # too, since its signed-zero products could flip the sign of a zero.
    c = Coefficients(1, 1, 1, 1, d1=1.0, d2=1.0, **{name: value})
    assert c.has_reactions and not REACTION_FREE.has_reactions
    grid = Grid(1, 1.0, 64)
    w = rough_state(grid)
    dt = 0.5 * reference_bound(c, grid, w)
    for bc in (NEU, DIR):
        assert same_bits(step_explicit(c, grid, w, bc, dt), reference_explicit(c, grid, w, bc, dt))
        assert same_bits(step_imex(c, grid, w, bc, dt), reference_imex(c, grid, w, bc, dt))
    with pytest.raises(TypeError):
        Coefficients(1, 1, 1, 1, has_reactions=False)
    with pytest.raises(ValueError):
        dataclasses.replace(c, has_reactions=False)


# ---------------------------------------------------------------- per-step mass balance

def wall_flux(c, grid, w, bc):
    """Net flux of p through the walls, per species: h^(d-2) times the sum
    over boundary faces of p(ghost) - p(wall cell), the ghost state being
    the wall cell under Neumann and its negation under Dirichlet."""
    sign = -1.0 if bc is DIR else 1.0
    walls = [w[..., 0], w[..., -1]]
    if grid.dim == 2:
        walls += [w[..., 0, :], w[..., -1, :]]
    total = 0.0
    for cells in walls:  # (2, n) stacked pairs of wall cells, or (2,) in 1D
        cells = cells.reshape(2, -1)
        total = total + np.sum(eval_p(c, sign * cells) - eval_p(c, cells), axis=-1)
    return grid.h ** (grid.dim - 2) * total


def mass_balance_residual(c, grid, bc, steps=200):
    """Largest per-step relative residual of mass(n+1) - mass(n) =
    dt (wall flux + integral of l - q) over ``steps`` explicit steps at
    half the stability bound of the desk data."""
    w = bump_pair(grid)
    dt = 0.5 * reference_bound(c, grid, w)
    vol = grid.cell_volume
    worst = 0.0
    for _ in range(steps):
        new = step_explicit(c, grid, w, bc, dt)
        mass, mass_new = vol * flat(w, grid.dim).sum(-1), vol * flat(new, grid.dim).sum(-1)
        source = vol * (eval_l(c, flat(w, grid.dim)) - eval_q(c, flat(w, grid.dim))).sum(-1)
        gap = (mass_new - mass) - dt * (wall_flux(c, grid, w, bc) + source)
        worst = max(worst, float(np.max(np.abs(gap) / np.maximum(abs(mass), abs(mass_new)))))
        w = new
    return worst


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 24)])
@pytest.mark.parametrize("bc", [NEU, DIR])
def test_explicit_step_balances_mass_with_wall_flux_and_reactions(dim, n, bc, monkeypatch):
    grid = Grid(dim, 1.0, n)
    assert mass_balance_residual(CFG_A, grid, bc) <= 1e-13

    def seeded_extend(arr, bc, dim):
        ext = _extend(arr, bc, dim)
        ext[..., 0] *= 1.0 + 1e-3  # the first ghost (column) along the last axis
        return ext

    monkeypatch.setattr(sktsim.forward, "_extend", seeded_extend)
    assert mass_balance_residual(CFG_A, grid, bc) > 1e-13
