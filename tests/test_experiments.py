import copy
import math
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from helpers import DIR, NEU, frozen_alone

import sktsim.adjoint
import sktsim.algebra
import sktsim.campaigns
import sktsim.experiments
import sktsim.grid
from sktsim.adjoint import (
    AdjointRHSKind,
    run_adjoint,
    step_adjoint_transpose,
    theta_eps,
)
from sktsim.algebra import CFG_A, Coefficients, eval_l
from sktsim.campaigns import (
    CheckResult,
    _exact_transpose_duality,
    _ratios,
    campaign_algebra,
    run_campaign,
)
from sktsim.config import parse_config
from sktsim.experiments import (
    TINY_EPS,
    chi_basis,
    continuous_dependence_experiment,
    frozen_duality_check,
    scalar_reduction_check,
    uniqueness_experiment,
)
from sktsim.forward import ForwardProblem, SchemeKind, TimeGrid, _march, run_forward
from sktsim.grid import Grid, NumericalFailure, h1_norms, inner
from sktsim.mms import bump_profile


def smooth_initial(grid):
    return np.stack((bump_profile(grid, 0.5 * grid.length, 0.3 * grid.length, 1.0) + 0.2,
                     bump_profile(grid, 0.4 * grid.length, 0.25 * grid.length, 0.6) + 0.2))


def normalized_bump(grid):
    w = bump_profile(grid, 0.55 * grid.length, 0.2 * grid.length, 1.0)
    f = np.stack((w, 0.5 * w))
    return (1.0 / math.sqrt(inner(grid, f, f))) * f


def _branch_chi_basis(grid, bc):
    # The terminal basis written out per dimension and wall.
    L = grid.length
    if grid.dim == 1:
        x = grid.centers()
        if bc is NEU:
            profiles = [np.ones(grid.shape)] + [np.cos(k * np.pi * x / L) for k in (1, 2)]
        else:
            profiles = [np.sin(k * np.pi * x / L) for k in (1, 2, 3)]
    else:
        X, Y = grid.meshgrid()
        if bc is NEU:
            profiles = [np.cos(i * np.pi * X / L) * np.cos(j * np.pi * Y / L)
                        for i, j in [(0, 0), (1, 0), (0, 1)]]
        else:
            profiles = [np.sin(i * np.pi * X / L) * np.sin(j * np.pi * Y / L)
                        for i, j in [(1, 1), (2, 1), (1, 2)]]
    zero = np.zeros(grid.shape)
    basis = np.array([pair for prof in profiles for pair in ((prof, zero), (zero, prof))])
    h1 = h1_norms(grid, basis, bc)
    scale = np.sqrt(h1[:, 0] ** 2 + h1[:, 1] ** 2)
    return (1.0 / scale).reshape((-1,) + (1,) * (grid.dim + 1)) * basis


@pytest.mark.parametrize("dim,n", [(1, 32), (2, 12)], ids=["1d", "2d"])
@pytest.mark.parametrize("bc", [NEU, DIR], ids=["neumann", "dirichlet"])
def test_chi_basis_normalized_and_bc_exact(dim, n, bc):
    grid = Grid(dim, 1.0, n)
    basis = chi_basis(grid, bc)
    assert basis.shape == (6, 2, *grid.shape)
    for hu, hv in h1_norms(grid, basis, bc).tolist():
        assert math.sqrt(hu ** 2 + hv ** 2) == pytest.approx(1.0, rel=1e-12)
    assert basis.tobytes() == _branch_chi_basis(grid, bc).tobytes()


def test_scalar_reduction_check_on_manufactured_series():
    times = np.linspace(0.0, 1.0, 33)
    a1 = 1.7
    series = 0.37 * np.exp((a1 - 1.0) * times)
    assert scalar_reduction_check(times, series, a1) <= 1e-12
    assert scalar_reduction_check(times, np.zeros_like(times), a1) == 0.0
    broken = series.copy()
    broken[-1] *= 1.5
    assert scalar_reduction_check(times, broken, a1) > 1e-3


def test_frozen_duality_residual_is_machine_zero():
    grid = Grid(1, 1.0, 16)
    x = grid.centers()
    u_tilde = np.stack((1.0 + 0.5 * np.cos(np.pi * x), 0.8 + 0.3 * np.cos(2 * np.pi * x)))
    u_bar0 = np.stack((0.1 * np.sin(2 * np.pi * x) + 0.2, 0.05 * np.cos(np.pi * x)))
    chi = np.stack((np.cos(np.pi * x), np.ones(grid.shape)))
    res = frozen_duality_check(CFG_A, grid, NEU, TimeGrid(0.02, 2e-4), u_tilde, u_bar0, chi)
    assert res <= 1e-10


def test_frozen_duality_check_rejects_a_step_that_does_not_divide_the_horizon():
    # 0.02 / 3e-4 = 66.7 steps: rounding to 67 would march to t = 0.0201.
    # The check takes a validated TimeGrid, and TimeGrid refuses this step.
    grid = Grid(1, 1.0, 8)
    ones = np.ones((2, *grid.shape))
    with pytest.raises(ValueError, match="does not divide"):
        frozen_duality_check(CFG_A, grid, NEU, TimeGrid(0.02, 3e-4), ones, ones, ones)


def _drop_cross_diffusion(monkeypatch):
    # A transpose step that drops the off-diagonal diffusion coupling P12, P21:
    # the real step on the frozen state it is handed, with that state's
    # transposed off-diagonal of P set to zero.
    step = sktsim.experiments.step_adjoint_transpose

    def no_cross_diffusion(c, grid, phi, frozen, bc, dt, rhs):
        uncoupled = frozen._replace(p_off_t=np.zeros_like(frozen.p_off_t))
        return step(c, grid, phi, uncoupled, bc, dt, rhs)

    monkeypatch.setattr(sktsim.experiments, "step_adjoint_transpose", no_cross_diffusion)


def _perturb_stencil_weight(monkeypatch):
    # The shared 1D Laplacian stencil with its right-neighbour weight scaled by (1 + 1e-3).
    # The difference step and the transpose step both use it, but the
    # Laplacian is no longer symmetric, so the one is no longer the
    # transpose of the other.
    stencil = sktsim.grid._lap_stencil

    def lopsided(ext, h, dim):
        return stencil(ext, h, dim) + 1e-3 * ext[..., 2:] / h ** 2

    monkeypatch.setattr(sktsim.grid, "_lap_stencil", lopsided)


@pytest.mark.parametrize("seed_defect", [_drop_cross_diffusion, _perturb_stencil_weight],
                         ids=["drop-cross-diffusion", "perturb-stencil-weight"])
def test_exact_transpose_duality_gate_fails_on_seeded_defect(monkeypatch, seed_defect):
    # The gate passes on the real steps and must see each seeded defect.
    assert _exact_transpose_duality(CFG_A).passed
    seed_defect(monkeypatch)
    result = _exact_transpose_duality(CFG_A)
    assert not result.passed
    assert result.line().startswith("FAIL  exact-transpose-duality")


def _scale_u_row(monkeypatch, column):
    # Every Coefficients built from here on carries the u-row entry of the
    # coefficient column ``column`` times (1 + 1e-3).
    of = sktsim.algebra._SpeciesColumns.of.__func__

    def seeded(cls, c):
        columns = of(cls, c)
        scaled = getattr(columns, column) * np.array([[1.0 + 1e-3], [1.0]])
        return columns._replace(**{column: scaled})

    monkeypatch.setattr(sktsim.algebra._SpeciesColumns, "of", classmethod(seeded))


@pytest.mark.parametrize("column,gate", [("p_off", "jacobian-consistency"),
                                         ("a_v", "mean-value-identities")],
                         ids=["jacobian-P12", "flux-a12"])
def test_algebra_gates_fail_on_seeded_defect_in_the_stacked_maps(monkeypatch, tmp_path,
                                                                   column, gate):
    # P12 = a12 u in the flux Jacobian (column p_off) or the a12 v u term of
    # the flux map (column a_v), scaled in the coefficient columns that the
    # marches read: the gate on the public maps must see it.
    config = Path(__file__).resolve().parent.parent / "configs" / "cfg_a_1d.cfg"

    def gate_result():
        results = campaign_algebra(parse_config(config), tmp_path)
        return next(r for r in results if r.name == gate)

    assert gate_result().passed
    _scale_u_row(monkeypatch, column)
    result = gate_result()
    assert not result.passed
    assert result.line().startswith(f"FAIL  {gate}")


def _loosen_coefficient_condition(monkeypatch):
    # The shared predicate with the coefficient condition loosened from 8 to
    # 80: a12^2 < 80 a11 a21 is a12^2 < 8 (10 a11) a21, and likewise for
    # a21^2 with 10 a22.  Condition (1.5c) is left as it is.
    admissible = sktsim.algebra.admissible

    def loosened(a11, a12, a21, a22):
        return admissible(a11, a12, a21, a22)[0], admissible(10 * a11, a12, a21, 10 * a22)[1]

    monkeypatch.setattr(sktsim.algebra, "admissible", loosened)
    monkeypatch.setattr(sktsim.campaigns, "admissible", loosened)


def _inflate_max_alpha(monkeypatch):
    # A positivity margin 1 % above the largest one the coefficients certify.
    max_alpha = sktsim.algebra.max_alpha
    monkeypatch.setattr(sktsim.campaigns, "max_alpha", lambda c: 1.01 * max_alpha(c))


@pytest.mark.parametrize("seed_defect,gate", [
    (_loosen_coefficient_condition, "condition-implication"),
    (_inflate_max_alpha, "positivity-certificate")], ids=["loosened-8-to-80", "alpha-1.01"])
def test_algebra_gates_fail_on_seeded_defect_in_the_conditions(monkeypatch, tmp_path,
                                                                seed_defect, gate):
    # condition-implication evaluates the predicate that check_conditions
    # evaluates, so loosening that one predicate must show as
    # counterexamples; the certificate must see a margin it cannot certify.
    cfg = parse_config(Path(__file__).resolve().parent.parent / "configs" / "cfg_a_1d.cfg")

    def gate_result():
        return next(r for r in campaign_algebra(cfg, tmp_path) if r.name == gate)

    assert gate_result().passed
    seed_defect(monkeypatch)
    result = gate_result()
    assert not result.passed
    assert result.line().startswith(f"FAIL  {gate}")
    if gate == "condition-implication":
        assert not result.detail.startswith("0 counterexamples"), result.detail
    else:
        assert "min margin -" in result.detail, result.detail


def test_certificate_consumes_exactly_its_three_million_draws(monkeypatch, tmp_path):
    # The certificate draws u, v and theta, 10^6 each, one chunk at a time
    # from the campaign's generator.  It consumes exactly 3 * 10^6 uniform
    # draws, so the inverse-bound samples and, after them, the
    # jacobian-consistency states are the draws that follow those.
    cfg = parse_config(Path(__file__).resolve().parent.parent / "configs" / "cfg_a_1d.cfg")
    generators, samples = [], []
    default_rng, inverse_norm_check = np.random.default_rng, sktsim.campaigns.inverse_norm_check

    def recording_rng(seed):
        generators.append(default_rng(seed))
        return generators[-1]

    def recording_check(c, w):
        samples.append(w.copy())
        return inverse_norm_check(c, w)

    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    monkeypatch.setattr(sktsim.campaigns, "inverse_norm_check", recording_check)
    verdicts = campaign_algebra(cfg, tmp_path)
    assert [next(verdicts).name for _ in range(2)] == ["mean-value-identities",
                                                         "condition-implication"]
    (rng,) = generators
    after = np.random.Generator(copy.deepcopy(rng.bit_generator).advance(3 * 10 ** 6))
    expected = after.uniform(0, 200, (2, 10_000))
    after.uniform(-5.0, 5.0, (100, 2, 1))
    assert all(r.passed for r in verdicts)
    assert len(samples) == 1 and np.array_equal(samples[0], expected)
    assert rng.bit_generator.state == after.bit_generator.state


def test_check_result_line_shows_elapsed_time():
    result = CheckResult("mass-conservation", True, "drift 1e-15", elapsed=0.1234)
    assert result.line() == "PASS  mass-conservation: drift 1e-15 (0.12 s)"


def test_run_campaign_times_every_gate(tmp_path):
    # Campaigns yield their verdicts and read no clock; run_campaign gives
    # each one the time since the previous verdict, so every gate has a
    # measured time and together they fit inside the call.
    cfg = parse_config(Path(__file__).resolve().parent.parent / "configs" / "cfg_a_1d.cfg")
    t0 = time.perf_counter()
    results = run_campaign("dependence", cfg, tmp_path)
    wall = time.perf_counter() - t0
    assert [r.name for r in results] == ["weak-norm-slope", "kappa-stability",
                                         "dual-exponent-table", "product-term-linearity"]
    assert all(r.elapsed > 0.0 for r in results), [r.line() for r in results]
    assert sum(r.elapsed for r in results) <= wall


def uniq_levels(count=2, base_n=16, T=0.05, steps=512, dim=1):
    # (N, dt) -> (2N, dt/2) per level, from base_n cells and T / steps.
    return [(Grid(dim, 1.0, base_n * 2 ** k), TimeGrid(T, T / steps / 2 ** k))
            for k in range(count)]


def test_uniqueness_identical_schemes_give_exact_zero(monkeypatch):
    monkeypatch.setattr(sktsim.experiments, "_SCHEMES",
                        (SchemeKind.IMEX_LAGGED, SchemeKind.IMEX_LAGGED))
    table = uniqueness_experiment(CFG_A, NEU, uniq_levels(1), smooth_initial)
    assert table["max_pairing"].tolist() == [0.0]
    assert table["max_residual"].tolist() == [0.0]
    assert table["reduction_deviation"].tolist() == [0.0]


def test_uniqueness_pairings_shrink_under_refinement():
    table = uniqueness_experiment(CFG_A, NEU, uniq_levels(2), smooth_initial)
    assert np.all(table["sbp_gap"] <= 1e-10)
    assert table["max_pairing"][0] > 0.0
    assert _ratios(table["max_pairing"])[0] >= 2.0
    assert _ratios(table["reduction_deviation"])[0] >= 1.8


def test_dependence_slope_and_kappa_stability():
    grid, tg = Grid(1, 1.0, 48), TimeGrid(0.2, 0.2 / 400)
    table, slopes, kappas = continuous_dependence_experiment(
        CFG_A, NEU, grid, tg, smooth_initial(grid), normalized_bump(grid))
    # one row per (tau, delta), tau-major
    assert table["tau"].tolist() == [tau for tau in (0.05, 0.1, 0.2) for _ in range(3)]
    assert table["delta"].tolist() == [1e-3, 1e-2, 1e-1] * 3
    for slope in slopes:
        assert slope == pytest.approx(1.0, abs=0.15)
    assert max(kappas) / min(kappas) < 2.0
    # the initial-data bound holds with the fitted constant of each tau
    bound = table["input_l2"] + np.repeat(kappas, 3) * table["input_lq"]
    assert np.all(table["weak_norm"] <= bound * (1 + 1e-12))
    # product-form ingredient is exactly linear in the initial L2 size
    assert table["ing49"] == pytest.approx(math.sqrt(tg.t_final) * table["input_l2"], rel=1e-12)


def _reference_uniqueness_level(c, bc, grid, tg):
    # The per-element computation: one transpose march per basis element,
    # on the path of uniqueness_experiment (step_adjoint_transpose through
    # forward._march on the truncated average of the two stride-1
    # trajectories), every pairing one inner() of two single pairs.
    dt = tg.dt
    t1, t2 = (run_forward(ForwardProblem(c, grid, bc, tg, scheme, smooth_initial(grid), stride=1))
              for scheme in sktsim.experiments._SCHEMES)
    u_bars = [t1.levels[i] - t2.levels[i] for i in range(len(t1.stored_steps))]
    times = np.asarray(t1.stored_steps, dtype=float) * dt
    ref = {"snapshots": [], "pairings": [], "series": [], "residuals": [], "deviations": []}

    def step(phi, n):
        state = theta_eps(TINY_EPS, 0.5 * (t1.levels[n] + t2.levels[n]))
        return step_adjoint_transpose(c, grid, phi, frozen_alone(c, grid, state), bc, dt,
                                      AdjointRHSKind.IDENTITY)

    for chi in chi_basis(grid, bc):
        phis = list(_march(step, grid, chi, tg.steps, 0, dt))
        series = np.array([float(inner(grid, ub, ph)) for ub, ph in zip(u_bars, phis)])
        residual = []
        for n in range(len(u_bars) - 1):
            lbar = eval_l(c, u_bars[n].reshape(2, -1)).reshape(u_bars[n].shape)
            residual.append((series[n + 1] - series[n]) / dt + inner(grid, u_bars[n], phis[n + 1])
                            - inner(grid, lbar, phis[n + 1]))
        ref["snapshots"].append(np.array(phis))
        ref["pairings"].append(float(inner(grid, u_bars[-1], chi)))
        ref["series"].append(series)
        ref["residuals"].append(np.abs(residual))
        ref["deviations"].append(scalar_reduction_check(times, series, c.a1))
    return ref


def _close(batched, reference, scale):
    return np.max(np.abs(np.asarray(batched) - np.asarray(reference))) <= 1e-14 * scale


@pytest.mark.parametrize("case", ["1d-neumann", "2d-dirichlet"])
def test_batched_uniqueness_matches_per_element_marches(monkeypatch, case):
    # The terminal basis marches as one batch. Batched results must match
    # the per-problem results to <= 1e-14 relative: adjoint snapshots, the
    # largest endpoint pairing and the largest reduction deviation relative
    # to their largest value; the largest residual, a difference quotient
    # over dt, relative to max|p_n| / dt.
    if case == "1d-neumann":
        bc, levels = NEU, uniq_levels(2, base_n=8, T=0.01, steps=64)
    else:
        bc, levels = DIR, uniq_levels(1, base_n=8, T=0.004, steps=32, dim=2)
    marches = []
    march = sktsim.experiments._march

    def recording(*args, **kwargs):
        marches.append(march(*args, **kwargs))
        return marches[-1]

    monkeypatch.setattr(sktsim.experiments, "_march", recording)
    table = uniqueness_experiment(CFG_A, bc, levels, smooth_initial)
    assert len(marches) == len(table["n"]) == len(levels)
    for k, (phi, (grid, tg)) in enumerate(zip(marches, levels)):
        ref = _reference_uniqueness_level(CFG_A, bc, grid, tg)
        assert phi.shape[0] == len(ref["pairings"]) == 6
        snapshots = np.array(ref["snapshots"])
        assert _close(phi, snapshots, np.max(np.abs(snapshots)))
        pairing = np.max(np.abs(ref["pairings"]))
        assert pairing > 0.0
        assert _close(table["max_pairing"][k], pairing, pairing)
        assert _close(table["reduction_deviation"][k], max(ref["deviations"]),
                      max(ref["deviations"]))
        p_max = np.max(np.abs(ref["series"]))
        assert _close(table["max_residual"][k], np.max(ref["residuals"]),
                      p_max / table["dt"][k])
        assert table["sbp_gap"][k] <= 1e-10


def test_uniqueness_campaign_marches_the_basis_as_one_batch(tmp_path, monkeypatch):
    # Three levels, one batched march of the 6-element basis each, and for
    # the exact-transpose-duality gate one unbatched march of the difference
    # and one march of a single terminal field; no per-element run_adjoint.
    adjoint_calls = []
    batch_shapes = []
    march = sktsim.experiments._march

    def counting_adjoint(*args, **kwargs):
        adjoint_calls.append(args)
        return run_adjoint(*args, **kwargs)

    def counting_march(advance, grid, phi, *args):
        batch_shapes.append(phi.shape[:phi.ndim - 1 - grid.dim])
        return march(advance, grid, phi, *args)

    monkeypatch.setattr(sktsim.adjoint, "run_adjoint", counting_adjoint)
    monkeypatch.setattr(sktsim.campaigns, "run_adjoint", counting_adjoint)
    monkeypatch.setattr(sktsim.experiments, "_march", counting_march)
    cfg = parse_config(Path(__file__).resolve().parent.parent / "configs" / "cfg_a_1d.cfg")
    results = run_campaign("uniqueness", cfg, tmp_path)
    assert all(r.passed for r in results), [r.line() for r in results if not r.passed]
    assert adjoint_calls == []
    assert batch_shapes == [(6,), (6,), (6,), (), (1,)]


def test_uniqueness_blowup_raises_numerical_failure_with_step(monkeypatch):
    # The third backward step (level S - 3) overflows to a non-finite field.
    levels = uniq_levels(1)
    steps, dt = levels[0][1].steps, levels[0][1].dt
    calls = []
    step = sktsim.experiments.step_adjoint_transpose

    def overflowing(c, grid, phi, state, bc, dt, rhs):
        calls.append(dt)
        out = step(c, grid, phi, state, bc, dt, rhs)
        if len(calls) == 3:
            return np.stack((out[..., 0, :] * 1e308 * 1e308, out[..., 1, :]), axis=-2)
        return out

    monkeypatch.setattr(sktsim.experiments, "step_adjoint_transpose", overflowing)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure) as err:
            uniqueness_experiment(CFG_A, NEU, levels, smooth_initial)
    assert err.value.step == steps - 3
    assert err.value.t == pytest.approx((steps - 3) * dt)
    assert str(err.value).startswith(f"step {steps - 3} (t=")
