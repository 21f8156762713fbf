import math
import warnings
from pathlib import Path

import numpy as np
import pytest

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
from sktsim.algebra import CFG_A, Coefficients, eval_l, jac_P, jac_Q
from sktsim.campaigns import CheckResult, _exact_transpose_duality, campaign_algebra, run_campaign
from sktsim.config import parse_config
from sktsim.experiments import (
    TINY_EPS,
    DependenceConfig,
    UniquenessConfig,
    chi_basis,
    continuous_dependence_experiment,
    frozen_duality_check,
    scalar_reduction_check,
    uniqueness_experiment,
)
from sktsim.forward import ForwardProblem, SchemeKind, TimeGrid, _march, run_forward
from sktsim.grid import BoundaryCondition, Grid, NumericalFailure, h1_norms, inner, laplacian
from sktsim.mms import bump_profile

NEU = BoundaryCondition.NEUMANN
DIR = BoundaryCondition.DIRICHLET


def smooth_initial(grid):
    return np.stack((bump_profile(grid, 0.5 * grid.length, 0.3 * grid.length, 1.0) + 0.2,
                     bump_profile(grid, 0.4 * grid.length, 0.25 * grid.length, 0.6) + 0.2))


def normalized_bump(grid):
    w = bump_profile(grid, 0.55 * grid.length, 0.2 * grid.length, 1.0)
    f = np.stack((w, 0.5 * w))
    return (1.0 / math.sqrt(inner(grid, f, f))) * f


def test_chi_basis_normalized_and_bc_exact():
    grid = Grid(1, 1.0, 32)
    for bc in (NEU, DIR):
        labels, basis = chi_basis(grid, bc, modes=2)
        assert len(labels) == 6 and basis.shape == (6, 2, *grid.shape)
        for hu, hv in h1_norms(grid, basis, bc).tolist():
            assert math.sqrt(hu ** 2 + hv ** 2) == pytest.approx(1.0, rel=1e-12)


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
    res = frozen_duality_check(CFG_A, grid, NEU, T=0.02, dt=2e-4,
                               u_tilde=u_tilde, u_bar0=u_bar0, chi=chi)
    assert res <= 1e-10


def test_frozen_duality_check_rejects_a_step_that_does_not_divide_the_horizon():
    # 0.02 / 3e-4 = 66.7 steps: rounding to 67 would march to t = 0.0201.
    grid = Grid(1, 1.0, 8)
    ones = np.ones((2, *grid.shape))
    with pytest.raises(ValueError, match="does not divide"):
        frozen_duality_check(CFG_A, grid, NEU, T=0.02, dt=3e-4, u_tilde=ones, u_bar0=ones,
                             chi=ones)


def _drop_cross_diffusion(monkeypatch):
    # A transpose step that drops the off-diagonal diffusion coupling P12, P21.
    def no_cross_diffusion(c, grid, phi, u_tilde, bc, dt, rhs):
        lap = laplacian(grid, phi, bc)
        (p11, p22), _ = jac_P(c, u_tilde)
        (q11, q22), (q12, q21) = jac_Q(c, u_tilde)
        u, v, lap_u, lap_v = phi[..., 0, :], phi[..., 1, :], lap[..., 0, :], lap[..., 1, :]
        return np.stack((u + dt * (p11 * lap_u - q11 * u - q21 * v + u),
                         v + dt * (p22 * lap_v - q12 * u - q22 * v + v)), axis=-2)

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


def test_check_result_line_shows_elapsed_time():
    result = CheckResult("mass-conservation", True, "drift 1e-15", elapsed=0.1234)
    assert result.line() == "PASS  mass-conservation: drift 1e-15 (0.12 s)"


def uniq_config(levels=2, base_n=16, T=0.05):
    steps = 512
    return UniquenessConfig(
        coefficients=CFG_A, bc=NEU, dim=1, length=1.0, base_n=base_n,
        t_final=T, base_dt=T / steps, initial=smooth_initial, levels=levels, modes=1)


def test_uniqueness_identical_schemes_give_exact_zero(monkeypatch):
    cfg = uniq_config(levels=1)
    monkeypatch.setattr(sktsim.experiments, "_SCHEMES",
                        (SchemeKind.IMEX_LAGGED, SchemeKind.IMEX_LAGGED))
    report = uniqueness_experiment(cfg)
    level = report.levels[0]
    assert level.max_pairing == 0.0
    assert level.max_residual == 0.0
    assert level.reduction_deviation == 0.0


def test_uniqueness_pairings_shrink_under_refinement():
    report = uniqueness_experiment(uniq_config(levels=2))
    assert all(lv.sbp_gap <= 1e-10 for lv in report.levels)
    assert report.levels[0].max_pairing > 0.0
    assert report.pairing_ratios[0] >= 2.0
    assert report.reduction_ratios[0] >= 1.8


def test_dependence_slope_and_kappa_stability():
    cfg = DependenceConfig(
        coefficients=CFG_A, bc=NEU, dim=1, length=1.0, n=48,
        t_final=0.2, dt=0.2 / 400,
        base_initial=smooth_initial, perturbation=normalized_bump)
    report = continuous_dependence_experiment(cfg)
    assert report.q_exponent == pytest.approx(4.0 / 3.0)
    for tau in report.taus:
        assert report.slopes[tau] == pytest.approx(1.0, abs=0.15)
    kappas = [report.kappa_fit[tau] for tau in report.taus]
    assert max(kappas) / min(kappas) < 2.0
    # the initial-data bound holds with the fitted constant
    for tau in report.taus:
        for j, delta in enumerate(report.deltas):
            bound = report.input_l2[j] + report.kappa_fit[tau] * report.input_lq[j]
            assert report.weak_norms[tau][j] <= bound * (1 + 1e-12)
    # product-form ingredient is exactly linear in the initial L2 size
    for j in range(len(report.deltas)):
        assert report.ingredient_49[j] == pytest.approx(
            math.sqrt(cfg.t_final) * report.input_l2[j], rel=1e-12)


def _reference_uniqueness_level(cfg, k):
    # The per-element computation: one transpose march per basis element,
    # on the path of uniqueness_experiment (step_adjoint_transpose through
    # forward._march on the truncated average of the two stride-1
    # trajectories), every pairing one inner() of two single pairs.
    c = cfg.coefficients
    grid = Grid(cfg.dim, cfg.length, cfg.base_n * 2 ** k)
    dt = cfg.base_dt / 2 ** k
    tg = TimeGrid(cfg.t_final, dt)
    t1, t2 = (run_forward(ForwardProblem(c, grid, cfg.bc, tg, scheme, cfg.initial(grid), stride=1))
              for scheme in sktsim.experiments._SCHEMES)
    u_bars = [t1.levels[i] - t2.levels[i] for i in range(len(t1.stored_steps))]
    times = np.asarray(t1.stored_steps, dtype=float) * dt
    ref = {"snapshots": [], "pairings": {}, "series": [], "residuals": [], "deviations": []}
    for label, chi in zip(*chi_basis(grid, cfg.bc, cfg.modes)):
        phis = list(_march(lambda phi, n: step_adjoint_transpose(
            c, grid, phi, theta_eps(TINY_EPS, 0.5 * (t1.levels[n] + t2.levels[n])), cfg.bc, dt,
            AdjointRHSKind.IDENTITY), grid, chi, tg.steps, 0, dt))
        series = np.array([float(inner(grid, ub, ph)) for ub, ph in zip(u_bars, phis)])
        residual = []
        for n in range(len(u_bars) - 1):
            lbar = eval_l(c, u_bars[n].reshape(2, -1)).reshape(u_bars[n].shape)
            residual.append((series[n + 1] - series[n]) / dt + inner(grid, u_bars[n], phis[n + 1])
                            - inner(grid, lbar, phis[n + 1]))
        ref["snapshots"].append(np.array(phis))
        ref["pairings"][label] = float(inner(grid, u_bars[-1], chi))
        ref["series"].append(series)
        ref["residuals"].append(np.abs(residual))
        ref["deviations"].append(scalar_reduction_check(times, series, c.a1))
    return ref


def _close(batched, reference, scale):
    return np.max(np.abs(np.asarray(batched) - np.asarray(reference))) <= 1e-14 * scale


@pytest.mark.parametrize("case", ["1d-neumann", "2d-dirichlet"])
def test_batched_uniqueness_matches_per_element_marches(monkeypatch, case):
    # The terminal basis marches as one batch. Batched results must match
    # the per-problem results to <= 1e-14 relative: adjoint snapshots,
    # pairings and reduction deviations relative to their largest value; the
    # residual, a difference quotient over dt, relative to max|p_n| / dt.
    if case == "1d-neumann":
        cfg = uniq_config(levels=2, base_n=8, T=0.01)
        cfg.base_dt, cfg.modes = 0.01 / 64, 2
    else:
        cfg = UniquenessConfig(
            coefficients=CFG_A, bc=DIR, dim=2, length=1.0, base_n=8, t_final=0.004,
            base_dt=0.004 / 32, initial=smooth_initial, levels=1, modes=2)
    marches = []
    march = sktsim.experiments._march

    def recording(*args, **kwargs):
        marches.append(march(*args, **kwargs))
        return marches[-1]

    monkeypatch.setattr(sktsim.experiments, "_march", recording)
    report = uniqueness_experiment(cfg)
    assert len(marches) == len(report.levels) == cfg.levels
    for k, (level, levels) in enumerate(zip(report.levels, marches)):
        ref = _reference_uniqueness_level(cfg, k)
        assert levels.shape[0] == len(ref["pairings"]) == 6
        snapshots = np.array(ref["snapshots"])
        assert _close(levels, snapshots, np.max(np.abs(snapshots)))
        assert list(level.pairings) == list(ref["pairings"])
        pairings = np.array(list(ref["pairings"].values()))
        assert np.max(np.abs(pairings)) > 0.0
        assert _close(list(level.pairings.values()), pairings, np.max(np.abs(pairings)))
        assert _close(level.reduction_deviation, max(ref["deviations"]), max(ref["deviations"]))
        p_max = np.max(np.abs(ref["series"]))
        assert _close(level.residual_series, np.max(ref["residuals"], axis=0), p_max / level.dt)
        assert level.sbp_gap <= 1e-10


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
    cfg = uniq_config(levels=1)
    steps = round(cfg.t_final / cfg.base_dt)
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
            uniqueness_experiment(cfg)
    assert err.value.step == steps - 3
    assert err.value.t == pytest.approx((steps - 3) * cfg.base_dt)
    assert str(err.value).startswith(f"step {steps - 3} (t=")
