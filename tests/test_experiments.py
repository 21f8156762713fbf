import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import sktsim.adjoint
import sktsim.campaigns
import sktsim.experiments
import sktsim.grid
from sktsim.adjoint import AdjointMode, AdjointRHSKind, run_adjoint
from sktsim.algebra import CFG_A, Coefficients, SpeciesPair, eval_l, jac_P, jac_Q
from sktsim.campaigns import CheckResult, _exact_transpose_duality, run_campaign
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
from sktsim.forward import ForwardProblem, SchemeKind, TimeGrid, run_forward
from sktsim.grid import BoundaryCondition, FieldPair, Grid, NumericalFailure, h1_norms, inner, laplacian
from sktsim.mms import bump_profile

NEU = BoundaryCondition.NEUMANN
DIR = BoundaryCondition.DIRICHLET


def smooth_initial(grid):
    return FieldPair(grid,
                     bump_profile(grid, 0.5 * grid.length, 0.3 * grid.length, 1.0) + 0.2,
                     bump_profile(grid, 0.4 * grid.length, 0.25 * grid.length, 0.6) + 0.2)


def normalized_bump(grid):
    w = bump_profile(grid, 0.55 * grid.length, 0.2 * grid.length, 1.0)
    f = np.stack((w, 0.5 * w))
    u, v = (1.0 / math.sqrt(inner(grid, f, f))) * f
    return FieldPair(grid, u, v)


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
    u_tilde = FieldPair(grid, 1.0 + 0.5 * np.cos(np.pi * x),
                        0.8 + 0.3 * np.cos(2 * np.pi * x))
    u_bar0 = FieldPair(grid, 0.1 * np.sin(2 * np.pi * x) + 0.2,
                       0.05 * np.cos(np.pi * x))
    chi = FieldPair(grid, np.cos(np.pi * x), np.ones(grid.shape))
    res = frozen_duality_check(CFG_A, grid, NEU, T=0.02, dt=2e-4,
                               u_tilde=u_tilde, u_bar0=u_bar0, chi=chi)
    assert res <= 1e-10


def _drop_cross_diffusion(monkeypatch):
    # A transpose step that drops the off-diagonal diffusion coupling P12, P21.
    def no_cross_diffusion(c, grid, phi, u_tilde, bc, dt, rhs):
        lap = laplacian(grid, phi, bc)
        s = SpeciesPair(u_tilde[0], u_tilde[1])
        P, Q = jac_P(c, s), jac_Q(c, s)
        u, v, lap_u, lap_v = phi[..., 0, :], phi[..., 1, :], lap[..., 0, :], lap[..., 1, :]
        return np.stack((u + dt * (P.m11 * lap_u - Q.m11 * u - Q.m21 * v + u),
                         v + dt * (P.m22 * lap_v - Q.m12 * u - Q.m22 * v + v)), axis=-2)

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
    # The per-element computation: one transpose-mode run_adjoint per basis
    # element, every pairing one inner() of two single pairs.
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
        phi_traj, _ = run_adjoint(c, cfg.bc, (t1, t2), TINY_EPS, AdjointRHSKind.IDENTITY,
                                  FieldPair(grid, chi[0], chi[1]), mode=AdjointMode.TRANSPOSE,
                                  stride=1)
        phis = [phi_traj.levels[i] for i in range(len(phi_traj.stored_steps))]
        series = np.array([float(inner(grid, ub, ph)) for ub, ph in zip(u_bars, phis)])
        residual = []
        for n in range(len(u_bars) - 1):
            lbar = eval_l(c, SpeciesPair(u_bars[n][0], u_bars[n][1]))
            residual.append((series[n + 1] - series[n]) / dt + inner(grid, u_bars[n], phis[n + 1])
                            - inner(grid, np.stack((lbar.u, lbar.v)), phis[n + 1]))
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
