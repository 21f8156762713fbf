import math

import numpy as np
import pytest

import sktsim.experiments
import sktsim.grid
from sktsim.algebra import CFG_A, Coefficients, SpeciesPair, jac_P, jac_Q
from sktsim.campaigns import CheckResult, _exact_transpose_duality
from sktsim.experiments import (
    DependenceConfig,
    UniquenessConfig,
    chi_basis,
    continuous_dependence_experiment,
    frozen_duality_check,
    scalar_reduction_check,
    uniqueness_experiment,
    weak_form_residual,
)
from sktsim.forward import ForwardProblem, SchemeKind, TimeGrid, run_forward
from sktsim.grid import BoundaryCondition, FieldPair, Grid, laplacian, norms
from sktsim.mms import bump_profile, heat_limit_coefficients, polynomial_neumann_solution

NEU = BoundaryCondition.NEUMANN
DIR = BoundaryCondition.DIRICHLET


def smooth_initial(grid):
    return FieldPair(grid,
                     bump_profile(grid, 0.5 * grid.length, 0.3 * grid.length, 1.0) + 0.2,
                     bump_profile(grid, 0.4 * grid.length, 0.25 * grid.length, 0.6) + 0.2)


def normalized_bump(grid):
    w = bump_profile(grid, 0.55 * grid.length, 0.2 * grid.length, 1.0)
    f = FieldPair(grid, w, 0.5 * w)
    return (1.0 / norms(f, NEU).l2) * f


def test_chi_basis_normalized_and_bc_exact():
    grid = Grid(1, 1.0, 32)
    for bc in (NEU, DIR):
        basis = chi_basis(grid, bc, modes=2)
        assert len(basis) == 6
        for label, chi in basis:
            assert norms(chi, bc).h1 == pytest.approx(1.0, rel=1e-12)


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
    def no_cross_diffusion(c, phi, u_tilde, bc, dt, rhs):
        lap = laplacian(phi, bc)
        s = SpeciesPair(u_tilde.u, u_tilde.v)
        P, Q = jac_P(c, s), jac_Q(c, s)
        return FieldPair(phi.grid,
                         phi.u + dt * (P.m11 * lap.u - Q.m11 * phi.u - Q.m21 * phi.v + phi.u),
                         phi.v + dt * (P.m22 * lap.v - Q.m12 * phi.u - Q.m22 * phi.v + phi.v))

    monkeypatch.setattr(sktsim.experiments, "step_adjoint_transpose", no_cross_diffusion)


def _perturb_stencil_weight(monkeypatch):
    # The shared 1D stencil with its right-neighbour weight scaled by (1 + 1e-3).
    # The difference step and the transpose step both use it, but the
    # Laplacian is no longer symmetric, so the one is no longer the
    # transpose of the other.
    stencil = sktsim.grid._stencil

    def lopsided(ext, h):
        lap, grads = stencil(ext, h)
        return lap + 1e-3 * ext[2:] / h ** 2, grads

    monkeypatch.setattr(sktsim.grid, "_stencil", lopsided)


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


def test_uniqueness_identical_schemes_give_exact_zero():
    cfg = uniq_config(levels=1)
    cfg.schemes = (SchemeKind.IMEX_LAGGED, SchemeKind.IMEX_LAGGED)
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
        base_initial=smooth_initial, perturbation=normalized_bump,
        deltas=(1e-3, 1e-2, 1e-1))
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
    # adjoint bounds were recorded per tau
    assert set(report.adjoint_reports) == set(report.taus)
    for rep in report.adjoint_reports.values():
        assert rep.rhs == "l" and rep.gronwall_slack <= 1e-8


def test_dependence_rejects_bad_deltas():
    cfg = DependenceConfig(
        coefficients=CFG_A, bc=NEU, dim=1, length=1.0, n=16,
        t_final=0.04, dt=0.01, base_initial=smooth_initial,
        perturbation=normalized_bump, deltas=(1e-2, 1e-3))
    with pytest.raises(ValueError):
        continuous_dependence_experiment(cfg)
    cfg2 = DependenceConfig(
        coefficients=CFG_A, bc=NEU, dim=1, length=1.0, n=16,
        t_final=0.04, dt=0.01, base_initial=smooth_initial,
        perturbation=normalized_bump, deltas=(-1e-3, 1e-2))
    with pytest.raises(ValueError):
        continuous_dependence_experiment(cfg2)


def test_weak_form_residual_zero_trajectory():
    grid = Grid(1, 1.0, 32)
    problem = ForwardProblem(CFG_A, grid, NEU, TimeGrid(0.01, 1e-3),
                             SchemeKind.IMEX_LAGGED, FieldPair.zeros(grid))
    traj = run_forward(problem)

    def phi(g, t):
        return FieldPair(g, np.cos(np.pi * g.centers()) * (0.01 - t), np.zeros(g.shape))

    assert weak_form_residual(CFG_A, traj, phi) == 0.0


def heat_phi(g, t):
    return FieldPair(g, np.cos(np.pi * g.centers()) * (0.02 - t), np.zeros(g.shape))


def test_weak_form_residual_exact_for_explicit_neumann_run():
    # The explicit scheme advances by the same symmetric operator the
    # residual pairs against, so the residual sits at roundoff.
    grid = Grid(1, 1.0, 32)
    x = grid.centers()
    initial = FieldPair(grid, 1.0 + np.cos(np.pi * x), np.zeros(grid.shape))
    problem = ForwardProblem(heat_limit_coefficients(), grid, NEU,
                             TimeGrid(0.02, 4e-4), SchemeKind.EXPLICIT, initial)
    traj = run_forward(problem)
    assert weak_form_residual(heat_limit_coefficients(), traj, heat_phi) <= 1e-12


def test_weak_form_residual_first_order_for_imex_run():
    # The IMEX operator acts on the new level, so the residual against the
    # old-level pairing shrinks at O(dt).
    vals = []
    grid = Grid(1, 1.0, 32)
    x = grid.centers()
    initial = FieldPair(grid, 1.0 + np.cos(np.pi * x), 0.5 * np.ones(grid.shape))
    for dt in (4e-4, 2e-4, 1e-4):
        problem = ForwardProblem(CFG_A, grid, NEU, TimeGrid(0.02, dt),
                                 SchemeKind.IMEX_LAGGED, initial)
        traj = run_forward(problem)
        vals.append(weak_form_residual(CFG_A, traj, heat_phi))
    for a, b in zip(vals, vals[1:]):
        assert 1.5 < a / b < 3.0


def test_weak_form_residual_rejects_incompatible_test_function():
    grid = Grid(1, 1.0, 64)
    problem = ForwardProblem(CFG_A, grid, NEU, TimeGrid(0.01, 1e-3),
                             SchemeKind.IMEX_LAGGED, smooth_initial(grid))
    traj = run_forward(problem)

    def bad_phi(g, t):
        return FieldPair(g, np.sin(np.pi * g.centers()), np.zeros(g.shape))

    with pytest.raises(ValueError):
        weak_form_residual(CFG_A, traj, bad_phi)


def test_weak_form_residual_equals_forcing_quadrature_on_mms_run():
    exact = polynomial_neumann_solution(CFG_A, 1)
    grid = Grid(1, 1.0, 24)
    T, steps = 0.01, 200
    tg = TimeGrid(T, T / steps)
    problem = ForwardProblem(CFG_A, grid, NEU, tg, SchemeKind.EXPLICIT,
                             exact.field(grid, 0.0), stride=1,
                             forcing=lambda t: exact.forcing(grid, t),
                             require_nonnegative_initial=False)
    traj = run_forward(problem)

    def phi(g, t):
        return FieldPair(g, np.cos(np.pi * g.centers()), 0.5 * np.ones(g.shape))

    # residual without acknowledging the forcing == forcing quadrature
    res = weak_form_residual(CFG_A, traj, phi)
    from sktsim.grid import inner
    times = traj.stored_times()
    total = 0.0
    for k in range(len(times) - 1):
        f = exact.forcing(grid, float(times[k]))
        val = inner(f, phi(grid, float(times[k])))
        total += (times[k + 1] - times[k]) * val * val
    assert res == pytest.approx(math.sqrt(total), abs=1e-10)
    # acknowledging the forcing removes the residual entirely
    res_with_f = weak_form_residual(CFG_A, traj, phi,
                                    forcing=lambda g, t: exact.forcing(g, t))
    assert res_with_f <= 1e-10
