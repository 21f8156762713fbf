"""Named verification campaigns behind `skt verify --campaign <name>`.

Each campaign runs a fixed desk-scale configuration (coefficients and seed
come from the user's config; grids and horizons are pinned here so the
quantitative gates below are meaningful), writes its raw numbers as CSV,
and returns one pass/fail result per gate.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sktsim.adjoint import AdjointRHSKind, eps_cauchy_study, run_adjoint, theta_eps
from sktsim.algebra import (
    Coefficients,
    SpeciesPair,
    check_conditions,
    dual_exponent,
    eval_p,
    eval_q,
    inverse_norm_check,
    jac_P,
    jac_Q,
    max_alpha,
    mean_value_P,
    mean_value_Q,
    quad_form_margin,
)
from sktsim.config import RunConfig
from sktsim.experiments import (
    DependenceConfig,
    UniquenessConfig,
    continuous_dependence_experiment,
    frozen_duality_check,
    uniqueness_experiment,
)
from sktsim.forward import ForwardProblem, SchemeKind, TimeGrid, manufactured_convergence, run_forward
from sktsim.grid import BoundaryCondition, FieldPair, Grid, h1_norms, inner
from sktsim.mms import bump_profile, heat_limit_coefficients, polynomial_neumann_solution
from sktsim.output import write_csv

__all__ = ["CAMPAIGNS", "CheckResult", "run_campaign"]

NEU = BoundaryCondition.NEUMANN


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float = 0.0

    def line(self) -> str:
        return (f"{'PASS' if self.passed else 'FAIL'}  {self.name}: {self.detail} "
                f"({self.elapsed:.2f} s)")


def _desk_initial(grid: Grid) -> FieldPair:
    return FieldPair(grid,
                     bump_profile(grid, 0.5 * grid.length, 0.3 * grid.length, 1.0) + 0.2,
                     bump_profile(grid, 0.4 * grid.length, 0.25 * grid.length, 0.6) + 0.2)


def _norm_bump(grid: Grid) -> FieldPair:
    w = bump_profile(grid, 0.55 * grid.length, 0.2 * grid.length, 1.0)
    f = np.stack((w, 0.5 * w))
    u, v = (1.0 / math.sqrt(inner(grid, f, f))) * f
    return FieldPair(grid, u, v)


# ---------------------------------------------------------------- algebra

_CHUNK = 2 ** 16  # samples per margin evaluation of the positivity certificate

def campaign_algebra(cfg: RunConfig, out_dir: Path) -> list[CheckResult]:
    c = cfg.coefficients
    rng = np.random.default_rng(cfg.seed + 1)
    results = []

    t0 = time.perf_counter()
    count = 100_000
    s1 = SpeciesPair(rng.uniform(-10, 10, count), rng.uniform(-10, 10, count))
    s2 = SpeciesPair(rng.uniform(-10, 10, count), rng.uniform(-10, 10, count))
    worst = 0.0
    for identity, fn in ((mean_value_P, eval_p), (mean_value_Q, eval_q)):
        lhs, rhs = identity(c, s1, s2)
        f1, f2 = fn(c, s1), fn(c, s2)
        scale = np.maximum.reduce([np.abs(f1.u), np.abs(f1.v), np.abs(f2.u),
                                   np.abs(f2.v), np.ones(count)])
        worst = max(worst,
                    float(np.max(np.abs(lhs.u - rhs.u) / scale)),
                    float(np.max(np.abs(lhs.v - rhs.v) / scale)))
    sample_lhs, sample_rhs = mean_value_P(c, SpeciesPair(2.0, 1.0), SpeciesPair(0.0, 1.0))
    worked = (sample_lhs == (8.0, 2.0) and sample_rhs == (8.0, 2.0))
    results.append(CheckResult(
        "mean-value-identities", worst <= 1e-12 and worked,
        f"max relative gap {worst:.2e} over {2 * count} pairs, worked example "
        f"{'ok' if worked else 'WRONG'}", elapsed=time.perf_counter() - t0))

    t0 = time.perf_counter()
    draws = rng.uniform(0.0, 20.0, size=(100_000, 4))
    a11, a12, a21, a22 = draws.T
    coef = (a12**2 > 0) & (a12**2 < 8 * a11 * a21) & (a21**2 > 0) & (a21**2 < 8 * a22 * a12)
    one5c = (a12 * a21 > 0) & (a12 * a21 < 64 * a11 * a22)
    violations = int(np.sum(coef & ~one5c))
    boundary = check_conditions(Coefficients(1.0, 8.0, 8.0, 1.0))
    results.append(CheckResult(
        "condition-implication", violations == 0 and not boundary.holds_1_5c,
        f"{violations} counterexamples in 100000 draws; boundary case strict-fails "
        f"{'ok' if not boundary.holds_1_5c else 'WRONG'}", elapsed=time.perf_counter() - t0))

    t0 = time.perf_counter()
    alpha = max_alpha(c)
    ca = c.with_alpha(alpha) if alpha > 0 else c
    n_fresh = 1_000_000
    s = SpeciesPair(rng.uniform(0, 100, n_fresh), rng.uniform(0, 100, n_fresh))
    theta = rng.uniform(0, 2 * np.pi, n_fresh)
    # Each margin is elementwise, so chunks bound the memory and leave the minimum as it is.
    min_margin = min(
        float(np.min(quad_form_margin(ca, SpeciesPair(s.u[i:i + _CHUNK], s.v[i:i + _CHUNK]),
                                      (np.cos(theta[i:i + _CHUNK]), np.sin(theta[i:i + _CHUNK])))))
        for i in range(0, n_fresh, _CHUNK))
    s_inv = SpeciesPair(rng.uniform(0, 200, 10_000), rng.uniform(0, 200, 10_000))
    inv_norms, bounds = inverse_norm_check(ca, s_inv)
    inv_ok = bool(np.all(inv_norms <= bounds * (1 + 1e-12)))
    results.append(CheckResult(
        "positivity-certificate", min_margin >= -1e-12 and inv_ok,
        f"alpha = {alpha:.6f}, min margin {min_margin:.2e} on {n_fresh} fresh samples, "
        f"inverse bound {'never violated' if inv_ok else 'VIOLATED'} on 10000 samples",
        elapsed=time.perf_counter() - t0))

    t0 = time.perf_counter()
    worst_fd = 0.0
    for _ in range(100):
        s0 = SpeciesPair(*rng.uniform(-5.0, 5.0, size=2))
        for fn, jac in ((eval_p, jac_P), (eval_q, jac_Q)):
            J = jac(c, s0)
            exact = np.array([[J.m11, J.m12], [J.m21, J.m22]])
            for h in (1e-4, 5e-5):
                cols = []
                for du, dv in ((h, 0.0), (0.0, h)):
                    plus = fn(c, SpeciesPair(s0.u + du, s0.v + dv))
                    minus = fn(c, SpeciesPair(s0.u - du, s0.v - dv))
                    cols.append(((plus.u - minus.u) / (2 * h), (plus.v - minus.v) / (2 * h)))
                fd = np.array([[cols[0][0], cols[1][0]], [cols[0][1], cols[1][1]]])
                worst_fd = max(worst_fd, float(np.max(np.abs(fd - exact))))
    results.append(CheckResult(
        "jacobian-consistency", worst_fd <= 1e-8,
        f"max central-difference gap {worst_fd:.2e} (quadratic maps: differences are "
        f"exact)", elapsed=time.perf_counter() - t0))

    write_csv(out_dir / "algebra_checks.csv",
              {"check": np.arange(len(results), dtype=float),
               "passed": np.array([float(r.passed) for r in results])})
    return results


# ---------------------------------------------------------------- mms

def campaign_mms(cfg: RunConfig, out_dir: Path) -> list[CheckResult]:
    results = []
    heat = heat_limit_coefficients()

    def heat_run(n: int, dt_factor: float, scheme: SchemeKind):
        T = 0.1
        grid = Grid(1, 1.0, n)
        x = grid.centers()
        initial = FieldPair(grid, 1.0 + np.cos(np.pi * x), np.zeros(grid.shape))
        bound = grid.h ** 2 / 2.0
        dt = T / max(1, int(round(T / (dt_factor * bound))))
        problem = ForwardProblem(heat, grid, NEU, TimeGrid(T, dt), scheme, initial,
                                 stride=10**9)
        return run_forward(problem), grid, T

    t0 = time.perf_counter()
    errors = []
    for n in (16, 32, 64):
        traj, grid, T = heat_run(n, 0.4, SchemeKind.EXPLICIT)
        exact = 1.0 + math.exp(-math.pi**2 * T) * np.cos(np.pi * grid.centers())
        errors.append(float(np.max(np.abs(traj.final_state().u - exact))))
    spatial_orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    ok_spatial = all(1.8 <= o <= 2.2 for o in spatial_orders)
    results.append(CheckResult(
        "heat-spatial-order", ok_spatial,
        f"observed orders {[f'{o:.2f}' for o in spatial_orders]} (want 2.0 +/- 0.2)",
        elapsed=time.perf_counter() - t0))

    t0 = time.perf_counter()
    finals = [heat_run(32, f, SchemeKind.IMEX_LAGGED)[0].final_state().u
              for f in (16.0, 8.0, 4.0)]
    e1 = float(np.max(np.abs(finals[0] - finals[1])))
    e2 = float(np.max(np.abs(finals[1] - finals[2])))
    temporal_order = math.log2(e1 / e2)
    results.append(CheckResult(
        "imex-temporal-order", temporal_order >= 0.9,
        f"observed order {temporal_order:.2f} (want >= 0.9)",
        elapsed=time.perf_counter() - t0))

    t0 = time.perf_counter()
    exact = polynomial_neumann_solution(cfg.coefficients, 1)
    grid = Grid(1, 1.0, 16)
    problem = ForwardProblem(cfg.coefficients, grid, NEU, TimeGrid(0.05, 0.05),
                             SchemeKind.IMEX_LAGGED, FieldPair.zeros(grid))
    table = manufactured_convergence(problem, exact, ns=(16, 32, 64, 128))
    ok_mms = all(o >= 1.8 for o in table.orders)
    results.append(CheckResult(
        "mms-full-coupling-order", ok_mms,
        f"errors {[f'{e:.2e}' for e in table.errors]}, orders "
        f"{[f'{o:.2f}' for o in table.orders]} (want >= 1.8)",
        elapsed=time.perf_counter() - t0))
    write_csv(out_dir / "mms_convergence.csv",
              {"n": np.array(table.ns, dtype=float), "max_error": np.array(table.errors)})

    t0 = time.perf_counter()
    grid = Grid(1, 1.0, 64)
    reaction_free = Coefficients(cfg.coefficients.a11, cfg.coefficients.a12,
                                 cfg.coefficients.a21, cfg.coefficients.a22,
                                 d1=cfg.coefficients.d1, d2=cfg.coefficients.d2)
    initial = _desk_initial(grid)
    problem = ForwardProblem(reaction_free, grid, NEU, TimeGrid(1.0, 1e-5),
                             SchemeKind.EXPLICIT, initial, stride=10**9)
    traj = run_forward(problem)
    drift = max(float(np.max(np.abs(traj.diagnostics[k] - traj.diagnostics[k][0])))
                for k in ("mass_u", "mass_v"))
    results.append(CheckResult(
        "mass-conservation", drift <= 1e-10,
        f"max drift {drift:.2e} over unit time (want <= 1e-10)",
        elapsed=time.perf_counter() - t0))
    return results


# ---------------------------------------------------------------- uniqueness

def campaign_uniqueness(cfg: RunConfig, out_dir: Path) -> list[CheckResult]:
    results = []
    t0 = time.perf_counter()
    ucfg = UniquenessConfig(
        coefficients=cfg.coefficients, bc=NEU, dim=1, length=1.0,
        base_n=8, t_final=0.05, base_dt=0.05 / 256,
        initial=_desk_initial, levels=3, modes=2)
    report = uniqueness_experiment(ucfg)
    write_csv(out_dir / "uniqueness_levels.csv",
              {"n": np.array([lv.n for lv in report.levels], dtype=float),
               "dt": np.array([lv.dt for lv in report.levels]),
               "max_pairing": np.array([lv.max_pairing for lv in report.levels]),
               "max_residual": np.array([lv.max_residual for lv in report.levels]),
               "sbp_gap": np.array([lv.sbp_gap for lv in report.levels]),
               "reduction_deviation": np.array([lv.reduction_deviation for lv in report.levels])})

    ratios = report.pairing_ratios
    results.append(CheckResult(
        "pairing-refinement", all(r >= 2.0 for r in ratios),
        f"max pairings {[f'{lv.max_pairing:.2e}' for lv in report.levels]}, ratios "
        f"{[f'{r:.2f}' for r in ratios]} (want >= 2 per level)",
        elapsed=time.perf_counter() - t0))

    sbp = max(lv.sbp_gap for lv in report.levels)
    results.append(CheckResult(
        "summation-by-parts", sbp <= 1e-10,
        f"max telescoping gap {sbp:.2e} (want <= 1e-10)"))

    red = report.reduction_ratios
    results.append(CheckResult(
        "scalar-reduction", all(r >= 1.8 for r in red),
        f"deviations {[f'{lv.reduction_deviation:.2e}' for lv in report.levels]}, "
        f"ratios {[f'{r:.2f}' for r in red]} (want >= 1.8 per level)"))
    results.append(_exact_transpose_duality(cfg.coefficients))
    return results


def _exact_transpose_duality(c: Coefficients) -> CheckResult:
    t0 = time.perf_counter()
    grid = Grid(1, 1.0, 16)
    x = grid.centers()
    u_tilde = FieldPair(grid, 1.0 + 0.5 * np.cos(np.pi * x), 0.8 + 0.3 * np.cos(2 * np.pi * x))
    u_bar0 = FieldPair(grid, 0.1 * np.sin(2 * np.pi * x) + 0.2, 0.05 * np.cos(np.pi * x))
    chi = FieldPair(grid, np.cos(np.pi * x), np.ones(grid.shape))
    residual = frozen_duality_check(c, grid, NEU, T=0.02, dt=2e-4,
                                    u_tilde=u_tilde, u_bar0=u_bar0, chi=chi)
    return CheckResult(
        "exact-transpose-duality", residual <= 1e-10,
        f"max frozen-coefficient residual {residual:.2e} (want <= 1e-10)",
        elapsed=time.perf_counter() - t0)


# ---------------------------------------------------------------- dependence

def campaign_dependence(cfg: RunConfig, out_dir: Path) -> list[CheckResult]:
    results = []
    t0 = time.perf_counter()
    dcfg = DependenceConfig(
        coefficients=cfg.coefficients, bc=NEU, dim=1, length=1.0, n=48,
        t_final=0.2, dt=0.2 / 400, base_initial=_desk_initial,
        perturbation=_norm_bump)
    report = continuous_dependence_experiment(dcfg)

    rows = {"tau": [], "delta": [], "weak_norm": [], "basis_sup": [],
            "input_l2": [], "input_lq": [], "ing47": [], "ing48": [], "ing49": []}
    for tau in report.taus:
        for j, delta in enumerate(report.deltas):
            rows["tau"].append(tau)
            rows["delta"].append(delta)
            rows["weak_norm"].append(report.weak_norms[tau][j])
            rows["basis_sup"].append(report.basis_sup[tau][j])
            rows["input_l2"].append(report.input_l2[j])
            rows["input_lq"].append(report.input_lq[j])
            rows["ing47"].append(report.ingredient_47[j])
            rows["ing48"].append(report.ingredient_48[j])
            rows["ing49"].append(report.ingredient_49[j])
    write_csv(out_dir / "dependence.csv",
              {k: np.array(v) for k, v in rows.items()})

    slopes = [report.slopes[tau] for tau in report.taus]
    results.append(CheckResult(
        "weak-norm-slope", all(abs(s - 1.0) <= 0.15 for s in slopes),
        f"fitted slopes {[f'{s:.3f}' for s in slopes]} (want 1.0 +/- 0.15)",
        elapsed=time.perf_counter() - t0))

    kappas = [report.kappa_fit[tau] for tau in report.taus]
    results.append(CheckResult(
        "kappa-stability", max(kappas) / min(kappas) < 2.0,
        f"fitted kappas {[f'{k:.4f}' for k in kappas]} across tau sweep "
        f"(want < 2x variation)"))

    q_ok = (dual_exponent(1) == 4.0 / 3.0 and dual_exponent(2) == 2.0
            and dual_exponent(4) == 4.0)
    results.append(CheckResult(
        "dual-exponent-table", q_ok,
        f"q(1) = {dual_exponent(1)}, q(2) = {dual_exponent(2)}, q(4) = {dual_exponent(4)}"))

    lin_gap = max(abs(report.ingredient_49[j] - math.sqrt(dcfg.t_final) * report.input_l2[j])
                  for j in range(len(report.deltas)))
    results.append(CheckResult(
        "product-term-linearity", lin_gap <= 1e-12,
        f"max gap {lin_gap:.2e} between the product term and sqrt(T)|u_bar(0)|_L2"))
    return results


# ---------------------------------------------------------------- eps-cauchy

def campaign_eps_cauchy(cfg: RunConfig, out_dir: Path) -> list[CheckResult]:
    results = []
    c = cfg.coefficients

    t0 = time.perf_counter()
    grid = Grid(1, 1.0, 16)
    T, dt, c_val = 0.5, 0.0125, 2.0
    zero_problem = ForwardProblem(heat_limit_coefficients(), grid, NEU, TimeGrid(T, dt),
                                  SchemeKind.IMEX_LAGGED, FieldPair.zeros(grid))
    zero_traj = run_forward(zero_problem)
    chi0 = FieldPair.constant(grid, c_val, c_val)
    phi_traj, _ = run_adjoint(heat_limit_coefficients(), NEU, (zero_traj, zero_traj),
                              1.0, AdjointRHSKind.IDENTITY, chi0)
    osc_err = float(np.max(np.abs(phi_traj.initial_state().u - c_val * math.exp(T))))
    results.append(CheckResult(
        "exponential-oracle", osc_err <= 3.0 * dt * math.exp(T),
        f"frozen-coefficient error {osc_err:.2e} (bound {3.0 * dt * math.exp(T):.2e})",
        elapsed=time.perf_counter() - t0))

    t0 = time.perf_counter()
    grid = Grid(1, 1.0, 64)
    initial = FieldPair(grid, bump_profile(grid, 0.5, 0.3, 2.0) + 0.1,
                        bump_profile(grid, 0.35, 0.25, 1.2) + 0.1)
    problem = ForwardProblem(c, grid, NEU, TimeGrid(0.5, 1e-3),
                             SchemeKind.IMEX_LAGGED, initial)
    traj = run_forward(problem)
    x = grid.centers()
    profile = np.stack((0.5 + np.cos(np.pi * x), np.cos(2 * np.pi * x)))
    hu, hv = h1_norms(grid, profile, NEU).tolist()
    u, v = (1.0 / math.sqrt(hu ** 2 + hv ** 2)) * profile
    chi = FieldPair(grid, u, v)

    eps_list = [1.0, 0.5, 0.25, 0.125]
    rows, reports = eps_cauchy_study(c, NEU, (traj, traj), eps_list,
                                     AdjointRHSKind.IDENTITY, chi)
    kappa_cols = {"sup": [r.kappa_sup for r in reports],
                  "wlap": [r.kappa_weighted_lap for r in reports],
                  "dt": [r.kappa_dt for r in reports]}
    slacks = [r.gronwall_slack for r in reports]
    write_csv(out_dir / "eps_sweep_kappas.csv",
              {"eps": np.array(eps_list), "kappa_sup": np.array(kappa_cols["sup"]),
               "kappa_weighted_lap": np.array(kappa_cols["wlap"]),
               "kappa_dt": np.array(kappa_cols["dt"])})
    variations = [max(col) / min(col) for col in kappa_cols.values()]
    results.append(CheckResult(
        "kappa-eps-independence", all(v < 1.10 for v in variations),
        f"kappa variations across eps {[f'{v:.4f}' for v in variations]} "
        f"(want < 10%)", elapsed=time.perf_counter() - t0))
    results.append(CheckResult(
        "gronwall-telescoping", max(slacks) <= 1e-8,
        f"max telescoped-inequality slack {max(slacks):.2e} (want <= 1e-8)"))

    t0 = time.perf_counter()
    write_csv(out_dir / "eps_cauchy.csv",
              {"eps_coarse": np.array([r.eps_coarse for r in rows]),
               "eps_fine": np.array([r.eps_fine for r in rows]),
               "diff_sup_h1": np.array([r.diff_sup_h1 for r in rows]),
               "diff_lap_l2": np.array([r.diff_lap_l2 for r in rows]),
               "truncation_inactive": np.array([float(r.truncation_inactive) for r in rows])})
    inactive_zero = all(r.diff_sup_h1 == 0.0 and r.diff_lap_l2 == 0.0
                        for r in rows if r.truncation_inactive)
    saw_inactive = any(r.truncation_inactive for r in rows)
    diffs = [r.diff_sup_h1 for r in rows]
    monotone = all(a >= b for a, b in zip(diffs, diffs[1:]))
    results.append(CheckResult(
        "eps-cauchy-exact-zero", inactive_zero and saw_inactive and monotone,
        f"sup-H1 differences {[f'{d:.2e}' for d in diffs]}, inactive rows exactly zero: "
        f"{inactive_zero}, monotone: {monotone}", elapsed=time.perf_counter() - t0))

    theta_val = theta_eps(0.1, 15.0)
    results.append(CheckResult(
        "truncation-blend", abs(theta_val - 11.25) <= 1e-12,
        f"theta_eps(0.1, 15) = {theta_val} (Hermite midpoint 11.25)"))
    return results


CAMPAIGNS = {
    "algebra": campaign_algebra,
    "mms": campaign_mms,
    "uniqueness": campaign_uniqueness,
    "dependence": campaign_dependence,
    "eps-cauchy": campaign_eps_cauchy,
}


def run_campaign(name: str, cfg: RunConfig, out_dir: Path) -> list[CheckResult]:
    if name not in CAMPAIGNS:
        raise ValueError(f"unknown campaign '{name}'; available: {sorted(CAMPAIGNS)}")
    out_dir.mkdir(parents=True, exist_ok=True)
    return CAMPAIGNS[name](cfg, out_dir)
