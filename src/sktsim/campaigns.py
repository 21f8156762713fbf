"""Named verification campaigns behind `skt verify --campaign <name>`.

Each campaign runs a fixed desk-scale configuration: coefficients and seed
come from the user's config, while grids and final times are pinned here so
that the quantitative gates below are meaningful.  It writes its raw numbers
as CSV and yields one pass/fail verdict per gate, in gate order, reading no
clock.  The uniqueness and dependence studies march on the ``Grid`` and
``TimeGrid`` that their campaign pins and passes in.  They and the
eps-cauchy study return their CSV tables as columns; the campaign writes
each table as it comes and reads its gate values from the columns.

:func:`run_campaign` times the gates: each verdict's ``elapsed`` is the
time since the previous one, CSV writes included.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterator
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from sktsim.adjoint import AdjointRHSKind, eps_cauchy_study, run_adjoint, theta_eps
from sktsim.algebra import (
    Coefficients,
    _apply,
    admissible,
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
    continuous_dependence_experiment,
    frozen_duality_check,
    uniqueness_experiment,
)
from sktsim.forward import (
    ForwardProblem,
    SchemeKind,
    TimeGrid,
    manufactured_convergence,
    run_forward,
    stability_bound,
)
from sktsim.grid import BoundaryCondition, Grid, NumericalFailure, h1_norms, inner
from sktsim.mms import bump_profile, heat_limit_coefficients, polynomial_neumann_solution
from sktsim.output import write_csv

__all__ = ["CAMPAIGNS", "GATES", "CheckResult", "run_campaign"]

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


def _desk_initial(grid: Grid) -> np.ndarray:
    return np.stack((bump_profile(grid, 0.5 * grid.length, 0.3 * grid.length, 1.0) + 0.2,
                     bump_profile(grid, 0.4 * grid.length, 0.25 * grid.length, 0.6) + 0.2))


def _norm_bump(grid: Grid) -> np.ndarray:
    w = bump_profile(grid, 0.55 * grid.length, 0.2 * grid.length, 1.0)
    f = np.stack((w, 0.5 * w))
    return (1.0 / math.sqrt(inner(grid, f, f))) * f


# ---------------------------------------------------------------- algebra

_CHUNK = 2 ** 16  # samples per margin evaluation of the positivity certificate


def campaign_algebra(cfg: RunConfig, out_dir: Path) -> Iterator[CheckResult]:
    c = cfg.coefficients
    rng = np.random.default_rng(cfg.seed + 1)
    verdicts = []  # for algebra_checks.csv

    count = 100_000
    w1, w2 = rng.uniform(-10, 10, (2, 2, count))
    worst = 0.0
    for identity, fn in ((mean_value_P, eval_p), (mean_value_Q, eval_q)):
        lhs, rhs = identity(c, w1, w2)
        scale = np.maximum.reduce([*np.abs(fn(c, w1)), *np.abs(fn(c, w2)), np.ones(count)])
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / scale)))
    # 8 and 2 hold for all-ones constants, built here through the same column code as c.
    ones = Coefficients(*[1.0] * 12)
    sample = mean_value_P(ones, np.array([[2.0], [1.0]]), np.array([[0.0], [1.0]]))
    worked = all(side.tolist() == [[8.0], [2.0]] for side in sample)
    verdicts.append(CheckResult(
        "mean-value-identities", worst <= 1e-12 and worked,
        f"max relative gap {worst:.2e} over {2 * count} pairs, worked example "
        f"{'ok' if worked else 'WRONG'}"))
    yield verdicts[-1]

    draws = rng.uniform(0.0, 20.0, size=(100_000, 4))
    one5c, coef = admissible(*draws.T)
    violations = int(np.sum(coef & ~one5c))
    boundary = check_conditions(Coefficients(1.0, 8.0, 8.0, 1.0))
    verdicts.append(CheckResult(
        "condition-implication", violations == 0 and not boundary.holds_1_5c,
        f"{violations} counterexamples in 100000 draws; boundary case strict-fails "
        f"{'ok' if not boundary.holds_1_5c else 'WRONG'}"))
    yield verdicts[-1]

    conditions = check_conditions(c)
    if conditions.holds_coef_cond:
        alpha = max_alpha(c)
        ca = replace(c, alpha=alpha) if alpha > 0 else c
        n_fresh = 1_000_000
        # u, v and theta, drawn one chunk at a time: each margin is
        # elementwise, so chunks bound the memory and leave the minimum a
        # minimum over all n_fresh samples.
        min_margin = math.inf
        for i in range(0, n_fresh, _CHUNK):
            size = min(_CHUNK, n_fresh - i)
            u, v = rng.uniform(0, 100, size), rng.uniform(0, 100, size)
            theta = rng.uniform(0, 2 * np.pi, size)
            xi = np.stack((np.cos(theta), np.sin(theta)))
            min_margin = min(min_margin, float(np.min(quad_form_margin(ca, np.stack((u, v)), xi))))
        inv_norms, bounds = inverse_norm_check(ca, rng.uniform(0, 200, (2, 10_000)))
        inv_ok = bool(np.all(inv_norms <= bounds * (1 + 1e-12)))
        verdicts.append(CheckResult(
            "positivity-certificate", min_margin >= -1e-12 and inv_ok,
            f"alpha = {alpha:.6f}, min margin {min_margin:.2e} on {n_fresh} fresh samples, "
            f"inverse bound {'never violated' if inv_ok else 'VIOLATED'} on 10000 samples"))
    else:
        verdicts.append(CheckResult(
            "positivity-certificate", False, "coefficient condition fails: margins (8 a11 a21 - "
            f"a12^2, 8 a22 a12 - a21^2) = {conditions.margins_coef_cond} (want both > 0)"))
    yield verdicts[-1]

    # 100 states drawn as one stack (100, 2, 1): the numbers of 100 draws of
    # one state each, in their order.
    w0 = rng.uniform(-5.0, 5.0, (100, 2, 1))
    worst_fd = 0.0
    for fn, jac in ((eval_p, jac_P), (eval_q, jac_Q)):
        J = jac(c, w0)
        # Along each species direction e, the central difference of the
        # map against the column J e of its Jacobian.
        for h in (1e-4, 5e-5):
            for e in np.eye(2)[:, :, None]:
                fd = (fn(c, w0 + h * e) - fn(c, w0 - h * e)) / (2 * h)
                worst_fd = max(worst_fd, float(np.max(np.abs(fd - _apply(*J, e)))))
    verdicts.append(CheckResult(
        "jacobian-consistency", worst_fd <= 1e-8,
        f"max central-difference gap {worst_fd:.2e} (quadratic maps: differences are exact)"))
    yield verdicts[-1]

    write_csv(out_dir / "algebra_checks.csv",
              {"check": np.arange(len(verdicts), dtype=float),
               "passed": np.array([float(r.passed) for r in verdicts])})


# ---------------------------------------------------------------- mms

def campaign_mms(cfg: RunConfig, out_dir: Path) -> Iterator[CheckResult]:
    heat = heat_limit_coefficients()

    def heat_run(n: int, dt_factor: float, scheme: SchemeKind):
        T = 0.1
        grid = Grid(1, 1.0, n)
        x = grid.centers()
        initial = np.stack((1.0 + np.cos(np.pi * x), np.zeros(grid.shape)))
        bound = stability_bound(grid, *jac_P(heat, initial))
        dt = T / max(1, int(round(T / (dt_factor * bound))))
        problem = ForwardProblem(heat, grid, NEU, TimeGrid(T, dt), scheme, initial,
                                 stride=10**9)
        return run_forward(problem), grid, T

    errors = []
    for n in (16, 32, 64):
        traj, grid, T = heat_run(n, 0.4, SchemeKind.EXPLICIT)
        exact = 1.0 + math.exp(-math.pi**2 * T) * np.cos(np.pi * grid.centers())
        errors.append(float(np.max(np.abs(traj.levels[-1, 0] - exact))))
    spatial_orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    ok_spatial = all(1.8 <= o <= 2.2 for o in spatial_orders)
    yield CheckResult(
        "heat-spatial-order", ok_spatial,
        f"observed orders {[f'{o:.2f}' for o in spatial_orders]} (want 2.0 +/- 0.2)")

    finals = [heat_run(32, f, SchemeKind.IMEX_LAGGED)[0].levels[-1, 0]
              for f in (16.0, 8.0, 4.0)]
    e1 = float(np.max(np.abs(finals[0] - finals[1])))
    e2 = float(np.max(np.abs(finals[1] - finals[2])))
    temporal_order = math.log2(e1 / e2)
    yield CheckResult(
        "imex-temporal-order", temporal_order >= 0.9,
        f"observed order {temporal_order:.2f} (want >= 0.9)")

    exact = polynomial_neumann_solution(cfg.coefficients, 1)
    grid = Grid(1, 1.0, 16)
    problem = ForwardProblem(cfg.coefficients, grid, NEU, TimeGrid(0.05, 0.05),
                             SchemeKind.IMEX_LAGGED, np.zeros((2, *grid.shape)))
    table = manufactured_convergence(problem, exact, ns=(16, 32, 64, 128))
    ok_mms = all(o >= 1.8 for o in table.orders)
    write_csv(out_dir / "mms_convergence.csv",
              {"n": np.array(table.ns, dtype=float), "max_error": np.array(table.errors)})
    yield CheckResult(
        "mms-full-coupling-order", ok_mms,
        f"errors {[f'{e:.2e}' for e in table.errors]}, orders "
        f"{[f'{o:.2f}' for o in table.orders]} (want >= 1.8)")

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
    yield CheckResult(
        "mass-conservation", drift <= 1e-10,
        f"max drift {drift:.2e} over unit time (want <= 1e-10)")


# ---------------------------------------------------------------- uniqueness

def campaign_uniqueness(cfg: RunConfig, out_dir: Path) -> Iterator[CheckResult]:
    levels = [(Grid(1, 1.0, 8 * 2 ** k), TimeGrid(0.05, 0.05 / 256 / 2 ** k)) for k in range(3)]
    table = uniqueness_experiment(cfg.coefficients, NEU, levels, _desk_initial)
    write_csv(out_dir / "uniqueness_levels.csv", table)

    pairings, ratios = table["max_pairing"], _ratios(table["max_pairing"])
    yield CheckResult(
        "pairing-refinement", all(r >= 2.0 for r in ratios),
        f"max pairings {[f'{p:.2e}' for p in pairings]}, ratios "
        f"{[f'{r:.2f}' for r in ratios]} (want >= 2 per level)")

    sbp = float(np.max(table["sbp_gap"]))
    yield CheckResult(
        "summation-by-parts", sbp <= 1e-10,
        f"max telescoping gap {sbp:.2e} (want <= 1e-10)")

    deviations, red = table["reduction_deviation"], _ratios(table["reduction_deviation"])
    yield CheckResult(
        "scalar-reduction", all(r >= 1.8 for r in red),
        f"deviations {[f'{d:.2e}' for d in deviations]}, "
        f"ratios {[f'{r:.2f}' for r in red]} (want >= 1.8 per level)")
    yield _exact_transpose_duality(cfg.coefficients)


def _ratios(column: np.ndarray) -> list[float]:
    """Each level's value over the next level's; inf where the next is not positive."""
    vals = column.tolist()
    return [a / b if b > 0 else math.inf for a, b in zip(vals, vals[1:])]


def _exact_transpose_duality(c: Coefficients) -> CheckResult:
    grid = Grid(1, 1.0, 16)
    x = grid.centers()
    u_tilde = np.stack((1.0 + 0.5 * np.cos(np.pi * x), 0.8 + 0.3 * np.cos(2 * np.pi * x)))
    u_bar0 = np.stack((0.1 * np.sin(2 * np.pi * x) + 0.2, 0.05 * np.cos(np.pi * x)))
    chi = np.stack((np.cos(np.pi * x), np.ones(grid.shape)))
    residual = frozen_duality_check(c, grid, NEU, TimeGrid(0.02, 2e-4), u_tilde, u_bar0, chi)
    return CheckResult(
        "exact-transpose-duality", residual <= 1e-10,
        f"max frozen-coefficient residual {residual:.2e} (want <= 1e-10)")


# ---------------------------------------------------------------- dependence

def campaign_dependence(cfg: RunConfig, out_dir: Path) -> Iterator[CheckResult]:
    grid, tg = Grid(1, 1.0, 48), TimeGrid(0.2, 0.2 / 400)
    table, slopes, kappas = continuous_dependence_experiment(
        cfg.coefficients, NEU, grid, tg, _desk_initial(grid), _norm_bump(grid))
    write_csv(out_dir / "dependence.csv", table)

    yield CheckResult(
        "weak-norm-slope", all(abs(s - 1.0) <= 0.15 for s in slopes),
        f"fitted slopes {[f'{s:.3f}' for s in slopes]} (want 1.0 +/- 0.15)")

    yield CheckResult(
        "kappa-stability", max(kappas) / min(kappas) < 2.0,
        f"fitted kappas {[f'{k:.4f}' for k in kappas]} across tau sweep "
        f"(want < 2x variation)")

    q_ok = (dual_exponent(1) == 4.0 / 3.0 and dual_exponent(2) == 2.0
            and dual_exponent(4) == 4.0)
    yield CheckResult(
        "dual-exponent-table", q_ok,
        f"q(1) = {dual_exponent(1)}, q(2) = {dual_exponent(2)}, q(4) = {dual_exponent(4)}")

    lin_gap = float(np.max(np.abs(table["ing49"] - math.sqrt(tg.t_final) * table["input_l2"])))
    yield CheckResult(
        "product-term-linearity", lin_gap <= 1e-12,
        f"max gap {lin_gap:.2e} between the product term and sqrt(T)|u_bar(0)|_L2")


# ---------------------------------------------------------------- eps-cauchy

def campaign_eps_cauchy(cfg: RunConfig, out_dir: Path) -> Iterator[CheckResult]:
    c = cfg.coefficients

    grid = Grid(1, 1.0, 16)
    T, dt, c_val = 0.5, 0.0125, 2.0
    zero_problem = ForwardProblem(heat_limit_coefficients(), grid, NEU, TimeGrid(T, dt),
                                  SchemeKind.IMEX_LAGGED, np.zeros((2, *grid.shape)))
    zero_traj = run_forward(zero_problem)
    chi0 = np.full((2, *grid.shape), c_val)
    phi_traj, _ = run_adjoint(heat_limit_coefficients(), NEU, zero_traj, 1.0,
                              AdjointRHSKind.IDENTITY, chi0)
    osc_err = float(np.max(np.abs(phi_traj.levels[0, 0] - c_val * math.exp(T))))
    yield CheckResult(
        "exponential-oracle", osc_err <= 3.0 * dt * math.exp(T),
        f"frozen-coefficient error {osc_err:.2e} (bound {3.0 * dt * math.exp(T):.2e})")

    grid = Grid(1, 1.0, 64)
    initial = np.stack((bump_profile(grid, 0.5, 0.3, 2.0) + 0.1,
                        bump_profile(grid, 0.35, 0.25, 1.2) + 0.1))
    problem = ForwardProblem(c, grid, NEU, TimeGrid(0.5, 1e-3),
                             SchemeKind.IMEX_LAGGED, initial)
    traj = run_forward(problem)
    x = grid.centers()
    profile = np.stack((0.5 + np.cos(np.pi * x), np.cos(2 * np.pi * x)))
    hu, hv = h1_norms(grid, profile, NEU).tolist()
    chi = (1.0 / math.sqrt(hu ** 2 + hv ** 2)) * profile

    eps_list = [1.0, 0.5, 0.25, 0.125]
    table, reports = eps_cauchy_study(c, NEU, traj, eps_list, AdjointRHSKind.IDENTITY, chi)
    kappas = {name: [getattr(r, name) for r in reports]
              for name in ("kappa_sup", "kappa_weighted_lap", "kappa_dt")}
    slacks = [r.gronwall_slack for r in reports]
    write_csv(out_dir / "eps_sweep_kappas.csv", {"eps": eps_list, **kappas})
    variations = [max(col) / min(col) for col in kappas.values()]
    yield CheckResult(
        "kappa-eps-independence", all(v < 1.10 for v in variations),
        f"kappa variations across eps {[f'{v:.4f}' for v in variations]} (want < 10%)")
    yield CheckResult(
        "gronwall-telescoping", max(slacks) <= 1e-8,
        f"max telescoped-inequality slack {max(slacks):.2e} (want <= 1e-8)")

    write_csv(out_dir / "eps_cauchy.csv", table)
    inactive = table["truncation_inactive"] == 1.0
    diffs = table["diff_sup_h1"]
    inactive_zero = bool(np.all(diffs[inactive] == 0.0)
                         and np.all(table["diff_lap_l2"][inactive] == 0.0))
    saw_inactive = bool(np.any(inactive))
    monotone = bool(np.all(diffs[:-1] >= diffs[1:]))
    yield CheckResult(
        "eps-cauchy-exact-zero", inactive_zero and saw_inactive and monotone,
        f"sup-H1 differences {[f'{d:.2e}' for d in diffs]}, inactive rows exactly zero: "
        f"{inactive_zero}, monotone: {monotone}")

    theta_val = theta_eps(0.1, 15.0)
    yield CheckResult(
        "truncation-blend", abs(theta_val - 11.25) <= 1e-12,
        f"theta_eps(0.1, 15) = {theta_val} (Hermite midpoint 11.25)")


CAMPAIGNS = {
    "algebra": campaign_algebra,
    "mms": campaign_mms,
    "uniqueness": campaign_uniqueness,
    "dependence": campaign_dependence,
    "eps-cauchy": campaign_eps_cauchy,
}

#: The gates of each campaign in the order it yields their verdicts.  A
#: verdict comes only when its gate ends, so this names the gate that was
#: running when a campaign raises.
GATES = {
    "algebra": ("mean-value-identities", "condition-implication", "positivity-certificate",
                "jacobian-consistency"),
    "mms": ("heat-spatial-order", "imex-temporal-order", "mms-full-coupling-order",
            "mass-conservation"),
    "uniqueness": ("pairing-refinement", "summation-by-parts", "scalar-reduction",
                   "exact-transpose-duality"),
    "dependence": ("weak-norm-slope", "kappa-stability", "dual-exponent-table",
                   "product-term-linearity"),
    "eps-cauchy": ("exponential-oracle", "kappa-eps-independence", "gronwall-telescoping",
                   "eps-cauchy-exact-zero", "truncation-blend"),
}


def run_campaign(name: str, cfg: RunConfig, out_dir: Path) -> list[CheckResult]:
    """Run a campaign, timing each verdict from the previous one (or the start).

    A :class:`NumericalFailure` raised by a gate propagates with the verdicts
    reached before it attached as its ``results`` and the name of the gate
    that raised it as its ``gate``.
    """
    if name not in CAMPAIGNS:
        raise ValueError(f"unknown campaign '{name}'; available: {sorted(CAMPAIGNS)}")
    out_dir.mkdir(parents=True, exist_ok=True)
    results = []
    start = time.perf_counter()
    try:
        for verdict in CAMPAIGNS[name](cfg, out_dir):
            now = time.perf_counter()
            results.append(replace(verdict, elapsed=now - start))
            start = now
    except NumericalFailure as exc:
        exc.results, exc.gate = results, GATES[name][len(results)]
        raise
    return results
