"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to stream the
per-criterion lines).  The quantitative checks live in the verify campaigns
so the CLI and this gate agree by construction; criterion 8 exercises the
infrastructure directly.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from sktsim.campaigns import GATES, run_campaign
from sktsim.cli import main
from sktsim.config import ConfigError, parse_config, parse_config_text
from sktsim.grid import Grid, read_field, write_field
from test_golden import assert_campaign_csvs

CONFIG_PATH = Path(__file__).resolve().parent.parent / "configs" / "cfg_a_1d.cfg"


@pytest.fixture(scope="module")
def cfg():
    return parse_config(CONFIG_PATH)


def _run(name, cfg, tmp_path_factory, label):
    out = tmp_path_factory.mktemp(label)
    t0 = time.perf_counter()
    results = run_campaign(name, cfg, out)
    elapsed = time.perf_counter() - t0
    # GATES names the gate that raises; it must list the verdicts in order.
    assert [r.name for r in results] == list(GATES[name])
    assert_campaign_csvs(name, out)
    return results, elapsed


@pytest.fixture(scope="module")
def algebra_results(cfg, tmp_path_factory):
    return _run("algebra", cfg, tmp_path_factory, "algebra")


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _named(results, name):
    return next(r for r in results if r.name == name)


def test_criterion_1_mean_value_identities(algebra_results):
    results, _ = algebra_results
    check = _named(results, "mean-value-identities")
    ok = check.passed and check.elapsed < 5.0
    _report(1, ok, f"{check.detail} [{check.elapsed:.2f}s, budget 5s]")


def test_criterion_2_condition_implication(algebra_results):
    results, _ = algebra_results
    check = _named(results, "condition-implication")
    ok = check.passed and check.elapsed < 5.0
    _report(2, ok, f"{check.detail} [{check.elapsed:.2f}s, budget 5s]")


def test_criterion_3_positivity_certificate(algebra_results):
    results, _ = algebra_results
    check = _named(results, "positivity-certificate")
    ok = check.passed and check.elapsed < 30.0
    _report(3, ok, f"{check.detail} [{check.elapsed:.2f}s, budget 30s]")


def test_criterion_4_forward_solver(cfg, tmp_path_factory):
    results, elapsed = _run("mms", cfg, tmp_path_factory, "mms")
    ok = all(r.passed for r in results) and elapsed < 120.0
    detail = "; ".join(r.line() for r in results)
    _report(4, ok, f"{detail} [{elapsed:.1f}s, budget 120s]")


def test_criterion_5_adjoint_solver(cfg, tmp_path_factory):
    results, elapsed = _run("eps-cauchy", cfg, tmp_path_factory, "eps")
    ok = all(r.passed for r in results) and elapsed < 120.0
    detail = "; ".join(r.line() for r in results)
    _report(5, ok, f"{detail} [{elapsed:.1f}s, budget 120s]")


def test_criterion_6_uniqueness(cfg, tmp_path_factory):
    results, elapsed = _run("uniqueness", cfg, tmp_path_factory, "uniq")
    ok = all(r.passed for r in results) and elapsed < 180.0
    detail = "; ".join(r.line() for r in results)
    _report(6, ok, f"{detail} [{elapsed:.1f}s, budget 180s]")


def test_criterion_7_continuous_dependence(cfg, tmp_path_factory):
    results, elapsed = _run("dependence", cfg, tmp_path_factory, "dep")
    ok = all(r.passed for r in results) and elapsed < 120.0
    detail = "; ".join(r.line() for r in results)
    _report(7, ok, f"{detail} [{elapsed:.1f}s, budget 120s]")


MINIMAL = CONFIG_PATH.read_text()


def test_criterion_8_infrastructure(tmp_path):
    t0 = time.perf_counter()

    # config fuzz rejection
    rng = np.random.default_rng(8)
    alphabet = "abcdefgh.xyz_"
    rejected = 0
    trials = 200
    from sktsim.config import _ALL_KEYS
    for _ in range(trials):
        key = "".join(rng.choice(list(alphabet), size=rng.integers(1, 13)))
        if key in _ALL_KEYS:
            continue
        try:
            parse_config_text(MINIMAL + f"\n{key} = 1.0\n")
        except ConfigError:
            rejected += 1
        else:
            _report(8, False, f"fuzzed unknown key '{key}' was accepted")
    fuzz_ok = rejected > 150

    # byte-determinism of repeated runs
    cfg_file = tmp_path / "det.cfg"
    cfg_file.write_text(MINIMAL.replace("time.t_final = 0.5", "time.t_final = 0.02")
                        .replace("time.dt = 0.001", "time.dt = 0.0005")
                        .replace("output.dir = out/cfg_a_1d", "output.dir = unused"))
    outs = []
    for label in ("a", "b"):
        out = tmp_path / label
        assert main(["simulate", "--config", str(cfg_file), "--out", str(out)]) == 0
        payload = [(out / "forward_diagnostics.csv").read_bytes()]
        payload += [p.read_bytes() for p in sorted((out / "forward").glob("*.field"))]
        outs.append(payload)
    determinism_ok = outs[0] == outs[1]

    # snapshot round-trip bit-exactness
    rng = np.random.default_rng(88)
    roundtrip_ok = True
    for dim, n in ((1, 37), (2, 11)):
        grid = Grid(dim, 1.0, n)
        f = np.stack((rng.standard_normal(grid.shape) * 1e3,
                      rng.standard_normal(grid.shape) * 1e-7))
        path = tmp_path / f"snap{dim}.field"
        write_field(path, grid, f)
        roundtrip_ok &= np.array_equal(read_field(path, grid), f)

    elapsed = time.perf_counter() - t0
    ok = fuzz_ok and determinism_ok and roundtrip_ok and elapsed < 30.0
    _report(8, ok,
            f"fuzz rejected {rejected} unknown keys; repeated runs byte-identical: "
            f"{determinism_ok}; snapshot round-trip bit-exact: {roundtrip_ok} "
            f"[{elapsed:.1f}s, budget 30s]")
