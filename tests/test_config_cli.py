import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sktsim.adjoint import AdjointRHSKind, run_adjoint
from sktsim.cli import main
from sktsim.config import ConfigError, PresetSpec, parse_config, parse_config_text
from sktsim.forward import SchemeKind, run_forward
from sktsim.grid import BoundaryCondition, FieldPair, Grid, NumericalFailure, read_field

MINIMAL = """\
dim = 1
domain.length = 1.0
grid.n = 16
time.t_final = 0.01
time.dt = 0.001
scheme = imex
bc = neumann
coeff.a11 = 1.0
coeff.a12 = 1.0
coeff.a21 = 1.0
coeff.a22 = 1.0
coeff.b1 = 1.0
coeff.b2 = 1.0
coeff.c1 = 1.0
coeff.c2 = 1.0
coeff.a1 = 1.0
coeff.a2 = 1.0
coeff.d1 = 1.0
coeff.d2 = 1.0
init.u = bump 0.5 0.3 1.0
init.v = constant 0.5
"""


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_parse_minimal_config():
    cfg = parse_config_text(MINIMAL)
    assert cfg.dim == 1 and cfg.n == 16
    assert cfg.scheme is SchemeKind.IMEX_LAGGED
    assert cfg.bc is BoundaryCondition.NEUMANN
    assert cfg.coefficients.d0 == 1.0  # derived
    assert cfg.rhs is AdjointRHSKind.IDENTITY  # default
    assert cfg.stride == 1 and cfg.seed == 0
    assert cfg.terminal_u.kind == "zero"
    initial = cfg.initial_field()
    assert float(np.min(initial.u)) >= 0.0
    assert np.allclose(initial.v, 0.5)


def test_parse_rejects_negative_coefficient():
    text = MINIMAL.replace("coeff.a12 = 1.0", "coeff.a12 = -1.0")
    with pytest.raises(ConfigError, match="coefficient a12"):
        parse_config_text(text)


def test_parse_rejects_duplicate_key_with_both_lines():
    text = MINIMAL + "grid.n = 32\n"
    with pytest.raises(ConfigError, match=r"duplicate key 'grid.n' on lines 3 and 22"):
        parse_config_text(text)


def test_parse_rejects_unknown_key_with_line():
    text = MINIMAL + "grid.m = 4\n"
    with pytest.raises(ConfigError, match=r"unknown key 'grid.m' on line 22"):
        parse_config_text(text)


def test_parse_rejects_missing_required_key():
    text = MINIMAL.replace("time.dt = 0.001\n", "")
    with pytest.raises(ConfigError, match="missing required key 'time.dt'"):
        parse_config_text(text)


def test_parse_rejects_type_mismatch():
    text = MINIMAL.replace("grid.n = 16", "grid.n = sixteen")
    with pytest.raises(ConfigError, match="expects an integer"):
        parse_config_text(text)


def test_parse_rejects_nondividing_dt():
    text = MINIMAL.replace("time.dt = 0.001", "time.dt = 0.0003")
    with pytest.raises(ConfigError, match="does not divide"):
        parse_config_text(text)


def test_parse_rejects_negative_initial_preset():
    text = MINIMAL.replace("init.v = constant 0.5", "init.v = cosine 1 1.0 0.0")
    # offset 0 with amplitude 1 dips negative
    with pytest.raises(ConfigError, match="negative"):
        parse_config_text(text)


def test_preset_grammar_variants():
    spec = PresetSpec.parse("bump(0.5, 0.2, 1.0)", "init.u", 1)
    assert spec.kind == "bump" and spec.params == (0.5, 0.2, 1.0)
    spec = PresetSpec.parse("cosine 2 0.5 1.0", "init.u", 1)
    grid = Grid(1, 1.0, 8)
    vals = spec.evaluate(grid)
    x = grid.centers()
    assert np.allclose(vals, 1.0 + 0.5 * np.cos(2 * np.pi * x))
    with pytest.raises(ConfigError, match="unknown preset"):
        PresetSpec.parse("blob 1 2 3", "init.u", 4)
    with pytest.raises(ConfigError, match="takes 3 parameters"):
        PresetSpec.parse("bump 0.5", "init.u", 4)


_KEY_ALPHABET = st.text(alphabet="abcdefgh.xyz_", min_size=1, max_size=14)


@settings(max_examples=200)
@given(_KEY_ALPHABET, st.floats(allow_nan=False, allow_infinity=False, width=32))
def test_fuzzed_unknown_keys_always_rejected(key, value):
    from sktsim.config import _ALL_KEYS
    if key in _ALL_KEYS:
        return
    with pytest.raises(ConfigError):
        parse_config_text(MINIMAL + f"{key} = {value}\n")


def test_cli_check_exits_zero(tmp_path, capsys):
    path = write_cfg(tmp_path, MINIMAL)
    assert main(["check", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "holds_coef_cond = true" in out
    assert "max_alpha" in out


def test_cli_config_error_exit_code(tmp_path, capsys):
    path = write_cfg(tmp_path, MINIMAL + "bogus.key = 1\n")
    assert main(["check", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("SKT-ERR:2:")


def test_cli_missing_config_file(tmp_path, capsys):
    assert main(["check", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "SKT-ERR:2:" in capsys.readouterr().err


def test_cli_simulate_writes_outputs_and_is_deterministic(tmp_path):
    path = write_cfg(tmp_path, MINIMAL + "storage.stride = 5\n")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(path), "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", str(path), "--out", str(out_b)]) == 0
    csv_a = (out_a / "forward_diagnostics.csv").read_bytes()
    csv_b = (out_b / "forward_diagnostics.csv").read_bytes()
    assert csv_a == csv_b
    snaps_a = sorted((out_a / "forward").glob("*.field"))
    snaps_b = sorted((out_b / "forward").glob("*.field"))
    assert [p.name for p in snaps_a] == [p.name for p in snaps_b]
    for pa, pb in zip(snaps_a, snaps_b):
        assert pa.read_bytes() == pb.read_bytes()
    # snapshots re-parse to bit-identical values
    snap = read_field(snaps_a[0])
    again = read_field(snaps_a[0])
    assert np.array_equal(snap.u, again.u)


def test_cli_simulate_stability_violation_exits_three(tmp_path, capsys):
    text = MINIMAL.replace("scheme = imex", "scheme = explicit")
    path = write_cfg(tmp_path, text)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("SKT-ERR:3:")
    assert "stability bound" in err


def test_cli_simulate_blowup_exits_three_naming_the_step(tmp_path, capsys):
    # Strong linear growth overflows the heat-limit run before t_final.
    text = (CONFIGS / "heat_1d.cfg").read_text().replace("coeff.a1 = 0.0", "coeff.a1 = 10000")
    path = write_cfg(tmp_path, text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("SKT-ERR:3:")
    assert "step" in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_cli_failed_linear_solve_exits_three_naming_the_step(tmp_path, capsys):
    # Growth 1e4 on the 1D IMEX run drives the implicit system past the
    # solver's residual bound before the fields overflow.
    path = write_cfg(tmp_path, MINIMAL.replace("coeff.a1 = 1.0", "coeff.a1 = 10000"))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("SKT-ERR:3: step ")
    assert "residual" in err


@pytest.mark.parametrize("dim", [1, 2])
def test_continuous_adjoint_with_overflowing_rhs_fails_with_step(dim):
    # With a1 = 1e200 the right-hand side of the first backward solve is
    # ~1e197 per entry, so its plain 2-norm overflows; such a solve must not
    # be accepted on an infinite tolerance, and the march must fail.
    cfg = parse_config_text(MINIMAL.replace("dim = 1", f"dim = {dim}"))
    traj = run_forward(cfg.forward_problem())
    growth = dataclasses.replace(cfg.coefficients, a1=1e200)
    with pytest.raises(NumericalFailure) as err:
        run_adjoint(growth, cfg.bc, (traj, traj), 1.0, AdjointRHSKind.GROWTH,
                    FieldPair.constant(traj.grid, 1.0, 1.0))
    assert err.value.step is not None and err.value.step < traj.time_grid.steps
    assert err.value.t == pytest.approx(err.value.step * cfg.dt)


@pytest.mark.parametrize("preset, message", [
    ("constant nan", "'init.u' on line 20"),
    ("cosine 1 1e308 1e308", "non-finite values (lines 20 and 21)"),
])
def test_cli_nonfinite_preset_is_config_error(tmp_path, capsys, preset, message):
    path = write_cfg(tmp_path, MINIMAL.replace("init.u = bump 0.5 0.3 1.0",
                                               f"init.u = {preset}"))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("SKT-ERR:2:")
    assert message in err


def test_cli_adjoint_uses_stored_trajectory(tmp_path, capsys):
    text = MINIMAL + "terminal.u = cosine 1 1.0 0.5\nterminal.v = zero\n"
    path = write_cfg(tmp_path, text)
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    assert main(["adjoint", "--config", str(path), "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "ran the forward solve first" not in captured
    adj = (out / "adjoint_diagnostics.csv").read_text()
    assert adj.startswith("step,t,h1_phi,weighted_lap_partial,dt_l43_partial")
    assert "kappa_sup = " in adj


def test_cli_adjoint_runs_forward_when_missing(tmp_path, capsys):
    text = MINIMAL + "terminal.u = constant 1.0\n"
    path = write_cfg(tmp_path, text)
    out = tmp_path / "fresh"
    assert main(["adjoint", "--config", str(path), "--out", str(out)]) == 0
    assert "ran the forward solve first" in capsys.readouterr().out
    assert (out / "adjoint_diagnostics.csv").exists()


def test_cli_verify_requires_campaign(tmp_path, capsys):
    path = write_cfg(tmp_path, MINIMAL)
    assert main(["verify", "--config", str(path)]) == 2
    assert "SKT-ERR:2:" in capsys.readouterr().err


def test_cli_verify_algebra_campaign(tmp_path, capsys):
    path = write_cfg(tmp_path, MINIMAL)
    assert main(["verify", "--config", str(path), "--campaign", "algebra",
                 "--out", str(tmp_path / "v")]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 4
    assert "FAIL" not in out


def test_cli_report_renders_plot_data(tmp_path):
    path = write_cfg(tmp_path, MINIMAL + "storage.stride = 5\n")
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    assert main(["report", "--config", str(path), "--out", str(out)]) == 0
    report = out / "report"
    assert (report / "summary.txt").exists()
    assert (report / "plot.gp").exists()
    dats = list(report.glob("*.dat"))
    assert dats
    first = dats[0].read_text().splitlines()[0].split()
    assert len(first) == 2  # two-column plot data


def test_cli_report_missing_dir_is_config_error(tmp_path, capsys):
    path = write_cfg(tmp_path, MINIMAL)
    assert main(["report", "--config", str(path), "--out", str(tmp_path / "void")]) == 2
    assert "SKT-ERR:2:" in capsys.readouterr().err
