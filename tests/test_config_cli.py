import dataclasses
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sktsim
from sktsim.adjoint import AdjointRHSKind, run_adjoint
from sktsim.algebra import max_alpha
from sktsim.cli import main
from sktsim.config import ConfigError, PresetSpec, parse_config, parse_config_text
from sktsim.forward import SchemeKind, Trajectory, run_forward
from sktsim.grid import BoundaryCondition, Grid, NumericalFailure, read_field
from sktsim.output import load_forward_trajectory, write_forward_outputs

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
    assert np.array_equal(cfg.terminal, np.zeros((2, 16)))  # zero presets by default
    assert cfg.eps == 1.0 and cfg.out_dir == "out"
    assert cfg.coefficients.alpha == 0.5  # half the smallest a_ij
    initial = cfg.initial
    assert initial.shape == (2, 16)
    assert float(np.min(initial[0])) >= 0.0
    assert np.allclose(initial[1], 0.5)


def test_parsed_config_holds_the_checked_preset_fields():
    cfg = parse_config(CONFIGS / "cfg_a_1d.cfg")
    grid = cfg.grid()
    presets = {key: PresetSpec.parse(text, key, 1) for key, text in (
        ("init.u", "bump 0.5 0.3 2.0"), ("init.v", "bump 0.35 0.25 1.2"),
        ("terminal.u", "cosine 1 1.0 0.5"), ("terminal.v", "cosine 2 1.0 0.0"))}
    fields = {key: spec.evaluate(grid) for key, spec in presets.items()}
    assert np.array_equal(cfg.initial, np.stack((fields["init.u"], fields["init.v"])))
    assert np.array_equal(cfg.terminal, np.stack((fields["terminal.u"], fields["terminal.v"])))
    for field in (cfg.initial, cfg.terminal):
        assert not field.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            field[0, 0] = 1.0
    assert cfg.forward_problem().initial is cfg.initial


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


def test_readme_configuration_table_lists_every_key():
    from sktsim.config import _ALL_KEYS, _COEFF_NAMES
    readme = (CONFIGS.parent / "README.md").read_text()
    table = readme.split("## Configuration format", 1)[1].split("\n## ", 1)[0]
    listed = set()
    for row in table.splitlines():
        if row.startswith("| `"):
            listed.update(re.findall(r"`([^`]+)`", row.split("|")[1]))
    if "coeff.a11 ... coeff.d2" in listed:
        listed.update(f"coeff.{name}" for name in _COEFF_NAMES)
    assert sorted(set(_ALL_KEYS) - listed) == []


def test_cli_check_exits_zero(tmp_path, capsys):
    path = write_cfg(tmp_path, MINIMAL)
    assert main(["check", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "holds_coef_cond = true" in out
    assert f"max_alpha = {max_alpha(parse_config(path).coefficients):.17g}" in out.splitlines()


def test_cli_config_error_exit_code(tmp_path, capsys):
    path = write_cfg(tmp_path, MINIMAL + "bogus.key = 1\n")
    assert main(["check", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("SKT-ERR:2:")


@pytest.mark.parametrize("key,value", [
    ("dim", "3"), ("domain.length", "0"), ("grid.n", "2"), ("time.dt", "-0.001"),
    ("scheme", "rk4"), ("bc", "periodic"), ("adjoint.eps", "0"), ("adjoint.rhs", "q"),
    ("storage.stride", "0"), ("coeff.alpha", "5"), ("coeff.a12", "-1"),
    ("terminal.u", "cosine 1 1e308 1e308"), ("init.v", "cosine 1 1e308 1e308"),
    ("seed", "-5"), ("init.u", "bump 0.5 0 1.0"), ("grid.n", "16.5"),
    ("domain.length", "inf"), ("coeff.a11", "1e400"), ("adjoint.eps", "nan"),
    ("time.t_final", "0"), ("grid.n", "1_6"), ("grid.n", "\u0661\u0666"),
    ("time.dt", "1e-3_0"), ("init.u", "bump 0.5 0_3 2.0"),
])
def test_cli_invalid_value_names_key_and_line(tmp_path, capsys, key, value):
    lines = MINIMAL.splitlines()
    keys = [line.partition(" = ")[0] for line in lines]
    if key in keys:
        lineno = keys.index(key) + 1
        lines[lineno - 1] = f"{key} = {value}"
    else:
        lines.append(f"{key} = {value}")
        lineno = len(lines)
    path = write_cfg(tmp_path, "\n".join(lines) + "\n")
    assert main(["check", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("SKT-ERR:2:")
    assert key in err and f"line {lineno})" in err
    assert err.startswith(f"SKT-ERR:2: {path}: ")


@pytest.mark.parametrize("key,value", [("coeff.a12", "1e200"), ("coeff.a11", "1e308")])
def test_cli_check_refuses_coefficients_whose_admissibility_products_overflow(
        tmp_path, key, value):
    # a12^2 overflowed a Python float (a traceback), and 2 a11 made max_alpha nan.
    text = (CONFIGS / "cfg_a_1d.cfg").read_text().replace(f"{key} = 1.0", f"{key} = {value}")
    path = write_cfg(tmp_path, text)
    src = str(Path(sktsim.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-m", "sktsim.cli", "check", "--config", str(path)],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 2
    assert out.stderr.startswith("SKT-ERR:2:") and f"invalid {key}: " in out.stderr
    assert "Traceback" not in out.stderr and "nan" not in out.stdout


@pytest.mark.parametrize("command,edits,key", [
    ("check", {"time.t_final": "1e10", "time.dt": "1e-310"}, "time.dt"),
    ("simulate", {"domain.length": "1e-200"}, "domain.length"),
    ("simulate", {"domain.length": "1e200"}, "domain.length"),
], ids=["steps-overflow", "h-squared-underflow", "h-squared-overflow"])
def test_cli_refuses_values_whose_derived_numbers_overflow(tmp_path, command, edits, key):
    # t_final / dt overflowed to inf, and TimeGrid.steps raised OverflowError
    # (a traceback); h^2 = (1e-200 / 64)^2 rounded to 0, and the first step
    # divided by it (ZeroDivisionError); (1e200 / 64)^2 raised OverflowError.
    lines = (CONFIGS / "cfg_a_1d.cfg").read_text().splitlines()
    for i, line in enumerate(lines):
        name = line.partition(" = ")[0]
        if name in edits:
            lines[i] = f"{name} = {edits[name]}"
    path = write_cfg(tmp_path, "\n".join(lines) + "\n")
    lineno = next(i for i, line in enumerate(lines, 1) if line.startswith(f"{key} = "))
    src = str(Path(sktsim.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-m", "sktsim.cli", command, "--config", str(path),
                          "--out", str(tmp_path / "out")],
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 2
    assert out.stderr.startswith(f"SKT-ERR:2: {path}: invalid {key}: ")
    assert f"(line {lineno})" in out.stderr and "Traceback" not in out.stderr


@pytest.mark.parametrize("command, edits, detail", [
    ("simulate", {"time.dt": "1e-15"}, ""),
    ("check", {"dim": "2", "grid.n": "10000000"}, ": Unable to allocate 728. TiB"),
], ids=["steps", "grid"])
def test_cli_refuses_a_run_too_large_to_allocate(tmp_path, capsys, command, edits, detail):
    # 5e14 steps of stride 10 need 364 TiB of stored-step indices, and a 2D
    # grid of n = 1e7 needs 728 TiB per preset array: more than a process can
    # map, so the allocation fails at once and nothing is allocated.  Each
    # raised MemoryError (a traceback, exit 1).
    lines = (CONFIGS / "cfg_a_1d.cfg").read_text().splitlines()
    for i, line in enumerate(lines):
        name = line.partition(" = ")[0]
        if name in edits:
            lines[i] = f"{name} = {edits[name]}"
    path = write_cfg(tmp_path, "\n".join(lines) + "\n")
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"SKT-ERR:2: {path}: the grid (dim, grid.n) or the step count "
                          f"(time.t_final / time.dt) is too large to allocate{detail}")
    assert err.count("\n") == 1


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
    grid = parse_config(path).grid()
    snap = read_field(snaps_a[0], grid)
    again = read_field(snaps_a[0], grid)
    assert snap.shape == (2, *grid.shape) and np.array_equal(snap, again)


def test_cli_simulate_again_replaces_the_stored_snapshots(tmp_path, capsys):
    # A second run into the same --out with another stride and other data
    # must leave only its own snapshots, so that `adjoint` marches on one run.
    text = (CONFIGS / "cfg_a_1d.cfg").read_text()
    assert text.count("storage.stride = 10") == text.count("init.u = bump 0.5 0.3 2.0") == 1
    second = write_cfg(tmp_path, text.replace("storage.stride = 10", "storage.stride = 25")
                       .replace("init.u = bump 0.5 0.3 2.0", "init.u = constant 3.0"))
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    assert main(["simulate", "--config", str(CONFIGS / "cfg_a_1d.cfg"), "--out", str(reused)]) == 0
    for out in (reused, fresh):
        assert main(["simulate", "--config", str(second), "--out", str(out)]) == 0
        assert main(["adjoint", "--config", str(second), "--out", str(out)]) == 0
    names = sorted(p.name for p in (reused / "forward").glob("*.field"))
    assert names == [f"step_{k:06d}.field" for k in range(0, 501, 25)]
    assert ((reused / "adjoint_diagnostics.csv").read_bytes()
            == (fresh / "adjoint_diagnostics.csv").read_bytes())


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_cli_unusable_out_is_config_error(tmp_path, capsys, command):
    # --out names a file (simulate) or a path under a file (verify).
    path = write_cfg(tmp_path, MINIMAL)
    afile = tmp_path / "afile"
    afile.touch()
    argv = {"simulate": ["simulate", "--out", str(afile)],
            "verify": ["verify", "--campaign", "algebra", "--out", str(afile / "x")]}[command]
    assert main(argv + ["--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("SKT-ERR:2:")


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
    # Step 1728 lies in the seventh block of 256 levels, past the first one.
    assert err.startswith("SKT-ERR:3: step 1728 (t=0.0864): ")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_cli_failed_linear_solve_exits_three_naming_the_step(tmp_path, capsys):
    # Growth 1e4 on the 1D IMEX run drives the implicit system past the
    # solver's residual bound before the fields overflow.
    path = write_cfg(tmp_path, MINIMAL.replace("coeff.a1 = 1.0", "coeff.a1 = 10000"))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("SKT-ERR:3: step ")
    assert "residual" in err


def test_cli_adjoint_on_a_forward_undershoot_exits_three_naming_the_step(tmp_path, capsys):
    # Strong cross-diffusion a12 = 10 makes the unclipped IMEX run undershoot
    # at level 1; the adjoint step frozen there is a numerical failure.
    text = (CONFIGS / "cfg_a_1d.cfg").read_text()
    for old, new in (("coeff.a12 = 1.0", "coeff.a12 = 10.0"),
                     ("time.t_final = 0.5", "time.t_final = 0.005"),
                     ("storage.stride = 10", "storage.stride = 1"),
                     ("init.u = bump 0.5 0.3 2.0", "init.u = bump 0.3 0.15 2.0"),
                     ("init.v = bump 0.35 0.25 1.2", "init.v = bump 0.6 0.2 3.0")):
        text = text.replace(old, new)
    path = write_cfg(tmp_path, text)
    assert main(["adjoint", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("SKT-ERR:3: step 1 (t=0.001): truncated coefficient state has a "
                          "negative density -0.0")


@pytest.mark.parametrize("dim", [1, 2])
def test_continuous_adjoint_with_overflowing_rhs_fails_with_step(dim):
    # With a1 = 1e200 the right-hand side of the first backward solve is
    # ~1e197 per entry, so its plain 2-norm overflows; such a solve must not
    # be accepted on an infinite tolerance, and the march must fail.
    cfg = parse_config_text(MINIMAL.replace("dim = 1", f"dim = {dim}"))
    traj = run_forward(cfg.forward_problem())
    growth = dataclasses.replace(cfg.coefficients, a1=1e200)
    with pytest.raises(NumericalFailure) as err:
        run_adjoint(growth, cfg.bc, traj, 1.0, AdjointRHSKind.GROWTH,
                    np.ones((2, *traj.grid.shape)))
    assert err.value.step is not None and err.value.step < traj.time_grid.steps
    assert err.value.t == pytest.approx(err.value.step * cfg.dt)


@pytest.mark.parametrize("preset, message", [
    ("constant nan", "'init.u' on line 20"),
    ("cosine 1 1e308 1e308", "non-finite values from preset 'init.u' (line 20)"),
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


def test_cli_adjoint_reuses_only_a_stored_run_of_its_own_forward_problem(tmp_path, capsys):
    # Config B makes the same 500 steps on the same grid as cfg_a_1d (A), but
    # with another a11, dt and horizon.  A's stored run serves A, byte for
    # byte as a fresh run, and is refused for B.
    a = str(CONFIGS / "cfg_a_1d.cfg")
    text = (CONFIGS / "cfg_a_1d.cfg").read_text()
    for old in ("coeff.a11 = 1.0", "time.dt = 0.001", "time.t_final = 0.5"):
        assert text.count(old) == 1
    b = str(write_cfg(tmp_path, text.replace("coeff.a11 = 1.0", "coeff.a11 = 2.0")
                      .replace("time.dt = 0.001", "time.dt = 0.002")
                      .replace("time.t_final = 0.5", "time.t_final = 1.0")))
    stored, fresh = tmp_path / "stored", tmp_path / "fresh"
    assert main(["simulate", "--config", a, "--out", str(stored)]) == 0
    capsys.readouterr()
    assert main(["adjoint", "--config", a, "--out", str(stored)]) == 0
    assert "ran the forward solve first" not in capsys.readouterr().out
    assert main(["adjoint", "--config", a, "--out", str(fresh)]) == 0
    assert "ran the forward solve first" in capsys.readouterr().out
    assert ((stored / "adjoint_diagnostics.csv").read_bytes()
            == (fresh / "adjoint_diagnostics.csv").read_bytes())

    assert main(["adjoint", "--config", b, "--out", str(stored)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("SKT-ERR:2:") and "differs from the forward problem" in err
    for key in ("coeff.a11 = 1 there, 2 in the config", "time.dt = 0.001 there, 0.002 in",
                "time.t_final = 0.5 there, 1 in"):
        assert key in err
    assert "coeff.a12" not in err and "level 0" not in err


def test_cli_adjoint_refuses_a_stored_run_from_other_initial_data(tmp_path, capsys):
    # Same record, other init.v: only level 0 tells the runs apart.
    text = (CONFIGS / "cfg_a_1d.cfg").read_text()
    other = write_cfg(tmp_path, text.replace("init.v = bump 0.35 0.25 1.2",
                                             "init.v = bump 0.35 0.25 1.3"))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(CONFIGS / "cfg_a_1d.cfg"), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["adjoint", "--config", str(other), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("SKT-ERR:2:")
    assert err.rstrip().endswith("level 0 is not the initial data of init.u and init.v")


def test_cli_adjoint_refuses_stored_snapshots_without_a_record(tmp_path, capsys):
    out = tmp_path / "out"
    config = str(CONFIGS / "heat_1d.cfg")
    assert main(["simulate", "--config", config, "--out", str(out)]) == 0
    (out / "forward" / "problem.cfg").unlink()
    capsys.readouterr()
    assert main(["adjoint", "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("SKT-ERR:2:") and "no forward-problem record problem.cfg" in err


def test_cli_adjoint_on_stored_trajectory_whose_h_does_not_round_trip(tmp_path, capsys):
    # 49 * fl(1/49) != 1.0, so a snapshot's printed h times n misses the length.
    text = (CONFIGS / "cfg_a_1d.cfg").read_text()
    text = text.replace("grid.n = 64", "grid.n = 49").replace("time.t_final = 0.5",
                                                              "time.t_final = 0.01")
    path = write_cfg(tmp_path, text)
    stored, fresh = tmp_path / "stored", tmp_path / "fresh"
    assert main(["simulate", "--config", str(path), "--out", str(stored)]) == 0
    assert main(["adjoint", "--config", str(path), "--out", str(stored)]) == 0
    assert main(["adjoint", "--config", str(path), "--out", str(fresh)]) == 0
    assert ((stored / "adjoint_diagnostics.csv").read_bytes()
            == (fresh / "adjoint_diagnostics.csv").read_bytes())
    capsys.readouterr()

    longer = write_cfg(tmp_path, text.replace("domain.length = 1.0", "domain.length = 1.5"),
                       name="longer.cfg")
    assert main(["adjoint", "--config", str(longer), "--out", str(stored)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("SKT-ERR:2:") and "do not match the configured grid (h " in err


@pytest.mark.parametrize("key", ["d", "N", "h"])
def test_cli_adjoint_on_snapshot_header_missing_a_key_is_config_error(tmp_path, capsys, key):
    config = str(CONFIGS / "heat_1d.cfg")
    out = tmp_path / "o"
    assert main(["simulate", "--config", config, "--out", str(out)]) == 0
    first = out / "forward" / "step_000000.field"
    lines = first.read_text().split("\n")
    items = lines[0].split(", ")
    lines[0] = ", ".join(item for item in items if not item.startswith(f"{key}="))
    assert len(lines[0].split(", ")) == len(items) - 1
    first.write_text("\n".join(lines))
    capsys.readouterr()
    assert main(["adjoint", "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("SKT-ERR:2:")
    assert str(first) in err and f"no {key}=" in err


@pytest.mark.parametrize("key, bad", [("d", "x"), ("N", "16.5"), ("h", "wide")])
def test_cli_adjoint_on_an_unparsable_snapshot_header_names_the_file(tmp_path, capsys,
                                                                     key, bad):
    config = str(CONFIGS / "heat_1d.cfg")
    out = tmp_path / "o"
    assert main(["simulate", "--config", config, "--out", str(out)]) == 0
    first = out / "forward" / "step_000000.field"
    lines = first.read_text().split("\n")
    items = [f"{key}={bad}" if item.startswith(f"{key}=") else item
             for item in lines[0].split(", ")]
    assert f"{key}={bad}" in items
    lines[0] = ", ".join(items)
    first.write_text("\n".join(lines))
    capsys.readouterr()
    assert main(["adjoint", "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"SKT-ERR:2: {first}: ")
    assert repr(bad) in err


@pytest.mark.parametrize("old,new", [("N=64", "N=6_4"), ("\n1.", "\n\u0661.")],
                         ids=["header-underscore", "value-non-ascii"])
def test_cli_adjoint_on_a_snapshot_number_outside_the_grammar_names_the_file(
        tmp_path, capsys, old, new):
    # Python and numpy would read N=6_4 as 64 and an Arabic-Indic one as 1.
    config = str(CONFIGS / "heat_1d.cfg")
    out = tmp_path / "o"
    assert main(["simulate", "--config", config, "--out", str(out)]) == 0
    first = out / "forward" / "step_000000.field"
    text = first.read_text()
    assert old in text
    first.write_text(text.replace(old, new, 1), encoding="utf-8")
    capsys.readouterr()
    assert main(["adjoint", "--config", config, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"SKT-ERR:2: {first}: ")


@pytest.mark.parametrize("command", ["check", "simulate", "adjoint", "report"])
def test_cli_campaign_outside_verify_is_config_error(tmp_path, capsys, command):
    out = tmp_path / "o"
    assert main([command, "--config", str(CONFIGS / "heat_1d.cfg"), "--campaign", "mms",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("SKT-ERR:2: --campaign applies to verify only")
    assert not out.exists()


def test_cli_adjoint_on_a_stray_snapshot_name_names_the_file(tmp_path, capsys):
    config = str(CONFIGS / "heat_1d.cfg")
    out = tmp_path / "o"
    assert main(["simulate", "--config", config, "--out", str(out)]) == 0
    stray = out / "forward" / "step_abc.field"
    stray.write_text((out / "forward" / "step_000000.field").read_text())
    capsys.readouterr()
    assert main(["adjoint", "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"SKT-ERR:2: {stray}: ")
    assert "'abc'" in err


def test_cli_adjoint_on_a_corrupt_snapshot_names_the_file(tmp_path, capsys):
    # A nan in a stored snapshot is bad input, not a numerical failure of
    # the march: exit 2, naming the file and the value.
    config = str(CONFIGS / "heat_1d.cfg")
    out = tmp_path / "o"
    assert main(["simulate", "--config", config, "--out", str(out)]) == 0
    first = out / "forward" / "step_000000.field"
    lines = first.read_text().split("\n")
    lines[3] = "nan"
    first.write_text("\n".join(lines))
    capsys.readouterr()
    assert main(["adjoint", "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("SKT-ERR:2:")
    assert f"{first}: non-finite value nan" in err


def _drop_snapshot(snaps):
    (snaps / "step_000005.field").unlink()


def _add_snapshot_between(snaps):
    shutil.copy(snaps / "step_000010.field", snaps / "step_000007.field")


def _add_snapshot_under_a_short_name(snaps):
    shutil.copy(snaps / "step_000005.field", snaps / "step_5.field")


@pytest.mark.parametrize("edit,message", [
    (_drop_snapshot, "missing snapshots of steps [5]"),
    (_add_snapshot_between, "extra snapshots of steps [7]"),
    (_add_snapshot_under_a_short_name, "extra snapshots of steps [5]")],
    ids=["missing", "extra", "extra-same-step"])
def test_cli_adjoint_refuses_a_stored_run_without_exactly_its_snapshots(tmp_path, capsys,
                                                                        edit, message):
    # Steps 0, 5 and 10 are stored.  Without step 5, adjoint steps 5-9 would
    # read level 0; with a snapshot named 7, steps 7-9 would read the level
    # it holds.  Either way the stored run is refused.
    path = write_cfg(tmp_path, MINIMAL + "storage.stride = 5\nterminal.u = constant 1.0\n")
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    edit(out / "forward")
    capsys.readouterr()
    assert main(["adjoint", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("SKT-ERR:2:") and "differs from the forward problem" in err
    assert err.rstrip().endswith(message)
    assert not (out / "adjoint_diagnostics.csv").exists()


@pytest.mark.parametrize("steps", [9_500_000, 1_000_000])
def test_stored_snapshots_load_in_step_order_past_a_million_steps(tmp_path, steps):
    # Snapshot names outgrow their 6-digit padding at 10^6 steps, where
    # step_1000000 sorts before step_500000 by name.  Each level holds its
    # own step number, so no march runs; level 0 holds 0.0, the config's
    # zero initial data, and the config stores every 500 000th step.
    text = (MINIMAL.replace("grid.n = 16", "grid.n = 8")
            .replace("time.t_final = 0.01", f"time.t_final = {steps // 1000}")
            .replace("init.u = bump 0.5 0.3 1.0", "init.u = zero")
            .replace("init.v = constant 0.5", "init.v = zero")) + "storage.stride = 500000\n"
    cfg = parse_config(write_cfg(tmp_path, text))
    grid, time_grid = cfg.grid(), cfg.time_grid()
    assert time_grid.steps == steps
    stored = [*range(0, steps, 500_000), steps]
    levels = np.array([np.full((2, *grid.shape), float(step)) for step in stored])
    write_forward_outputs(tmp_path, Trajectory(grid, time_grid, stored, levels,
                                               {"step": np.zeros(1)}), cfg)
    traj = load_forward_trajectory(tmp_path, cfg)
    assert traj.stored_steps == stored
    assert np.array_equal(traj.levels, levels)


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


def test_cli_verify_algebra_passes_on_constants_other_than_one(tmp_path, capsys):
    # The worked mean-value example is pinned to all-ones constants, so an
    # admissible config with a12 = 2 passes all four gates.
    text = (CONFIGS / "cfg_a_1d.cfg").read_text().replace("coeff.a12 = 1.0", "coeff.a12 = 2.0")
    path = write_cfg(tmp_path, text)
    assert main(["verify", "--config", str(path), "--campaign", "algebra",
                 "--out", str(tmp_path / "v")]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS  ") == 4 and "FAIL" not in out


def test_cli_verify_keeps_the_gate_lines_reached_before_a_numerical_failure(tmp_path, capsys):
    # With a11 = 1000 (admissible) the pinned mass-conservation step exceeds
    # the explicit stability bound after three gates have passed; the error
    # names the gate that was running.
    text = (CONFIGS / "cfg_a_1d.cfg").read_text().replace("coeff.a11 = 1.0", "coeff.a11 = 1000.0")
    path = write_cfg(tmp_path, text)
    assert main(["verify", "--config", str(path), "--campaign", "mms",
                 "--out", str(tmp_path / "v")]) == 3
    captured = capsys.readouterr()
    lines = [ln for ln in captured.out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert [ln.split(":")[0] for ln in lines] == [
        "PASS  heat-spatial-order", "PASS  imex-temporal-order", "PASS  mms-full-coupling-order"]
    assert captured.err.startswith(
        "SKT-ERR:3: campaign 'mms' stopped after 3 checks, in gate 'mass-conservation': "
        "step 1 (t=1e-05): explicit step dt=1e-05 exceeds the stability bound 5.08297e-08 ")


def test_cli_verify_algebra_fails_only_the_certificate_without_coefficient_condition(
        tmp_path, capsys):
    # heat_1d has a12 = a21 = 0: no positivity margin to certify, but the
    # other three gates still run and the campaign exits 4, not 2.
    out_dir = tmp_path / "v"
    assert main(["verify", "--config", str(CONFIGS / "heat_1d.cfg"), "--campaign", "algebra",
                 "--out", str(out_dir)]) == 4
    captured = capsys.readouterr()
    lines = [ln for ln in captured.out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert [ln.split(":")[0] for ln in lines] == [
        "PASS  mean-value-identities", "PASS  condition-implication",
        "FAIL  positivity-certificate", "PASS  jacobian-consistency"]
    assert "coefficient condition fails: margins" in lines[2]
    assert "SKT-ERR:4:" in captured.err
    assert (out_dir / "algebra_checks.csv").read_text().splitlines()[1:] == [
        "0,1", "1,1", "2,0", "3,1"]


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
