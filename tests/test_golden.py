"""Golden regression of the shipped configurations' diagnostics.

For each config in ``configs/``, and for variants of ``cfg_a_1d`` and
``cfg_a_2d``, the forward march runs as ``skt simulate`` does and the
adjoint march as ``skt adjoint`` does (both forward slots hold the same
trajectory), in process.  A ``_dirichlet`` name sets ``bc = dirichlet`` (the
shipped configs are all Neumann).  An ``_explicit`` name runs the explicit
scheme, which the shipped ``cfg_a`` configs (IMEX) do not: cross-diffusion,
reactions and, with ``_dirichlet``, walls, at a dt under the explicit bound
and a horizon cut to about a second of run time.  Every 20th row plus the
last row of ``forward_diagnostics`` and ``adjoint_diagnostics`` is compared
with a frozen copy in ``tests/golden/``, written at commit 25ca1dc (the
Dirichlet rows at 71535cd, the explicit rows at 5a925ff).  Each column may
move by at most 1e-13 of its largest golden |value|; a column that is all
zero in the golden copy must stay exactly zero.

A refactor that keeps the numbers passes unchanged.  To re-freeze after a
deliberate change of the numerics, run ``python tests/test_golden.py NAME
...`` for the configs concerned (no names: all of them) and say why in the
change description.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from sktsim.adjoint import ADJOINT_DIAGNOSTIC_COLUMNS, run_adjoint
from sktsim.config import parse_config_text
from sktsim.forward import DIAGNOSTIC_COLUMNS, run_forward

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"
NAMES = ("cfg_a_1d", "cfg_a_2d", "heat_1d", "cfg_a_1d_dirichlet", "cfg_a_2d_dirichlet",
         "cfg_a_1d_explicit", "cfg_a_2d_explicit", "cfg_a_1d_explicit_dirichlet",
         "cfg_a_2d_explicit_dirichlet")
_DIRICHLET, _EXPLICIT = "_dirichlet", "_explicit"
# Explicit variants: a dt under the explicit bound, about 1.6e-5 at 1D n = 64
# and 1.0e-4 at 2D n = 24 for the initial data.
_EXPLICIT_LINES = {"cfg_a_1d": {"scheme": "explicit", "time.dt": "1e-05", "time.t_final": "0.03"},
                   "cfg_a_2d": {"scheme": "explicit", "time.dt": "2.5e-05", "time.t_final": "0.025"}}
EVERY = 20
RTOL = 1e-13


def _config_text(name: str) -> str:
    base = name.removesuffix(_DIRICHLET).removesuffix(_EXPLICIT)
    overrides = dict(_EXPLICIT_LINES[base]) if _EXPLICIT in name else {}
    if name.endswith(_DIRICHLET):
        overrides["bc"] = "dirichlet"
    lines = (CONFIGS / f"{base}.cfg").read_text().splitlines()
    for key, value in overrides.items():
        at = [i for i, line in enumerate(lines) if line.partition("=")[0].strip() == key]
        assert len(at) == 1, f"{base}.cfg sets {key} {len(at)} times"
        lines[at[0]] = f"{key} = {value}"
    return "\n".join(lines) + "\n"


def _diagnostics(name: str) -> dict[str, dict[str, np.ndarray]]:
    cfg = parse_config_text(_config_text(name), source=name)
    traj = run_forward(cfg.forward_problem())
    phi_traj, _ = run_adjoint(cfg.coefficients, cfg.bc, (traj, traj), cfg.eps, cfg.rhs,
                              cfg.terminal_field(), stride=cfg.stride)
    return {"forward": traj.diagnostics, "adjoint": phi_traj.diagnostics}


def _sampled(columns: dict[str, np.ndarray], order: tuple[str, ...]) -> np.ndarray:
    table = np.column_stack([columns[key] for key in order])
    rows = sorted(set(range(0, len(table), EVERY)) | {len(table) - 1})
    return table[rows]


def _golden_path(name: str, kind: str) -> Path:
    return GOLDEN / f"{name}_{kind}.csv"


_ORDERS = {"forward": DIAGNOSTIC_COLUMNS, "adjoint": ADJOINT_DIAGNOSTIC_COLUMNS}


@pytest.mark.parametrize("name", NAMES)
def test_diagnostics_match_golden(name):
    current = _diagnostics(name)
    for kind, order in _ORDERS.items():
        path = _golden_path(name, kind)
        header = path.read_text().splitlines()[0].split(",")
        assert tuple(header) == order
        golden = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        table = _sampled(current[kind], order)
        assert table.shape == golden.shape, f"{path.name}: row count changed"
        for j, key in enumerate(order):
            scale = float(np.max(np.abs(golden[:, j])))
            if scale == 0.0:
                assert np.all(table[:, j] == 0.0), f"{path.name}:{key} is no longer exactly zero"
                continue
            err = float(np.max(np.abs(table[:, j] - golden[:, j]))) / scale
            assert err <= RTOL, f"{path.name}:{key} moved by {err:.2e} of its scale"


def _write_golden(names: list[str]) -> None:
    """Re-freeze the golden copies of ``names``, or of every config when empty."""
    unknown = sorted(set(names) - set(NAMES))
    if unknown:
        raise SystemExit(f"unknown golden configs {unknown}; known: {', '.join(NAMES)}")
    GOLDEN.mkdir(exist_ok=True)
    for name in names or NAMES:
        current = _diagnostics(name)
        for kind, order in _ORDERS.items():
            lines = [",".join(order)]
            lines += [",".join(f"{x:.17g}" for x in row)
                      for row in _sampled(current[kind], order)]
            _golden_path(name, kind).write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    _write_golden(sys.argv[1:])
