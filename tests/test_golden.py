"""Golden regression of the shipped configurations' diagnostics.

For each config in ``configs/`` the forward march runs as ``skt simulate``
does and the adjoint march as ``skt adjoint`` does (both forward slots hold
the same trajectory), in process.  Every 20th row plus the last row of
``forward_diagnostics`` and ``adjoint_diagnostics`` is compared with a
frozen copy in ``tests/golden/``, written at commit 25ca1dc.  Each column
may move by at most 1e-13 of its largest golden |value|; a column that is
all zero in the golden copy must stay exactly zero.

A refactor that keeps the numbers passes unchanged.  To re-freeze after a
deliberate change of the numerics, run ``python tests/test_golden.py``
and say why in the change description.
"""

from pathlib import Path

import numpy as np
import pytest

from sktsim.adjoint import ADJOINT_DIAGNOSTIC_COLUMNS, run_adjoint
from sktsim.config import parse_config
from sktsim.forward import DIAGNOSTIC_COLUMNS, run_forward

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"
NAMES = ("cfg_a_1d", "cfg_a_2d", "heat_1d")
EVERY = 20
RTOL = 1e-13


def _diagnostics(name: str) -> dict[str, dict[str, np.ndarray]]:
    cfg = parse_config(CONFIGS / f"{name}.cfg")
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


def _write_golden() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name in NAMES:
        current = _diagnostics(name)
        for kind, order in _ORDERS.items():
            lines = [",".join(order)]
            lines += [",".join(f"{x:.17g}" for x in row)
                      for row in _sampled(current[kind], order)]
            _golden_path(name, kind).write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    _write_golden()
