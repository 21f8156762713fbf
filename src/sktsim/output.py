"""File emission and loading: diagnostics CSVs, snapshot directories, reports.

All numeric output uses 17-significant-digit decimal so repeated runs of
the same configuration produce byte-identical files and snapshots
round-trip exactly.  Nothing here writes timestamps.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import numpy as np

from sktsim.adjoint import AdjointBoundsReport
from sktsim.config import _COEFF_NAMES, RunConfig
from sktsim.forward import Trajectory, _stored_steps
from sktsim.grid import read_field, write_field

__all__ = [
    "load_forward_trajectory",
    "render_report",
    "write_adjoint_outputs",
    "write_csv",
    "write_forward_outputs",
]


_fmt = "{:.17g}".format

# The forward problem of the stored snapshots, beside them in ``forward/``.
_RECORD = "problem.cfg"


def write_csv(path: Path, columns: dict[str, np.ndarray],
              trailer: list[str] | None = None) -> None:
    """Columns in dict order, one row per entry of the first column."""
    lines = [",".join(columns)]
    length = len(next(iter(columns.values())))
    # The Python floats of tolist() print as float(col[i]) does, but faster.
    table = [np.asarray(col, dtype=float)[:length].tolist() for col in columns.values()]
    lines += [",".join(map(_fmt, row)) for row in zip(*table)]
    if trailer:
        lines.append("")
        lines.extend(trailer)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def _forward_record(cfg: RunConfig) -> dict[str, str]:
    """The config keys a forward run depends on besides its initial data,
    with their values as the record of a stored run writes them."""
    c = cfg.coefficients
    values = {"dim": cfg.dim, "domain.length": cfg.length, "grid.n": cfg.n,
              "time.t_final": cfg.t_final, "time.dt": cfg.dt, "scheme": cfg.scheme.value,
              "bc": cfg.bc.value,
              **{f"coeff.{name}": getattr(c, name) for name in (*_COEFF_NAMES, "alpha")},
              "storage.stride": cfg.stride}
    return {key: _fmt(v) if isinstance(v, float) else str(v) for key, v in values.items()}


def write_forward_outputs(out_dir: Path, trajectory: Trajectory, cfg: RunConfig) -> None:
    """Diagnostics CSV plus one snapshot file per stored level, replacing the
    snapshots of any earlier run in ``out_dir``, and beside them the record
    ``forward/problem.cfg`` of the forward problem of ``cfg`` they solve."""
    write_csv(out_dir / "forward_diagnostics.csv", trajectory.diagnostics)
    snap_dir = out_dir / "forward"
    snap_dir.mkdir(parents=True, exist_ok=True)
    for old in snap_dir.glob("step_*.field"):
        old.unlink()
    for i, step in enumerate(trajectory.stored_steps):
        write_field(snap_dir / f"step_{step:06d}.field", trajectory.grid, trajectory.levels[i])
    (snap_dir / _RECORD).write_text(
        "".join(f"{key} = {value}\n" for key, value in _forward_record(cfg).items()))


def load_forward_trajectory(out_dir: Path, cfg: RunConfig) -> Trajectory | None:
    """Rebuild a trajectory from stored snapshots, or None when absent.

    The snapshots, ordered by the step number in their names, must match
    the configuration's grid (see :func:`~sktsim.grid.read_field`).  The run
    must also have been made from the forward problem of ``cfg``: its record
    ``forward/problem.cfg`` must hold the values of ``cfg``, the snapshots
    must be exactly those of the steps a run of ``cfg`` stores (the rule of
    :func:`~sktsim.forward.run_forward`), and its level 0 must equal
    ``cfg.initial``.  Mismatches, and snapshots without a record, raise
    ``ValueError`` naming what differs rather than silently recompute.
    """
    snap_dir = out_dir / "forward"
    if not snap_dir.is_dir():
        return None
    snapshots = []
    for path in sorted(snap_dir.glob("step_*.field")):
        try:
            snapshots.append((int(path.stem.split("_")[1]), path))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not snapshots:
        return None
    # By step number: names outgrow their zero padding past 999999 steps.
    snapshots.sort()
    steps = [step for step, _ in snapshots]
    grid = cfg.grid()
    levels = np.array([read_field(path, grid) for _, path in snapshots])
    tg = cfg.time_grid()
    record_path = snap_dir / _RECORD
    if not record_path.is_file():
        raise ValueError(f"stored snapshots in {snap_dir} have no forward-problem record "
                         f"{_RECORD}; run simulate again")
    stored = {key: value for key, _, value in
              (line.partition(" = ") for line in record_path.read_text().splitlines())}
    differ = [f"{key} = {stored.get(key, '(missing)')} there, {value} in the config"
              for key, value in _forward_record(cfg).items() if stored.get(key) != value]
    # As multisets, so that step_250.field beside step_000250.field is an extra snapshot.
    kept, found = Counter(_stored_steps(tg.steps, cfg.stride)), Counter(steps)
    differ += [f"{kind} snapshots of steps {sorted(odd.elements())}"
               for kind, odd in (("missing", kept - found), ("extra", found - kept)) if odd]
    if not np.array_equal(levels[0], cfg.initial):
        differ.append("level 0 is not the initial data of init.u and init.v")
    if differ:
        raise ValueError(f"stored forward run in {snap_dir} differs from the forward problem "
                         f"of the config: {'; '.join(differ)}")
    return Trajectory(grid=grid, time_grid=tg, stored_steps=steps, levels=levels,
                      diagnostics={})


def write_adjoint_outputs(out_dir: Path, trajectory: Trajectory,
                          report: AdjointBoundsReport) -> None:
    """Adjoint diagnostics CSV with the bounds report appended as key = value
    lines, then ``mode = continuous``, the one discretization
    :func:`~sktsim.adjoint.run_adjoint` marches."""
    trailer = [f"{key} = {_fmt(val) if isinstance(val, float) else val}"
               for key, val in vars(report).items()] + ["mode = continuous"]
    write_csv(out_dir / "adjoint_diagnostics.csv", trajectory.diagnostics, trailer=trailer)


def _read_csv_columns(path: Path) -> tuple[list[str], list[list[float]]]:
    header: list[str] = []
    rows: list[list[float]] = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            break  # trailer block follows
        if not header:
            header = line.split(",")
            continue
        try:
            rows.append([float(tok) for tok in line.split(",")])
        except ValueError:
            break
    return header, rows


def render_report(data_dir: Path, report_dir: Path) -> list[Path]:
    """Render stored CSVs into a plain-text summary and two-column plot data.

    Every numeric column is emitted against the second column (time) when
    present, else against the first; a gnuplot-compatible script referencing
    the data files is written alongside.  Returns the rendered file paths.
    """
    csvs = sorted(data_dir.glob("*.csv"))
    if not csvs:
        raise FileNotFoundError(f"no CSV files found under {data_dir}")
    report_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    summary_lines = []
    plot_lines = ["set terminal dumb", "set key outside"]
    for csv_path in csvs:
        header, rows = _read_csv_columns(csv_path)
        if not header or not rows:
            continue
        arr = np.asarray(rows)
        x_idx = 1 if len(header) > 1 and header[1] == "t" else 0
        summary_lines.append(f"[{csv_path.name}] {len(rows)} rows")
        for j, name in enumerate(header):
            col = arr[:, j]
            summary_lines.append(
                f"  {name}: min = {_fmt(col.min())}, max = {_fmt(col.max())}, "
                f"final = {_fmt(col[-1])}")
            if j == x_idx:
                continue
            dat = report_dir / f"{csv_path.stem}__{name}.dat"
            dat.write_text("\n".join(f"{_fmt(arr[i, x_idx])} {_fmt(arr[i, j])}"
                                     for i in range(len(rows))) + "\n")
            written.append(dat)
            plot_lines.append(f"plot '{dat.name}' using 1:2 with lines title '{name}'")
    summary = report_dir / "summary.txt"
    summary.write_text("\n".join(summary_lines) + "\n")
    script = report_dir / "plot.gp"
    script.write_text("\n".join(plot_lines) + "\n")
    written.extend([summary, script])
    return written
