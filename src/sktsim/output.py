"""File emission and loading: diagnostics CSVs, snapshot directories, reports.

All numeric output uses 17-significant-digit decimal so repeated runs of
the same configuration produce byte-identical files and snapshots
round-trip exactly.  Nothing here writes timestamps.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from sktsim.adjoint import AdjointBoundsReport
from sktsim.config import RunConfig
from sktsim.forward import Trajectory
from sktsim.grid import read_field, write_field

__all__ = [
    "load_forward_trajectory",
    "render_report",
    "write_adjoint_outputs",
    "write_csv",
    "write_forward_outputs",
]


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def write_csv(path: Path, columns: dict[str, np.ndarray],
              trailer: list[str] | None = None) -> None:
    """Columns in dict order, one row per entry of the first column."""
    lines = [",".join(columns)]
    length = len(next(iter(columns.values())))
    for i in range(length):
        lines.append(",".join(_fmt(float(col[i])) for col in columns.values()))
    if trailer:
        lines.append("")
        lines.extend(trailer)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def write_forward_outputs(out_dir: Path, trajectory: Trajectory) -> None:
    """Diagnostics CSV plus one snapshot file per stored level, replacing the
    snapshots of any earlier run in ``out_dir``."""
    write_csv(out_dir / "forward_diagnostics.csv", trajectory.diagnostics)
    snap_dir = out_dir / "forward"
    snap_dir.mkdir(parents=True, exist_ok=True)
    for old in snap_dir.glob("step_*.field"):
        old.unlink()
    for i, step in enumerate(trajectory.stored_steps):
        write_field(snap_dir / f"step_{step:06d}.field", trajectory.grid, trajectory.levels[i])


def load_forward_trajectory(out_dir: Path, cfg: RunConfig) -> Trajectory | None:
    """Rebuild a trajectory from stored snapshots, or None when absent.

    The snapshots, ordered by the step number in their names, must match
    the configuration's grid (see :func:`~sktsim.grid.read_field`) and cover
    the full time range; mismatches raise rather than silently recompute.
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
    if steps[0] != 0 or steps[-1] != tg.steps:
        raise ValueError(f"stored snapshots in {snap_dir} do not span steps 0..{tg.steps}")
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
