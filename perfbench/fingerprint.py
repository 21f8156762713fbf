"""Output fingerprints and the tolerances they are compared with.

A fingerprint of a numeric array is ``[n, absmax, sum, sumsq, *sample]``,
where the sample holds values at up to ``k`` evenly spaced positions
(every value when the array is that short).  The files the program writes
are parsed here, not with the program's own readers, so a reader defect
cannot hide a writer defect.

Tolerances (see README.md for the derivation):

* explicit-only outputs: ``EXPLICIT_RTOL`` relative to the array's largest
  magnitude;
* outputs that pass through the iterative solves: ``eps_op * amp(kind)``
  against ``max(absmax, 1)``, where ``eps_op = SOLVE_RTOL * solves *
  sqrt(2 N) * GROWTH`` and ``amp`` is the stencil amplification of the
  quantity's kind (values 1, gradients 2/h, Laplacians 4d/h^2, time
  differences 2/dt, squared forms twice that).
"""

from __future__ import annotations

import math
from pathlib import Path

EXPLICIT_RTOL = 1e-13
SOLVE_RTOL = 1e-10
GROWTH = 3.0  # >= exp(max(a1, a2) * T) for every horizon the workloads march

# Quantity kind by output name.  Unlisted names are plain values.
KINDS = {
    **dict.fromkeys(("step", "t", "n", "dt", "tau", "delta", "eps", "eps_coarse", "eps_fine",
                     "truncation_inactive", "check", "passed", "chi_h1", "ns",
                     "input_l2", "input_lq", "ing47", "ing48", "ing49"), "exact"),
    **dict.fromkeys(("h1_u", "h1_v", "gradp_l2", "h1_phi", "sup_h1", "kappa_sup",
                     "diff_sup_h1"), "grad"),
    **dict.fromkeys(("lapp_l2", "diff_lap_l2"), "lap"),
    **dict.fromkeys(("weighted_lap", "weighted_lap_partial", "kappa_weighted_lap"), "lap2"),
    **dict.fromkeys(("wtd_dtu_l2", "dt_l43", "dt_l43_partial", "kappa_dt", "max_residual"),
                    "rate"),
    **dict.fromkeys(("gronwall_kappa", "gronwall_slack"), "energy_rate"),
    # A roundoff-level identity gap: its gate (summation-by-parts) checks it.
    "sbp_gap": "roundoff",
}


def amplification(kind: str, h: float, dt: float, dim: int) -> float:
    lap = 4.0 * dim / h ** 2
    return {"value": 1.0, "grad": 2.0 / h, "lap": lap, "lap2": 2.0 * lap,
            "rate": 2.0 / dt, "energy_rate": 2.0 * (2.0 / dt) * (2.0 / h)}[kind]


def array_fingerprint(values: list[float], k: int = 9) -> list[float]:
    n = len(values)
    if n <= k:
        sample = list(values)
    else:
        idx = sorted({round(i * (n - 1) / (k - 1)) for i in range(k)})
        sample = [values[i] for i in idx]
    absmax = max((abs(x) for x in values), default=0.0)
    return [n, absmax, math.fsum(values), math.fsum(x * x for x in values), *sample]


def read_csv(path: Path) -> dict[str, object]:
    """Columns of a program CSV, plus ``key = value`` trailer lines as scalars."""
    lines = path.read_text().split("\n")
    header = lines[0].split(",")
    columns: dict[str, list[float]] = {name: [] for name in header}
    i = 1
    while i < len(lines) and lines[i]:
        for name, tok in zip(header, lines[i].split(",")):
            columns[name].append(float(tok))
        i += 1
    out: dict[str, object] = dict(columns)
    for line in lines[i:]:
        if " = " in line:
            key, _, raw = line.partition(" = ")
            try:
                out[key] = [float(raw)]
            except ValueError:
                out[key] = raw
    return out


def read_snapshot(path: Path) -> dict[str, list[float]]:
    """The u and v blocks of an ``skt-field v1`` snapshot."""
    lines = path.read_text().split("\n")
    if not lines[0].startswith("skt-field v1"):
        raise ValueError(f"{path}: not a field snapshot")
    values = [float(tok) for line in lines[1:] for tok in line.split()]
    half = len(values) // 2
    return {"u": values[:half], "v": values[half:]}


def fingerprint_outputs(outputs: dict[str, object], k: int = 9) -> dict[str, object]:
    """Fingerprint every output: arrays as above, strings verbatim."""
    return {name: (val if isinstance(val, str) else array_fingerprint(list(val), k))
            for name, val in outputs.items()}


def compare(got: dict[str, object], ref: dict[str, object], op_ref: dict) -> list[str]:
    """Mismatches of ``got`` against ``ref``; empty when every output is within bound.

    ``op_ref`` carries the operation's solve count and cell count and its
    finest h and dt; an operation with no solves uses the explicit bound.
    """
    problems = []
    if set(got) != set(ref):
        return [f"outputs {sorted(set(got) ^ set(ref))} present on one side only"]
    solves = op_ref.get("solves", 0)
    eps_op = (SOLVE_RTOL * solves * math.sqrt(2 * op_ref.get("cells", 1)) * GROWTH
              if solves else 0.0)
    for name, r in ref.items():
        g = got[name]
        if isinstance(r, str) or isinstance(g, str):
            if g != r:
                problems.append(f"{name}: {g!r} != {r!r}")
            continue
        kind = KINDS.get(name.rsplit(":", 1)[-1], "value")
        if kind == "roundoff":
            continue
        if kind == "exact" or eps_op == 0.0:
            tol, scale = EXPLICIT_RTOL, r[1]
        else:
            tol = eps_op * amplification(kind, op_ref["h"], op_ref["dt"], op_ref["dim"])
            scale = max(r[1], 1.0)
        if g[0] != r[0] or len(g) != len(r):
            problems.append(f"{name}: length {g[0]} != {r[0]}")
            continue
        n = r[0]
        per_value = tol * scale
        bounds = [per_value, per_value * n, (2 * tol + tol * tol) * scale * scale * n]
        bounds += [per_value] * (len(r) - 4)
        diffs = [abs(a - b) for a, b in zip(g[1:], r[1:])]
        if not all(d <= b for d, b in zip(diffs, bounds)):
            worst = max(d - b for d, b in zip(diffs, bounds))
            problems.append(f"{name}: off the reference by {worst:.3g} beyond its bound "
                            f"(tol {tol:.3g}, kind {kind})")
    return problems
