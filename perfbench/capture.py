"""Write ``reference.json``: fingerprints of every operation's outputs.

    python3 perfbench/capture.py

Run from the repository root at the commit the benchmark is anchored to.
Every variant-dependent operation runs once per input variant; every other
one once.  Each operation runs traced, so its solve count and largest
system are recorded beside its fingerprints; ``fingerprint.compare``
derives the tolerance for solver-dependent outputs from them.  The
duality campaigns run for every variant too, to confirm that their
outputs do not depend on it and that every gate passes.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import workloads
from fingerprint import EXPLICIT_RTOL, GROWTH, SOLVE_RTOL
from run import commit, source_digest, worker_env
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Operations whose fingerprint is variant-independent but whose gates see
# the variant's RunConfig.seed: run for every variant to confirm they pass.
VARIANT_GATED = ("duality-campaigns/campaign:algebra",)


def main() -> int:
    workdir = ROOT / ".perfbench_work" / f"capture-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    os.environ.update(worker_env(workdir))
    sys.path.insert(0, str(ROOT / "src"))
    import sktsim.cli  # noqa: F401
    import sktsim as sk

    ops: dict[str, dict] = {}
    try:
        for name in workloads.WORKLOADS:
            for variant in range(workloads.VARIANTS):
                wl = workloads.build(sk, name, variant, ROOT, workdir)
                for op in wl.ops:
                    if variant and "@" not in op.key and op.key not in VARIANT_GATED:
                        continue
                    record = capture_op(sk, op, workdir / "op")
                    known = ops.setdefault(op.key, record)
                    if [known["exit"], known.get("outputs")] != [record["exit"],
                                                                 record.get("outputs")]:
                        raise SystemExit(f"{op.key}: outputs depend on the variant")
                    print(f"{op.key}: exit {record['exit']}, {record['solves']} solves",
                          flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reference = {
        "commit": commit(), "source_sha256": source_digest(), "variants": workloads.VARIANTS,
        "tolerance": {
            "explicit_rtol": EXPLICIT_RTOL, "solve_rtol": SOLVE_RTOL, "growth": GROWTH,
            "derivation": "see perfbench/README.md, section 'Reference check'"},
        "ops": ops,
    }
    (HERE / "reference.json").write_text(dump_reference(reference))
    return 0


def dump_reference(reference: dict) -> str:
    """JSON with one line per operation, so a re-capture diffs line by line."""
    head = {k: v for k, v in reference.items() if k != "ops"}
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}," for k, v in sorted(head.items())]
    ops = [f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'), sort_keys=True)}"
           for k, v in sorted(reference["ops"].items())]
    return "{\n" + "\n".join(lines) + '\n"ops": {\n' + ",\n".join(ops) + "\n}}\n"


def capture_op(sk, op: workloads.Op, out: Path) -> dict:
    tracer = Tracer()
    tracer.install(sk)
    try:
        _, result, exc = workloads.run_op(op, out)
    finally:
        tracer.uninstall()
    metrics = tracer.take_metrics({})
    outcome = workloads.collect_op(op, result, exc, out)
    if not op.name.startswith("simulate"):  # adjoint reads what simulate wrote
        shutil.rmtree(out, ignore_errors=True)
    if outcome.problems or (outcome.outputs and any(v == "FAIL" for v in outcome.outputs.values())):
        raise SystemExit(f"{op.key}: {outcome.problems or 'a gate failed'}")
    record = {"exit": outcome.exit, "solves": int(metrics.get("linalg.solves", 0)),
              "cells": int(metrics.get("linalg.cells_max", 0)),
              "h": op.h, "dt": op.dt, "dim": op.dim}
    if outcome.exit == 0:
        record["outputs"] = outcome.outputs
    else:
        record["error"] = outcome.error[:300]
    return record


if __name__ == "__main__":
    sys.exit(main())
