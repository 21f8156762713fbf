"""One benchmark worker: set up, run timed passes, check every operation.

Started by ``run.py`` as a fresh process.  It prints ``READY`` once it is
ready for the first timed pass (the parent times set-up up to that line),
and at the end one ``RESULT <json>`` line.  With ``--setup-only`` it exits
after ``READY``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import workloads
from fingerprint import compare
from hostspeed import HostSpeed, normalise
from spans import LAYER_METRICS, Tracer, merge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def warm_up(sk, workdir: Path) -> None:
    """Tiny implicit and explicit CLI runs, so lazy imports finish before timing."""
    template = (ROOT / "configs" / "cfg_a_1d.cfg").read_text()
    text = workloads.config_text(template, 1, 8, 1e-4, 2, 1, workloads.draw(0))
    for scheme in ("imex", "explicit"):
        path = workdir / f"warm_{scheme}.cfg"
        path.write_text(text.replace("scheme = imex", f"scheme = {scheme}"))
        out = workdir / f"warm_{scheme}"
        for command in ("simulate", "adjoint"):
            code, err = workloads.cli_call(sk, [command, "--config", str(path), "--out", str(out)])
            if code != 0:
                raise SystemExit(f"warm-up {command} ({scheme}) exited {code}: {err}")
        workloads.clear(out)


def check(op: workloads.Op, outcome: workloads.Outcome, reference: dict) -> tuple[bool, bool, list]:
    """(failed, wrong, problems) for one operation against its reference.

    A failure that reproduces the exit code recorded at the reference commit
    (the known n = 1024 solver defect) is failed but not wrong.  An operation
    that failed there and succeeds now has no reference outputs; it is
    checked for finite outputs and invariants only.
    """
    ref = reference["ops"].get(op.key)
    if ref is None:
        return True, True, [f"{op.key}: no reference"]
    if outcome.exit != 0:
        wrong = outcome.exit != ref["exit"]
        return True, wrong, [f"{op.name}: exit {outcome.exit} {outcome.error[:200]}"]
    problems = list(outcome.problems)
    if ref["exit"] == 0:
        problems += compare(outcome.outputs, ref["outputs"], ref)
    return bool(problems), bool(problems), [f"{op.name}: {p}" for p in problems]


def run_pass(wl: workloads.Workload, workdir: Path, reference: dict, tracer: Tracer | None,
             speed: HostSpeed):
    """One pass over the workload's operations; checks run between the timed calls.

    The host-speed probe runs before the first operation and after each
    one; ``wall`` sums each operation's time normalised by the probes on
    either side of it, ``raw_wall`` the measured times.
    """
    record = {"wall": 0.0, "raw_wall": 0.0, "times": {}, "raw_times": {}, "probes": [],
              "attempted": 0, "failed": 0, "wrong": 0, "problems": [], "fingerprints": {},
              "gates": {}, "layers": {}}
    previous = None
    record["probes"].append(speed.probe())
    for op in wl.ops:
        out = workdir / "pass" / (op.group or op.name)
        if previous is not None and previous != out:
            workloads.clear(previous)
        previous = out
        if tracer is None:
            elapsed, result, exc = workloads.run_op(op, out)
        else:
            traced = workloads.Op(op.name, op.key,
                                  lambda o, run=op.run: tracer.call("bench", "op", run, (o,)),
                                  op.collect)
            elapsed, result, exc = workloads.run_op(traced, out)
        outcome = workloads.collect_op(op, result, exc, out)
        if tracer is not None:
            merge(record["layers"], tracer.take_metrics(outcome.gates))
        # After the spans are folded, so the probe does not pay for collecting them.
        record["probes"].append(speed.probe())
        failed, wrong, problems = check(op, outcome, reference)
        normalised = normalise(elapsed, *record["probes"][-2:])
        record["wall"] += normalised
        record["raw_wall"] += elapsed
        record["times"][op.name] = normalised
        record["raw_times"][op.name] = elapsed
        record["attempted"] += 1
        record["failed"] += failed
        record["wrong"] += wrong
        record["problems"] += problems
        record["fingerprints"][op.name] = [outcome.exit, outcome.outputs]
        record["gates"].update(outcome.gates)
    if previous is not None:
        workloads.clear(previous)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workdir = Path(args.workdir)

    t0 = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import sktsim.cli  # noqa: F401  (the import chain a CLI call pays)
    import sktsim as sk
    t1 = perf_counter()
    wl = workloads.build(sk, args.workload, args.seed, ROOT, workdir)
    t2 = perf_counter()
    warm_up(sk, workdir)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    speed = HostSpeed()
    setup_phases = {"setup.import_s": t1 - t0, "setup.inputs_s": t2 - t1}
    reference = json.loads((HERE / "reference.json").read_text())

    start = perf_counter()
    untraced = []
    budget = args.seconds / 2 if args.trace else args.seconds
    while True:
        untraced.append(run_pass(wl, workdir, reference, None, speed))
        if len(untraced) == 1:  # set-up plus one pass: the same work in every run
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        typical = statistics.median(p["raw_wall"] for p in untraced)
        if perf_counter() - start + typical > budget:
            break
    traced = []
    if args.trace:
        tracer = Tracer()
        tracer.install(sk)
        try:
            while True:
                traced.append(run_pass(wl, workdir, reference, tracer, speed))
                typical = statistics.median(p["raw_wall"] for p in traced)
                if perf_counter() - start + typical > args.seconds:
                    break
        finally:
            tracer.uninstall()

    passes = untraced + traced
    result = {
        "variant": wl.variant,
        "passes": [p["wall"] for p in untraced],
        "raw_passes": [p["raw_wall"] for p in untraced],
        "probes": [x for p in untraced for x in p["probes"]],
        "traced_passes": [p["wall"] for p in traced],
        "op_times": {name: [p["times"][name] for p in untraced] for name in untraced[0]["times"]},
        "raw_op_times": {name: [p["raw_times"][name] for p in untraced]
                         for name in untraced[0]["times"]},
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "wrong": sum(p["wrong"] for p in passes),
        "problems": sorted({q for p in passes for q in p["problems"]}),
        "gates": untraced[0]["gates"],
        "peak_rss_mb": peak_rss_mb,
    }
    if traced:
        identical = all(p["fingerprints"] == untraced[0]["fingerprints"] for p in passes)
        layers = {name: statistics.fmean(p["layers"].get(name, 0.0) for p in traced)
                  for name in LAYER_METRICS}
        layers.update(setup_phases)
        layers["trace.overhead_s"] = (statistics.median(result["traced_passes"])
                                      - statistics.median(result["passes"]))
        layers["trace.identical"] = float(identical)
        result["layers"] = layers
        if not identical:
            result["wrong"] += 1
            result["problems"].append("traced pass outputs differ from the untraced pass")
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
