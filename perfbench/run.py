"""sktsim benchmark entry point: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Workloads: explicit-march, implicit-solves,
duality-campaigns (see README.md).  Each run starts ``SETUPS`` fresh worker
processes one after another and times each from spawn until it is ready
(``setup_s`` is their median); the last one then runs whole passes over the
workload's operation list for about ``--seconds``, checking every output
against ``reference.json``.  ``--trace 1`` instead runs untraced and then
traced passes and reports per-layer metrics.

The last line of standard output is the JSON result; the line before it
holds the details (per-operation times, tail percentile, provenance).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from importlib import metadata
from pathlib import Path
from time import perf_counter

from hostspeed import HostSpeed, normalise
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3
DEADLINE_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "ok_ratio": "ratio", "peak_rss_mb": "MB"}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def worker_env(workdir: Path) -> dict[str, str]:
    """Pin the program's thread fan-out to the cores and BLAS to one thread."""
    env = dict(os.environ)
    env.update({"SKT_THREADS": str(cpu_count()), "OMP_NUM_THREADS": "1",
                "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "TMPDIR": str(workdir),
                "PYTHONHASHSEED": "0"})
    return env


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sktsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(env: dict[str, str]) -> dict:
    return {"commit": commit(), "source_sha256": source_digest(),
            "nproc": cpu_count(), "os_cpu_count": os.cpu_count(),
            "SKT_THREADS": env["SKT_THREADS"],
            "blas_threads": {k: env[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                 "MKL_NUM_THREADS")},
            "python": platform.python_version(),
            **{lib: metadata.version(lib) for lib in ("numpy", "scipy", "sympy")},
            "machine": platform.machine()}


def tail(samples: list[float]) -> dict:
    """Median, and the highest percentile (nearest rank) with ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered)}
    for pct in (99.9, 99, 95, 90, 75, 50):
        idx = math.ceil(pct / 100 * n) - 1
        if n - 1 - idx >= 10:
            out[f"p{pct:g}"] = ordered[idx]
            break
    return out


def run_workers(args, workdir: Path, env: dict[str, str]) -> tuple[list[float], list[float], dict]:
    """Spawn the set-up and measuring workers; kill whichever still runs at the deadline.

    Returns the measured set-up times, the same normalised for the host's
    speed, and the measuring worker's result.  The host-speed probe runs
    here before each spawn and after each set-up worker has exited; the
    measuring worker's own first probe closes its set-up.
    """
    speed = HostSpeed()
    base = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", str(workdir)]
    setups: list[float] = []
    probes: list[float] = []
    result = None
    deadline = perf_counter() + DEADLINE_S
    for i in range(SETUPS):
        last = i == SETUPS - 1
        probes.append(speed.probe())
        t0 = perf_counter()
        proc = subprocess.Popen(base + ([] if last else ["--setup-only"]), cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, text=True)
        timer = threading.Timer(max(deadline - perf_counter(), 0.0), proc.kill)
        timer.start()
        try:
            line = proc.stdout.readline()
            setups.append(perf_counter() - t0)
            rest = proc.stdout.read()
        finally:
            timer.cancel()
            proc.stdout.close()
            code = proc.wait()
        if line.strip() != "READY" or code != 0:
            raise RuntimeError(f"worker {i} exited {code} before or after set-up")
        if not last:
            probes.append(speed.probe())
        else:
            lines = [ln for ln in rest.splitlines() if ln.startswith("RESULT ")]
            if not lines:
                raise RuntimeError("measuring worker printed no result")
            result = json.loads(lines[-1][len("RESULT "):])
            probes.append(result["probes"][0])
    normalised = [normalise(t, probes[2 * i], probes[2 * i + 1]) for i, t in enumerate(setups)]
    return setups, normalised, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    for needed in (ROOT / "src" / "sktsim" / "cli.py", ROOT / "configs" / "cfg_a_1d.cfg",
                   HERE / "reference.json"):
        if not needed.is_file():
            return fail(f"{needed.relative_to(ROOT)} is missing; run from an sktsim checkout")

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    env = worker_env(workdir)
    try:
        raw_setups, setups, result = run_workers(args, workdir, env)
    except RuntimeError as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    passes = result["passes"]
    attempted, failed = result["attempted"], result["failed"]
    details = {
        "workload": args.workload, "seed": args.seed, "variant": result["variant"],
        "trace": args.trace, "setup_s": setups, "raw_setup_s": raw_setups,
        "wall_s": tail(passes), "raw_wall_s": tail(result["raw_passes"]),
        "probe_s": tail(result["probes"]),
        "ops_s": {name: statistics.median(t) for name, t in result["op_times"].items()},
        "raw_ops_s": {name: statistics.median(t) for name, t in result["raw_op_times"].items()},
        "gates_s": result["gates"], "problems": result["problems"][:20],
        "provenance": provenance(env),
    }
    if args.trace:
        details["traced_passes_s"] = result["traced_passes"]
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in result["layers"].items()}
    else:
        values = {"setup_s": statistics.median(setups), "wall_s": statistics.median(passes),
                  "ok_ratio": (attempted - failed) / attempted,
                  "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps(details))
    print(json.dumps({"correct": result["wrong"] == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name in ("linalg.residual_max", "trace.identical"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
