"""The three benchmark workloads: inputs drawn from the seed, operations, outputs.

Every input is a function of ``variant = seed % VARIANTS``, and the
reference file holds fingerprints for every variant, so each run checks
every output against a value captured from the reference commit.

The program is only ever called through module attributes
(``forward.run_forward``, ``cli.main`` ...), so the tracer can wrap the
callee at the name the caller looks up.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Callable

from fingerprint import fingerprint_outputs, read_csv, read_snapshot

VARIANTS = 16
WORKLOADS = ("explicit-march", "implicit-solves", "duality-campaigns")
SHIPPED_CONFIGS = ("cfg_a_1d", "cfg_a_2d", "heat_1d")
CAMPAIGN_NAMES = ("algebra", "uniqueness", "dependence", "eps-cauchy")

# Generated IMEX configs: (name, dim, n, dt, steps, storage stride).  The
# n = 1024 one is the known BiCGStab failure (exit 3); it stays in the
# workload so the defect shows in every result.
GENERATED_CONFIGS = (("gen_2d_64", 2, 64, 5e-4, 10, 5),
                     ("gen_2d_128", 2, 128, 5e-4, 2, 1),
                     ("gen_1d_1024", 1, 1024, 1e-3, 20, 10))

MASS_DRIFT_LIMIT = 1e-10  # the mass-conservation gate's own criterion


@dataclass
class Outcome:
    """What one operation returned: exit code (0 ok), error text, outputs."""

    exit: int | str
    error: str = ""
    outputs: dict | None = None
    gates: dict = field(default_factory=dict)  # gate name -> CheckResult.elapsed
    problems: list = field(default_factory=list)  # invariant violations


@dataclass
class Op:
    name: str
    key: str                                  # reference-file key
    run: Callable[[Path], object]             # the timed program call
    collect: Callable[[object, Path], Outcome]  # untimed: gather and fingerprint outputs
    h: float = 1.0
    dt: float = 1.0
    dim: int = 1
    group: str = ""                           # ops sharing one output directory


@dataclass
class Workload:
    name: str
    variant: int
    ops: list[Op]


def draw(variant: int) -> dict:
    """Initial-bump parameters and the program's RunConfig.seed for one variant."""
    rng = random.Random(variant)
    return {"cu": rng.uniform(0.4, 0.6), "wu": rng.uniform(0.25, 0.35), "au": rng.uniform(0.8, 1.2),
            "cv": rng.uniform(0.3, 0.5), "wv": rng.uniform(0.2, 0.3), "av": rng.uniform(0.48, 0.72),
            "seed": rng.randrange(2 ** 31)}


# ---------------------------------------------------------------- explicit-march

def _explicit_march(sk, root: Path, workdir: Path, variant: int) -> list[Op]:
    """1000 explicit steps of the mass-conservation gate's reaction-free desk problem."""
    from sktsim.algebra import Coefficients
    from sktsim.forward import ForwardProblem, SchemeKind, TimeGrid
    from sktsim.grid import BoundaryCondition, FieldPair, Grid

    c = sk.config.parse_config(root / "configs" / "cfg_a_1d.cfg").coefficients
    reaction_free = Coefficients(c.a11, c.a12, c.a21, c.a22, d1=c.d1, d2=c.d2)
    grid = Grid(1, 1.0, 64)
    p = draw(variant)
    initial = FieldPair(grid, sk.mms.bump_profile(grid, p["cu"], p["wu"], p["au"]) + 0.2,
                        sk.mms.bump_profile(grid, p["cv"], p["wv"], p["av"]) + 0.2)
    dt = 1e-5
    problem = ForwardProblem(reaction_free, grid, BoundaryCondition.NEUMANN,
                             TimeGrid(1000 * dt, dt), SchemeKind.EXPLICIT, initial,
                             stride=10 ** 9)

    def collect(traj, _out: Path) -> Outcome:
        final = traj.final_state()
        outputs = {"u": final.u.tolist(), "v": final.v.tolist()}
        outputs.update({f"diag:{k}": v.tolist() for k, v in traj.diagnostics.items()})
        fp = fingerprint_outputs({"u": outputs.pop("u"), "v": outputs.pop("v")}, k=64)
        fp.update(fingerprint_outputs(outputs))
        drift = max(max(abs(x - col[0]) for x in col)
                    for col in (traj.diagnostics["mass_u"], traj.diagnostics["mass_v"]))
        problems = [] if drift <= MASS_DRIFT_LIMIT else [f"mass drift {drift:.3g} > 1e-10"]
        return Outcome(0, outputs=fp, problems=problems)

    return [Op("march", f"explicit-march/march@{variant}",
               lambda _out: sk.forward.run_forward(problem), collect,
               h=grid.h, dt=dt, dim=1)]


# ---------------------------------------------------------------- implicit-solves

def config_text(template: str, dim: int, n: int, dt: float, steps: int, stride: int,
                 p: dict) -> str:
    """A cfg_a-style config with the generated grid, horizon and bumps."""
    overrides = {"dim": str(dim), "grid.n": str(n), "time.dt": repr(dt),
                 "time.t_final": repr(steps * dt), "storage.stride": str(stride),
                 "init.u": f"bump {p['cu']!r} {p['wu']!r} {2 * p['au']!r}",
                 "init.v": f"bump {p['cv']!r} {p['wv']!r} {2 * p['av']!r}",
                 "seed": str(p["seed"])}
    lines = []
    for line in template.splitlines():
        key = line.partition("=")[0].strip()
        if key in overrides:
            line = f"{key} = {overrides.pop(key)}"
        lines.append(line)
    lines += [f"{k} = {v}" for k, v in overrides.items()]
    return "\n".join(lines) + "\n"


def cli_call(sk, argv: list[str]) -> tuple[int, str]:
    """``cli.main`` in process, its console output captured."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = sk.cli.main(argv)
    return code, err.getvalue().strip()


def _collect_cli(command: str):
    def collect(result, out: Path) -> Outcome:
        code, err = result
        if code != 0:
            return Outcome(code, error=err)
        if command == "simulate":
            outputs = {f"csv:{k}": v for k, v in read_csv(out / "forward_diagnostics.csv").items()}
            last = sorted((out / "forward").glob("step_*.field"))[-1]
            snap = fingerprint_outputs({f"snap:{k}": v for k, v in read_snapshot(last).items()},
                                       k=17)
            return Outcome(0, outputs={**fingerprint_outputs(outputs), **snap})
        outputs = {f"csv:{k}": v for k, v in read_csv(out / "adjoint_diagnostics.csv").items()}
        return Outcome(0, outputs=fingerprint_outputs(outputs))
    return collect


def _implicit_solves(sk, root: Path, workdir: Path, variant: int) -> list[Op]:
    """``skt simulate`` + ``skt adjoint`` on shipped and generated configs, then MMS."""
    from sktsim.forward import ForwardProblem, SchemeKind, TimeGrid
    from sktsim.grid import BoundaryCondition, FieldPair, Grid

    p = draw(variant)
    cfg_dir = workdir / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    template = (root / "configs" / "cfg_a_1d.cfg").read_text()
    configs = [(name, root / "configs" / f"{name}.cfg", name) for name in SHIPPED_CONFIGS]
    for name, dim, n, dt, steps, stride in GENERATED_CONFIGS:
        path = cfg_dir / f"{name}.cfg"
        path.write_text(config_text(template, dim, n, dt, steps, stride, p))
        configs.append((name, path, f"{name}@{variant}"))

    ops = []
    for name, path, ref_name in configs:
        cfg = sk.config.parse_config(path)
        for command in ("simulate", "adjoint"):
            ops.append(Op(f"{command}:{name}", f"implicit-solves/{command}:{ref_name}",
                          lambda out, argv=[command, "--config", str(path)]:
                              cli_call(sk, argv + ["--out", str(out)]),
                          _collect_cli(command), h=cfg.length / cfg.n, dt=cfg.dt,
                          dim=cfg.dim, group=name))

    coefficients = sk.config.parse_config(root / "configs" / "cfg_a_1d.cfg").coefficients
    ns = (16, 32, 64, 128)
    T = 0.05

    def mms_convergence(_out: Path):
        exact = sk.mms.polynomial_neumann_solution(coefficients, 1)
        grid = Grid(1, 1.0, ns[0])
        problem = ForwardProblem(coefficients, grid, BoundaryCondition.NEUMANN,
                                 TimeGrid(T, T), SchemeKind.IMEX_LAGGED, FieldPair.zeros(grid))
        return sk.forward.manufactured_convergence(problem, exact, ns=ns)

    def collect_mms(table, _out: Path) -> Outcome:
        return Outcome(0, outputs=fingerprint_outputs(
            {"ns": [float(n) for n in table.ns], "errors": list(table.errors)}))

    h = 1.0 / ns[-1]
    ops.append(Op("mms-convergence", "implicit-solves/mms-convergence", mms_convergence,
                  collect_mms, h=h, dt=T / round(T / (0.5 * h * h)), dim=1))
    return ops


# ---------------------------------------------------------------- duality-campaigns

# Finest (h, dt) each campaign marches with, for the solve-derived tolerance.
CAMPAIGN_RESOLUTION = {"algebra": (1.0, 1.0), "uniqueness": (1 / 32, 0.05 / 1024),
                       "dependence": (1 / 48, 0.2 / 400), "eps-cauchy": (1 / 64, 1e-3)}


def _duality_campaigns(sk, root: Path, workdir: Path, variant: int) -> list[Op]:
    """``campaigns.run_campaign`` for the four duality/algebra campaigns."""
    cfg = replace(sk.config.parse_config(root / "configs" / "cfg_a_1d.cfg"),
                  seed=draw(variant)["seed"])

    def collect(results, out: Path) -> Outcome:
        outputs: dict = {f"gate:{r.name}": "PASS" if r.passed else "FAIL" for r in results}
        for csv in sorted(out.glob("*.csv")):
            outputs.update({f"{csv.name}:{k}": v for k, v in read_csv(csv).items()})
        return Outcome(0, outputs=fingerprint_outputs(outputs),
                       gates={r.name: r.elapsed for r in results})

    return [Op(f"campaign:{name}", f"duality-campaigns/campaign:{name}",
               lambda out, name=name: sk.campaigns.run_campaign(name, cfg, out), collect,
               h=CAMPAIGN_RESOLUTION[name][0], dt=CAMPAIGN_RESOLUTION[name][1], dim=1)
            for name in CAMPAIGN_NAMES]


_MAKERS = {"explicit-march": _explicit_march, "implicit-solves": _implicit_solves,
             "duality-campaigns": _duality_campaigns}


def build(sk, name: str, seed: int, root: Path, workdir: Path) -> Workload:
    """Parse the configs and generate the inputs of one workload for ``seed``."""
    variant = seed % VARIANTS
    return Workload(name, variant, _MAKERS[name](sk, root, workdir, variant))


def run_op(op: Op, out: Path) -> tuple[float, object, BaseException | None]:
    """Time one operation; exceptions are the program's failures, not the benchmark's."""
    out.mkdir(parents=True, exist_ok=True)
    t0 = perf_counter()
    try:
        result, exc = op.run(out), None
    except Exception as err:  # any raise is a failed operation, recorded by type
        result, exc = None, err
    return perf_counter() - t0, result, exc


def collect_op(op: Op, result, exc: BaseException | None, out: Path) -> Outcome:
    if exc is not None:
        return Outcome(type(exc).__name__, error=str(exc))
    outcome = op.collect(result, out)
    if outcome.outputs is not None and not _finite(outcome.outputs):
        outcome.problems.append("non-finite output")
    return outcome


def _finite(fp: dict) -> bool:
    return all(isinstance(v, str) or all(math.isfinite(x) for x in v) for v in fp.values())


def clear(out: Path) -> None:
    shutil.rmtree(out, ignore_errors=True)
