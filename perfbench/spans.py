"""Layer spans recorded from outside the program.

``Tracer.install`` replaces each layer entry point at the name its caller
looks up (``sktsim.forward.bicgstab_solve``, ``sktsim.forward._extend``,
``sktsim.experiments.run_forward`` ...) with a wrapper that records a span:
layer, function, start, end, parent span and operation id.  Spans stay in
memory; ``Tracer.take_metrics`` folds one operation's spans into per-layer
totals, and ``uninstall`` restores every original.

A span's self time is its duration minus the union of its children's
intervals.  Children of ``util.parallel_map`` run on pool threads and may
overlap, so the self times of a pass sum to the pass time plus that
overlap (reported as ``trace.thread_overlap_s``).
"""

from __future__ import annotations

import inspect
import itertools
import os
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

# Functions a module calls on itself that are layer boundaries.
_SELF_CALLS = {
    "sktsim.forward": ("step_explicit", "step_imex", "divergence_form_matrix",
                       "stability_bound", "run_forward", "manufactured_convergence"),
    "sktsim.adjoint": ("step_adjoint_backward", "step_adjoint_transpose", "run_adjoint"),
    "sktsim.grid": ("gradient_sq", "weak_norm"),
    "sktsim.output": ("write_csv",),
    "sktsim.campaigns": ("run_campaign",),
    "sktsim.cli": ("main",),
    "sktsim.mms": ("polynomial_neumann_solution", "bump_profile"),
    "sktsim.config": ("parse_config",),
}
_CALLERS = ("cli", "config", "campaigns", "experiments", "adjoint", "forward", "grid",
            "output", "mms")

GATES = ("mean-value-identities", "condition-implication", "positivity-certificate",
         "jacobian-consistency", "pairing-refinement", "summation-by-parts",
         "scalar-reduction", "exact-transpose-duality", "weak-norm-slope",
         "kappa-stability", "dual-exponent-table", "product-term-linearity",
         "exponential-oracle", "kappa-eps-independence", "gronwall-telescoping",
         "eps-cauchy-exact-zero", "truncation-blend")

# Per-layer metric names, in report order.  Units live in BENCHMARK.json.
LAYER_METRICS = (
    "algebra.calls", "algebra.self_s",
    "grid.stencil.calls", "grid.stencil.self_s", "grid.norm.calls", "grid.norm.self_s",
    "grid.weak.calls", "grid.weak.self_s", "grid.fieldpair.count",
    "grid.io.bytes", "grid.io.self_s",
    "forward.steps", "forward.cell_steps", "forward.step.self_s",
    "forward.assemble.calls", "forward.assemble.self_s", "forward.stability.self_s",
    "forward.march.self_s",
    "linalg.solves", "linalg.solve.self_s", "linalg.failed", "linalg.matvecs",
    "linalg.residual_max",
    "adjoint.steps", "adjoint.marches", "adjoint.step.self_s", "adjoint.march.self_s",
    "experiments.forward_marches", "experiments.adjoint_marches", "experiments.self_s",
    "campaigns.self_s", *(f"campaigns.gate.{g}.s" for g in GATES),
    "util.parallel_map.calls", "util.parallel_map.wall_s", "util.parallel_map.busy_s",
    "mms.forcing.calls", "mms.forcing.self_s", "mms.profile.self_s",
    "config.parse_s",
    "output.write.self_s", "output.write.bytes", "output.read.self_s",
    "cli.self_s", "bench.self_s",
    "trace.pass_s", "trace.thread_overlap_s", "trace.unaccounted_s",
)


def layer_of(module: str, name: str) -> str:
    """Layer a program function belongs to, by defining module and name."""
    short = module.removeprefix("sktsim.")
    if short == "grid":
        if name in ("laplacian", "gradient_sq", "_extend", "_grad_sq_array"):
            return "grid.stencil"
        if name in ("weak_norm", "shifted_solve"):
            return "grid.weak"
        if name in ("write_field", "read_field"):
            return "grid.io"
        return "grid.norm"
    if short == "forward":
        return {"step_explicit": "forward.step", "step_imex": "forward.step",
                "divergence_form_matrix": "forward.assemble",
                "stability_bound": "forward.stability"}.get(name, "forward.march")
    if short == "adjoint":
        return "adjoint.step" if name.startswith("step_") else "adjoint.march"
    if short == "mms":
        profiles = ("bump_profile", "heat_limit_coefficients")
        return "mms.profile" if name in profiles else "mms.forcing"
    if short == "output":
        return "output.read" if name == "load_forward_trajectory" else "output.write"
    if short == "linalg":
        return "linalg.solve"
    return short  # algebra, experiments, campaigns, config, cli, util


class _CountingOperator:
    """Stands in for the matrix handed to the solver and counts ``A @ x``."""

    __slots__ = ("A", "count")

    def __init__(self, A):
        self.A = A
        self.count = 0

    def __matmul__(self, x):
        self.count += 1
        return self.A @ x


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, parent, layer, fn, start, end, extra]
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._fieldpairs = itertools.count()
        self._fieldpairs_seen = 0

    # -------------------------------------------------------------- recording

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer: str, fn_name: str, fn, args=(), kwargs=None, extra=None):
        stack = self._stack()
        rec = [next(self._ids), stack[-1] if stack else 0, layer, fn_name, 0.0, 0.0, extra]
        stack.append(rec[0])
        rec[4] = perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            rec[5] = perf_counter()
            stack.pop()
            self.spans.append(rec)

    # -------------------------------------------------------------- wrappers

    def _span(self, layer: str, fn):
        name = fn.__name__
        if layer == "forward.step":
            def wrapper(*args, **kwargs):
                return self.call(layer, name, fn, args, kwargs, {"cells": args[1].grid.node_count})
        elif layer in ("grid.io", "output.write"):
            def wrapper(*args, **kwargs):
                return self.call(layer, name, fn, args, kwargs, {"path": args[0]})
        else:
            def wrapper(*args, **kwargs):
                return self.call(layer, name, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _solver(self, fn):
        def solve(A, b, *args, **kwargs):
            proxy = _CountingOperator(A)
            extra = {"matvecs": 0, "failed": 1, "cells": b.size // 2}
            try:
                x = self.call("linalg.solve", fn.__name__, fn, (proxy, b, *args), kwargs, extra)
                extra["failed"] = 0
            finally:
                extra["matvecs"] = proxy.count
            self.call("bench", "residual", self._residual, (A, b, x, extra))
            return x
        return solve

    @staticmethod
    def _residual(A, b, x, extra) -> None:
        b_norm = float(np.linalg.norm(b))
        if b_norm > 0.0:
            extra["residual"] = float(np.linalg.norm(b - A @ x)) / b_norm

    def _fan_out(self, fn):
        def parallel_map(item_fn, items):
            def body():
                parent = self._stack()[-1]

                def item(arg):
                    saved = getattr(self._local, "stack", None)
                    self._local.stack = [parent]
                    try:
                        return self.call("experiments", "item", item_fn, (arg,))
                    finally:
                        self._local.stack = saved
                return fn(item, items)
            return self.call("util.parallel_map", fn.__name__, body)
        return parallel_map

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, sk) -> None:
        """Wrap every layer entry point of the imported ``sktsim`` modules."""
        for caller in _CALLERS:
            module = getattr(sk, caller)
            own = _SELF_CALLS.get(module.__name__, ())
            for attr, obj in list(vars(module).items()):
                if not (inspect.isfunction(obj) and obj.__module__.startswith("sktsim.")):
                    continue
                if obj.__module__ == module.__name__ and attr not in own:
                    continue
                if obj.__module__ == "sktsim.util":
                    self._patch(module, attr, self._fan_out(obj))
                elif obj.__module__ == "sktsim.linalg":
                    self._patch(module, attr, self._solver(obj))
                else:
                    self._patch(module, attr, self._span(layer_of(obj.__module__, attr), obj))
        solution = sk.mms.ManufacturedSolution
        for attr in ("forcing", "field"):
            self._patch(solution, attr, self._span("mms.forcing", getattr(solution, attr)))
        field_pair = sk.grid.FieldPair
        post_init, counter = field_pair.__post_init__, self._fieldpairs

        def counted_post_init(pair):
            next(counter)
            post_init(pair)
        self._patch(field_pair, "__post_init__", counted_post_init)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------------------- aggregation

    def take_metrics(self, gates: dict[str, float]) -> dict[str, float]:
        """Per-layer totals of the spans recorded since the last call, then forget them."""
        spans, self.spans = self.spans, []
        fieldpairs = next(self._fieldpairs)
        m = defaultdict(float)
        m["grid.fieldpair.count"] = fieldpairs - self._fieldpairs_seen
        self._fieldpairs_seen = fieldpairs + 1

        by_id = {rec[0]: rec for rec in spans}
        children = defaultdict(list)
        for rec in spans:
            children[rec[1]].append(rec)

        def under(rec, layer: str) -> bool:
            parent = by_id.get(rec[1])
            while parent is not None:
                if parent[2] == layer:
                    return True
                parent = by_id.get(parent[1])
            return False

        self_sum = 0.0
        for rec in spans:
            layer, fn, start, end, extra = rec[2], rec[3], rec[4], rec[5], rec[6]
            duration = end - start
            covered = reach = 0.0
            kids = sorted((k[4], k[5]) for k in children.get(rec[0], ()))
            for k_start, k_end in kids:
                k_start = max(k_start, reach)
                if k_end > k_start:
                    covered += k_end - k_start
                    reach = k_end
            overlap = sum(k_end - k_start for k_start, k_end in kids) - covered
            m["trace.thread_overlap_s"] += overlap
            own = duration - covered
            self_sum += own
            if layer == "bench":
                m["bench.self_s"] += own
                if fn == "op":
                    m["trace.pass_s"] += duration
                continue
            if layer == "util.parallel_map":
                m["util.parallel_map.calls"] += 1
                m["util.parallel_map.wall_s"] += duration
                m["util.parallel_map.busy_s"] += sum(k[5] - k[4] for k in children.get(rec[0], ()))
                m["experiments.self_s"] += own  # the fan-out's own bookkeeping
                continue
            m[_SELF_KEY.get(layer, f"{layer}.self_s")] += own
            if layer in _CALLS:
                m[f"{layer}.calls"] += 1
            if layer == "forward.step":
                m["forward.steps"] += 1
                m["forward.cell_steps"] += extra["cells"]
            elif layer == "linalg.solve":
                m["linalg.solves"] += 1
                m["linalg.failed"] += extra["failed"]
                m["linalg.matvecs"] += extra["matvecs"]
                m["linalg.residual_max"] = max(m["linalg.residual_max"], extra.get("residual", 0.0))
                m["linalg.cells_max"] = max(m["linalg.cells_max"], extra["cells"])
            elif layer == "adjoint.step":
                m["adjoint.steps"] += 1
            elif layer in ("grid.io", "output.write") and os.path.isfile(extra["path"]):
                key = "grid.io.bytes" if layer == "grid.io" else "output.write.bytes"
                m[key] += os.path.getsize(extra["path"])
            elif layer == "mms.forcing" and fn == "forcing":
                m["mms.forcing.calls"] += 1
            if fn == "run_forward" and under(rec, "experiments"):
                m["experiments.forward_marches"] += 1
            elif fn == "run_adjoint":
                m["adjoint.marches"] += 1
                if under(rec, "experiments"):
                    m["experiments.adjoint_marches"] += 1
        m["trace.unaccounted_s"] += m["trace.pass_s"] + m["trace.thread_overlap_s"] - self_sum
        for gate, elapsed in gates.items():
            m[f"campaigns.gate.{gate}.s"] += elapsed
        return dict(m)


_CALLS = ("algebra", "grid.stencil", "grid.norm", "grid.weak", "forward.assemble")
_SELF_KEY = {"config": "config.parse_s"}


def merge(total: dict[str, float], part: dict[str, float]) -> None:
    """Add one operation's metrics into a pass total (maxima stay maxima)."""
    for key, value in part.items():
        if key in ("linalg.residual_max", "linalg.cells_max"):
            total[key] = max(total.get(key, 0.0), value)
        else:
            total[key] = total.get(key, 0.0) + value
