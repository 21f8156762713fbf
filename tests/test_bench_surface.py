"""The benchmark's calls into the program, checked against its reference outputs.

``perfbench/workloads.py`` drives the program through its public surface:
it builds ``ForwardProblem``s positionally with a ``FieldPair`` as the
initial data, reads ``Trajectory.final_state().u`` / ``.v``, runs the CLI
and the campaigns, and fingerprints what they return or write.  Here those
operations run for variant 0 and are compared with ``perfbench/reference.json``
by the benchmark's own ``fingerprint.compare``, so a change to that surface
fails this suite rather than the benchmark.  Some of them run again under
the benchmark's layer tracer (``perfbench/spans.py``), which replaces the
layer entry points by the names their callers look up, so a call that
bypasses those names or that a wrapper cannot take fails here rather than
in a traced benchmark pass.  The benchmark files are only imported, never
written (no bytecode cache is left next to them).
"""

import json
import sys
from pathlib import Path

import pytest

import sktsim
import sktsim.cli  # noqa: F401  (loads every module the workloads reach as sktsim.<name>)

BENCH = Path(__file__).resolve().parent.parent / "perfbench"

OPS = ("explicit-march/march@0",
       "implicit-solves/simulate:cfg_a_1d", "implicit-solves/adjoint:cfg_a_1d",
       "implicit-solves/simulate:heat_1d", "implicit-solves/adjoint:heat_1d",
       "implicit-solves/mms-convergence",
       "duality-campaigns/campaign:algebra", "duality-campaigns/campaign:uniqueness",
       "duality-campaigns/campaign:dependence", "duality-campaigns/campaign:eps-cauchy")

TRACED_OPS = ("explicit-march/march@0",
              "implicit-solves/simulate:cfg_a_1d", "implicit-solves/adjoint:cfg_a_1d",
              "duality-campaigns/campaign:algebra", "duality-campaigns/campaign:dependence",
              "duality-campaigns/campaign:uniqueness")


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """The benchmark's workloads, fingerprint and spans modules, the
    variant-0 ops by reference key, and the reference file."""
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        import fingerprint
        import spans
        import workloads
    finally:
        sys.path[:], sys.dont_write_bytecode = saved_path, saved_flag
    workdir = tmp_path_factory.mktemp("bench")
    ops = {op.key: op for name in workloads.WORKLOADS
           for op in workloads.build(sktsim, name, 0, BENCH.parent, workdir).ops}
    reference = json.loads((BENCH / "reference.json").read_text())
    return workloads, fingerprint, spans, ops, reference, workdir


@pytest.mark.parametrize("key", OPS)
def test_benchmark_op_matches_the_reference(bench, key):
    workloads, fingerprint, _, ops, reference, workdir = bench
    op, ref = ops[key], reference["ops"][key]
    # simulate and adjoint of one config share a directory, as in a
    # benchmark pass, so the adjoint reads the stored snapshots.
    out = workdir / "pass" / (op.group or op.name)
    _, result, exc = workloads.run_op(op, out)
    outcome = workloads.collect_op(op, result, exc, out)
    assert outcome.exit == ref["exit"] == 0, outcome.error
    assert outcome.problems == []
    assert fingerprint.compare(outcome.outputs, ref["outputs"], ref) == []


@pytest.mark.parametrize("key", TRACED_OPS)
def test_benchmark_op_matches_the_reference_under_the_layer_tracer(bench, key):
    workloads, fingerprint, spans, ops, reference, workdir = bench
    op, ref = ops[key], reference["ops"][key]
    out = workdir / "traced" / (op.group or op.name)
    tracer = spans.Tracer()
    tracer.install(sktsim)
    try:
        _, result, exc = workloads.run_op(op, out)
        outcome = workloads.collect_op(op, result, exc, out)
        tracer.take_metrics(outcome.gates)
    finally:
        tracer.uninstall()
    assert outcome.exit == ref["exit"] == 0, outcome.error
    assert outcome.problems == []
    assert fingerprint.compare(outcome.outputs, ref["outputs"], ref) == []
