"""Host-speed probe: a fixed job that runs no sktsim code.

The benchmark's host is a share of a machine whose speed drifts with its
neighbours' load: the same operation can take twice as long a few minutes
later, wall time and CPU time alike.  Timing this probe next to every
timed call lets the benchmark express a time in seconds of a host at a
fixed speed, the one on which the probe takes ``REFERENCE_S``:

    normalised = measured * REFERENCE_S / probe time nearby

The probe mixes the three kinds of work sktsim's time goes to: small
numpy array operations, sparse-matrix assembly and products, and plain
Python bytecode.  It calls nothing in ``src/``, so a change to the program
moves the normalised times exactly as it moves the measured ones.

Each core of the share drifts on its own (one can run at two thirds of the
other's speed for seconds to minutes), and an operation's threads move
between cores and, in the program's fan-out, use all of them.  So a probe
runs the job pinned to each core the process may use, one after another,
and reports the mean; the calling thread's affinity is restored after.
"""

from __future__ import annotations

import os
from time import perf_counter

import numpy as np
import scipy.sparse as sp

REFERENCE_S = 0.02  # the probe's time on the reference host: a 2-core x86_64 share, fast state
_N = 2048


class HostSpeed:
    """The probe's fixed inputs, built once; ``probe()`` times one run."""

    def __init__(self) -> None:
        ones = np.ones(_N)
        self._lap = sp.diags([ones[1:], -2.0 * ones, ones[1:]], [-1, 0, 1], format="csr")
        self._eye = sp.identity(_N, format="csr")
        self._small = np.linspace(0.0, 1.0, 64)
        self._x = np.linspace(0.0, 1.0, _N)
        self.probe()  # first-call costs stay out of the timings

    def _job(self) -> float:
        acc = 0.0
        a = self._small
        for _ in range(2000):
            acc += float(np.max(np.abs(a * 1.0001 + 0.5)))
        for _ in range(40):
            m = (self._eye - 1e-3 * self._lap).tocsr()
            acc += float((m @ self._x)[0])
        for i in range(30000):
            acc += i * 0.5
        return acc

    def _timed(self) -> float:
        """Seconds of the fixed job: the faster of two runs, to drop one-off stalls."""
        best = float("inf")
        for _ in range(2):
            t0 = perf_counter()
            self._job()
            best = min(best, perf_counter() - t0)
        return best

    def probe(self) -> float:
        """Mean over the allowed cores of the job's time pinned to that core."""
        cores = os.sched_getaffinity(0)
        times = []
        try:
            for core in sorted(cores):
                os.sched_setaffinity(0, {core})
                times.append(self._timed())
        finally:
            os.sched_setaffinity(0, cores)
        return sum(times) / len(times)


def normalise(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two probes, in seconds of the reference host."""
    return seconds * REFERENCE_S / (0.5 * (before + after))
