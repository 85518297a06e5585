"""A fixed piece of work outside specflow that gauges the host's speed.

The benchmark runs on small VMs of shared hosts.  On a 2-vCPU VM the same
fixed loop ran up to 1.7x slower for minutes at a time as other tenants
loaded the host: the slowdown was in instructions per second (process CPU
time grew with wall time), and it hit Python and numpy code alike.  Timing
this probe on each side of every timed call tells how fast the host ran the
process at that moment, and ``run.py`` divides each time by that speed.

The probe mixes the kinds of work the workloads do: an interpreter loop,
numpy calls on 3x3 complex matrices (call overhead), a 48x48 symmetric
eigensolve (LAPACK) and vector ufuncs.  It calls nothing in specflow, so a
change to the package cannot change the probe's time, except through state
the whole process shares (threads it starts, memory it leaves behind).
"""

import statistics
from time import perf_counter

import numpy as np

# Probes timed on each side of a call; their median gauges the host's speed
PROBES = 3
# The probe's time on an unloaded 2-vCPU Intel Xeon VM (Python 3.11, numpy
# 2.4 on one OpenBLAS thread).  A time divided by the slowdown (median probe
# time / REFERENCE_S) reads as seconds on that VM unloaded; on any host two
# commits compare the same way, because the constant cancels.
REFERENCE_S = 0.7e-3


class Probe:
    """The probe's fixed inputs, made once, and its timings."""

    def __init__(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(48, 48))
        self.symmetric = A + A.T
        self.small = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                      for _ in range(20)]
        self.x = np.linspace(0.0, 1.0, 2000)

    def once(self):
        t0 = perf_counter()
        total = 0.0
        for i in range(3000):
            total += i * 0.5
        for M in self.small:
            np.linalg.eig(M)
        np.linalg.eigh(self.symmetric)
        np.sum(np.exp(1j * self.x) * np.cos(self.x))
        return perf_counter() - t0

    def gauge(self):
        """Times of ``PROBES`` back-to-back probes."""
        return [self.once() for _ in range(PROBES)]

    @staticmethod
    def slowdown(before, after):
        """How many times slower than the reference host the process ran,
        from the gauges taken on either side of a call."""
        return statistics.median(before + after) / REFERENCE_S
