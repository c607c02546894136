"""Correct measured seconds for the speed of a shared host.

On a host shared with other tenants the same code runs up to twice as slow
for seconds at a time, and a run's mean speed moves by up to a third from
one run to the next.  That swing hits all code alike: the time of a fixed
reference kernel, run between the ops, tracks the ops' times with a
correlation of 0.98 over windows of 20 ops, while the ratio of op to kernel
time stays within 3%.

So a run times the reference kernel every ``PROBE_EVERY_S`` seconds and
scales each measured span by ``REFERENCE_S`` over the kernel's local time,
the median of the ``WINDOW`` probes nearest the span's start.  The result is
in seconds at a fixed host speed: a change to ``tdmilp`` moves it as it moves
wall time, a change of the neighbours' load does not.  The kernel uses only
the standard library, so no change to ``tdmilp`` can change it.
"""

from __future__ import annotations

import statistics
from bisect import bisect
from fractions import Fraction
from time import perf_counter

# The kernel's time at the host's fast speed where the benchmark was set up
# (Intel Xeon, 2 vCPUs, Python 3.11.7); it fixes the scale of every result.
REFERENCE_S = 0.0015
PROBE_EVERY_S = 0.05
WINDOW = 5


def reference_kernel() -> float:
    """Seconds for a fixed piece of exact rational arithmetic, about 1.5 ms."""
    t0 = perf_counter()
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(1, i)
    return perf_counter() - t0


class HostSpeed:
    """Reference-kernel times through a run, in the order they were taken."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def probe(self, times: int = 1) -> None:
        for _ in range(times):
            self.at.append(perf_counter())
            self.took.append(reference_kernel())

    def due(self) -> bool:
        return not self.at or perf_counter() - self.at[-1] >= PROBE_EVERY_S

    def corrected(self, start: float, seconds: float) -> float:
        """seconds, measured from start, at the fixed host speed."""
        i = max(0, min(bisect(self.at, start) - WINDOW // 2, len(self.at) - WINDOW))
        return seconds * REFERENCE_S / statistics.median(self.took[i:i + WINDOW])
