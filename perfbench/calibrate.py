"""Machine-speed calibration interleaved with the measured work.

The benchmark host is shared: its single-thread speed swings by up to 2x for
tens of seconds at a time, which no median over a 20 s run can hide.  Each
pass therefore runs a fixed pure-Python kernel, which touches no library
code, between its units of work: before and after every shard and every
chunk of queries, and at least every 10 ms.  A unit's raw time is scaled by
``REFERENCE_S / (mean of the kernel times on either side of it)``: the
reported times are seconds on a core that runs the kernel in
``REFERENCE_S``, an uncontended core of the 2-core Xeon VM the benchmark was
written on.  The kernel time is excluded from every reported time.

A call latency that drops stalls (see workloads.ONCE) is scaled by the
kernel's speed between stalls instead: the kernel runs in PARTS parts, and
PARTS times the fastest part stands for it.  Scaling such a latency by the
kernel time with its stalls would over-correct it whenever the host is busy.
"""

from __future__ import annotations

import time
from typing import NamedTuple

REFERENCE_S = 360e-6
SEGMENT_S = 0.010  # longest stretch of queries between two kernel samples
PARTS = 4


def _kernel(n: int = 375) -> int:
    acc = 0
    seen = {}
    t = (1, 2, 3)
    for i in range(n):
        t = (t[1], t[2], (t[0] + i) % 97)
        seen[t] = seen.get(t, 0) + 1
        acc += len(seen) & 7
    return acc


class Sample(NamedTuple):
    total: float  # the kernel's time, stalls included
    best: float  # PARTS times its fastest part: the speed between stalls


class Speed:
    """Kernel samples of one pass."""

    def __init__(self):
        self.samples = []

    def sample(self) -> Sample:
        parts = []
        for _ in range(PARTS):
            start = time.perf_counter()
            _kernel()
            parts.append(time.perf_counter() - start)
        out = Sample(sum(parts), PARTS * min(parts))
        self.samples.append(out)
        return out

    def mean_factor(self) -> float:
        """Scale for raw times that no single pair of samples brackets."""
        return REFERENCE_S * len(self.samples) / sum(s.total for s in self.samples)


def factor(before: Sample, after: Sample) -> float:
    """Scale for a raw time measured between two kernel samples."""
    return 2 * REFERENCE_S / (before.total + after.total)


def latency_factor(before: Sample, after: Sample) -> float:
    """Scale for a latency that drops stalls (the faster of two runs)."""
    return 2 * REFERENCE_S / (before.best + after.best)
