"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host, the same op runs at full speed or up to 1.7x slower,
depending on what other tenants do at that instant, and the share of slow
time drifts over minutes: raw times of runs made a few minutes apart differ
by up to 1.5x, more than any bound a benchmark could keep.  The benchmark
therefore runs this kernel after every op, and 30 times after each set-up
measurement, and scales every reported time by

    REFERENCE_S / (mean kernel time measured alongside it),

which gives the time the op would take on a host where the kernel takes
REFERENCE_S.  The kernel is exact rational arithmetic on growing integers,
like the program's own, and calls no ``meixnerops`` code, so a change to the
program moves the scaled times and a change in host load does not.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# About the kernel's mean time on the baseline host (Intel Xeon, 2.1 GHz)
# when other tenants are quiet.  It sets only the scale of the reported
# times; changing it would change every reported time by the same factor.
REFERENCE_S = 1.5e-3
TERMS = 500
# An op is scaled by the kernel calls made after it and after the WINDOW ops
# on each side: one call is too short to average the fast and slow stretches,
# and the mean over a whole run misses changes of speed within the run.
WINDOW = 5


def kernel() -> Fraction:
    """The partial sum of the harmonic series up to 1/(TERMS - 1)."""
    total = Fraction(0)
    for k in range(1, TERMS):
        total += Fraction(1, k)
    return total


def time_kernel() -> float:
    """Seconds for one kernel call.

    The garbage collector is off during the call, so that the program's
    heap, which a collection would traverse, does not enter the kernel's time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def mean_kernel_s(calls: int) -> float:
    return sum(time_kernel() for _ in range(calls)) / calls


def local_scales(kernel_s: list[float]) -> list[float]:
    """For each op, REFERENCE_S over the mean of the kernel times around it.

    ``kernel_s[i]`` is the kernel call made right after op ``i``.
    """
    prefix = [0.0]
    for seconds in kernel_s:
        prefix.append(prefix[-1] + seconds)
    scales = []
    for i in range(len(kernel_s)):
        lo, hi = max(0, i - WINDOW), min(len(kernel_s), i + WINDOW + 1)
        scales.append(REFERENCE_S * (hi - lo) / (prefix[hi] - prefix[lo]))
    return scales
