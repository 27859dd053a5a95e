"""Machine-speed samples, to take contention out of the timings.

On a shared machine the speed of a core changes by up to ~1.7x from one
second to the next, as other tenants come and go; a long command rarely runs
at one speed throughout.  While commands run, a SIGALRM handler times a
fixed pure-Python kernel every INTERVAL_S.  A command's time is then
reported in reference seconds: its own wall time (handler time removed)
scaled by REFERENCE_S over the median kernel time measured during it.  On a
machine whose speed does not change, that is the wall time times a constant.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.02
KERNEL_ITERATIONS = 4000
REFERENCE_S = 4e-4          # the kernel's time on an uncontended core of the reference machine
NEAREST = 9                 # kernel samples a short command is judged by


def kernel() -> int:
    total = 0
    for i in range(KERNEL_ITERATIONS):
        total += i * i % 7
    return total


def timed_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Speedometer:
    """Context manager that samples the kernel time while it is active."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def __enter__(self) -> "Speedometer":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def reference_seconds(self, start: float, end: float) -> tuple[float, float]:
        """(own wall seconds, reference seconds) of the interval [start, end]:
        the handler time inside it is removed, and the rest is scaled by the
        median kernel time of the samples inside it, or of the NEAREST
        samples around it when fewer fell inside."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        own = end - start - sum(self.durations[lo:hi])
        while hi - lo < NEAREST and (lo > 0 or hi < len(self.starts)):
            before = start - self.starts[lo - 1] if lo > 0 else float("inf")
            after = self.starts[hi] - end if hi < len(self.starts) else float("inf")
            if before <= after:
                lo -= 1
            else:
                hi += 1
        if hi == lo:
            raise RuntimeError("no speed samples around the interval")
        return own, own * REFERENCE_S / statistics.median(self.durations[lo:hi])
