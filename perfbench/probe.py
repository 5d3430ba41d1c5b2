"""Machine-speed probe that normalizes timings on a shared host.

On the 2-core sandbox the benchmark was built on, other tenants slow this
process by up to 2x for minutes at a time (CPU time grows with wall time, so
it is contention, not descheduling).  No statistic over one 10-second run
removes a slowdown that lasts the whole run.  So every ``INTERVAL_S`` a
timer signal runs a fixed kernel of small-matrix numpy work and Python
loops, the mix the package executes, and records how long it took.  Round
times divided by probe times stayed within a few percent while both swung
by 2x, so the benchmark multiplies each timed interval by ``REFERENCE_S /
mean probe`` around it: seconds at the machine speed where the probe takes
``REFERENCE_S``.  Time spent inside the probe is excluded from every
measured interval through ``now``.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from array import array
from time import perf_counter

import numpy as np

INTERVAL_S = 0.1
MARGIN_S = 1.0
MIN_PROBES = 5
# Median probe duration on an undisturbed core of the machine the benchmark
# was written on (Intel Xeon, 2 vCPUs); it only scales the reported timings.
REFERENCE_S = 0.0008

_MATRIX = np.linspace(-0.3, 0.3, 36).reshape(6, 6)


def kernel() -> float:
    """Fixed work: a Taylor-series loop on a 6 x 6 matrix and an integer loop."""
    total = np.eye(6)
    term = np.eye(6)
    for k in range(1, 80):
        term = term @ _MATRIX / k
        total = total + term
        np.linalg.norm(term, 1)
    acc = 0
    for i in range(2000):
        acc += i * i
    return float(total[0, 0]) + acc


class SpeedProbe:
    """Context manager that runs ``kernel`` on a timer signal."""

    def __init__(self):
        self.durations = array("d")
        self.stamps = array("d")
        self.spent = 0.0
        self._previous = None

    def now(self) -> float:
        """perf_counter with the time spent in probes taken out."""
        return perf_counter() - self.spent

    def _handler(self, signum, frame):
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.stamps.append(t0 - self.spent)
        self.durations.append(t1 - t0)
        self.spent += perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean probe within MARGIN_S of the interval
        [start, end] of ``now`` times: multiply a timing taken over that
        interval by it.  Slow phases last seconds, so nearby probes see the
        same machine speed as a short interval; over a long one, probes are
        evenly spaced, so their mean slowdown is the interval's."""
        lo = bisect.bisect_left(self.stamps, start - MARGIN_S)
        hi = bisect.bisect_right(self.stamps, end + MARGIN_S)
        if hi - lo < MIN_PROBES:
            lo, hi = max(0, lo - MIN_PROBES), min(len(self.stamps), hi + MIN_PROBES)
        if hi <= lo:
            return 1.0
        return REFERENCE_S / statistics.fmean(self.durations[lo:hi])
