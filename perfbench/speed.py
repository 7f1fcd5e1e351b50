"""Machine-speed probe: normalizes wall times measured on a shared, noisy machine.

On a shared host the same Python code runs up to 1.7 times slower for
seconds at a time (other tenants on the physical core), so raw wall times of
identical runs spread by 20-30%. Every ``INTERVAL_S`` a SIGALRM handler runs
a fixed calibration loop that uses no bufrelay code and times it. A wall
interval is then converted to "reference seconds": its length without the
probe time, times ``REFERENCE_PROBE_S`` over the mean probe duration measured
around it. Raw wall times are kept beside the normalized ones.

The loop is a reflected random walk over numpy arrays read one element at a
time, the shape of bufrelay's pure-Python slot kernels. Of the loops tried
(tight float math, a mix of calls/dicts/sorting/json, a scipy ``quad`` call,
numpy reductions) it tracked the slowdowns best: the quartile spread of pass
times fell from about 0.3 of the median to 0.04 on both an analytic and a
simulation workload.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
# median probe duration on the machine the benchmark was defined on
# (Intel Xeon, KVM guest, 2 vCPUs, Python 3.11) while a workload runs
REFERENCE_PROBE_S = 0.4e-3
# probes this far either side of an interval also describe its speed
WINDOW_S = 0.25

_GS = np.random.default_rng(1).exponential(size=800)
_GR = np.random.default_rng(2).exponential(size=800)


def calibration_loop() -> float:
    """Fixed work; never raises."""
    b = 0.0
    for n in range(800):
        if _GR[n] <= 0.7 * _GS[n]:
            b += math.log1p(_GS[n])
        else:
            c = math.log1p(_GR[n])
            b = 0.0 if c >= b else b - c
    return b


def timed_probe() -> float:
    t0 = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - t0


class SpeedProbe:
    """Runs ``calibration_loop`` from SIGALRM every ``INTERVAL_S`` between ``start`` and ``stop``."""

    def __init__(self):
        self.ends: list[float] = []
        self.durations: list[float] = []
        self.total = 0.0  # probe time so far, for spans that must leave it out
        self._previous = None

    def _handler(self, signum, frame) -> None:
        d = timed_probe()
        self.ends.append(time.perf_counter())
        self.durations.append(d)
        self.total += d

    def start(self) -> None:
        self._handler(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    def net_seconds(self, start: float, end: float) -> float:
        """Length of [start, end] without probe time."""
        lo = bisect.bisect_left(self.ends, start)
        hi = bisect.bisect_right(self.ends, end)
        return (end - start) - math.fsum(self.durations[lo:hi])

    def reference_seconds(self, start: float, end: float) -> float:
        """Length of [start, end] without probe time, at the reference machine speed."""
        net = self.net_seconds(start, end)
        lo = bisect.bisect_left(self.ends, start)
        wlo = bisect.bisect_left(self.ends, start - WINDOW_S)
        whi = bisect.bisect_right(self.ends, end + WINDOW_S)
        around = self.durations[wlo:whi]
        if not around:  # no probe near: use the closest one
            i = min(lo, len(self.durations) - 1)
            around = self.durations[i : i + 1]
        return net * REFERENCE_PROBE_S / statistics.fmean(around)
