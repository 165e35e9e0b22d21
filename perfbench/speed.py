"""Host-speed probe for the untraced measurement.

On a small shared host each vCPU slows down on its own, by up to 1.8x,
for anything from a fraction of a second to minutes, and identical runs
then differ by more than any bound a benchmark could fix. While the
workload runs, a SIGALRM handler interrupts it every ``INTERVAL_S`` and
runs a fixed calibration loop for ``SLICE_S`` on the same CPU, recording
the loop's rate. A wall-time interval is then converted to reference
seconds: its wall time minus the probe's own time, scaled by the mean
calibration rate inside the interval over ``REFERENCE_RATE``. The
calibration loop uses no histarch code, so a change to the package moves
the reference seconds in proportion to the wall time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
SLICE_S = 0.002
# calibration iterations per second that define one reference second; the
# loop ran at 54 000-124 000/s on a 2-vCPU x86-64 host with Python 3.11 and
# numpy 2.4, as that host's speed changed
REFERENCE_RATE = 75_000.0


class SpeedProbe:
    """Context manager that samples the calibration rate while it is open."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # (start, rate, seconds)
        self._x = np.linspace(-3.0, 3.0, 10)
        self._previous = None

    def _sample(self, signum, frame):
        x = self._x
        n = 0
        start = time.perf_counter()
        while (elapsed := time.perf_counter() - start) < SLICE_S:
            y = x * 0.999 + 0.001
            float(np.dot(y, y)) + float(np.sum(np.cos(y)))
            n += 1
        self.samples.append((start, n / elapsed, elapsed))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mean_rate(self) -> float:
        return statistics.fmean(s[1] for s in self.samples)

    def reference_seconds(self, start: float, end: float) -> float:
        """Wall interval [start, end) in reference seconds."""
        inside = [s for s in self.samples if start <= s[0] < end]
        busy = end - start - sum(s[2] for s in inside)
        rate = statistics.fmean(s[1] for s in inside) if inside else self.mean_rate()
        return busy * rate / REFERENCE_RATE
