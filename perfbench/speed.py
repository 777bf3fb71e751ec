"""Machine-speed calibration for the benchmark's times.

Where CPUs are shared with other tenants, the same computation can run up
to ~1.5x slower for seconds at a time; on a 2-core shared VM, 12-second
medians of raw wall time moved by ~25% between runs.  So the benchmark
samples the machine's speed with a fixed calibration kernel right before and
after every timed call, and every INTERVAL_S during it (from a SIGALRM
handler, whose own time is taken out of the call's).  A call's time is then
scaled by REFERENCE_S over the mean kernel time: the result is the call's
duration on a machine that runs the kernel in REFERENCE_S.  The kernel is
benchmark code that no change to gwldp touches, so a faster gwldp still
reads faster.  Raw times are printed alongside.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

REFERENCE_S = 1.4e-3      # kernel time that scaled times are expressed against
INTERVAL_S = 0.05         # speed samples during a call this far apart


def sample() -> float:
    """Seconds for one run of the kernel: interpreter float math and small numpy calls."""
    start = time.perf_counter()
    x = 0.0
    for i in range(6000):
        x += math.exp(-i * 1e-5)
    a = np.arange(32.0)
    for _ in range(120):
        a = np.sqrt(a + x)
    return time.perf_counter() - start


class Meter:
    """Times calls at reference speed; consecutive calls share their bracketing sample."""

    def __init__(self):
        self.last_times = (0.0, 0.0)
        self._last = sample()
        self._samples: list[float] = []
        self._handler_s = 0.0

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self._samples.append(sample())
        self._handler_s += time.perf_counter() - start

    def time(self, call):
        """Return call()'s result, or raise its error; either way set
        ``last_times`` to the call's (scaled, raw) seconds."""
        self._samples = [self._last]
        self._handler_s = 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = time.perf_counter()
        try:
            return call()
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self._last = sample()
            self._samples.append(self._last)
            raw = elapsed - self._handler_s
            self.last_times = (raw * REFERENCE_S / statistics.fmean(self._samples),
                               raw)
