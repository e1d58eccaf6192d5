"""Host-speed probe: the reference that the benchmark's times are scaled by.

The shared host runs the same code up to 1.6 times faster or slower, in
spells from seconds to minutes, and CPU time moves with it. So a fixed
probe that uses no homlie3 code (exact-fraction products and a dict of
tuple keys) runs before every timed op, and from a timer signal every
PROBE_EVERY_S, so that builds lasting seconds are probed inside. Each
latency, less the probes inside it, is scaled by the median probe time
within PROBE_SPAN_S of it, to the host speed at which one probe takes
PROBE_REFERENCE_S. A wider span, or one factor per run, left two to
three times the spread between runs on the reference host. A process
started for set-up may run on the other core, so it runs probes itself.
"""
from __future__ import annotations

import bisect
import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

PROBE_REFERENCE_S = 0.001
PROBE_EVERY_S = 0.1
PROBE_SPAN_S = 0.05
PROBE_M = tuple(tuple(Fraction((3 * i + 5 * j) % 7 - 3, (i + 2 * j) % 4 + 1)
                      for j in range(4)) for i in range(4))
PROBE_KEYS = tuple((i % 17, i % 13, i % 11, i % 7) for i in range(600))


def probe() -> float:
    """Seconds one fixed pure-Python task takes, with the collector off so
    that the program's heap does not change its cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        zero = Fraction(0)
        [[sum((PROBE_M[i][k] * PROBE_M[k][j] for k in range(4)), zero) / 7
          for j in range(4)] for i in range(4)]
        d: dict = {}
        for k in PROBE_KEYS:
            d[k] = d.get(k, 0) + k[0] * k[1] - k[2]
        sorted(d.items())
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostProbe:
    """Host probes taken on request and, while entered, from a SIGALRM
    timer."""

    def __init__(self):
        self.times: list = []    # when each probe started
        self.probes: list = []   # how long each took
        self.spent = 0.0         # seconds spent probing

    def sample(self, *_) -> None:
        t0 = perf_counter()
        self.times.append(t0)
        self.probes.append(probe())
        self.spent += perf_counter() - t0

    def __enter__(self):
        self.sample()
        self._old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """PROBE_REFERENCE_S over the median probe time within PROBE_SPAN_S
        of [t0, t1]."""
        near = self.probes[bisect.bisect_left(self.times, t0 - PROBE_SPAN_S):
                           bisect.bisect_right(self.times, t1 + PROBE_SPAN_S)]
        return PROBE_REFERENCE_S / statistics.median(near or self.probes)
