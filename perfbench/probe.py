"""Machine-speed probe that runs alongside the measured work.

The benchmark was tuned on a 2-core VM whose cores other tenants share.
There, identical runs vary by up to 2x in phases lasting from a fraction
of a second to minutes. No window short enough for the benchmark's run
budget averages those phases out. So every end-to-end time is rescaled by the
speed the machine showed *during* that measurement.

While a measurement runs, a SIGALRM timer fires every ``PERIOD_S``. Each
tick times a fixed pure-Python loop. The loop touches no arrays, so its
time does not depend on what the program leaves in the caches; it depends
only on how fast the core runs Python. A measurement's normalized time is

    wall_s * NOMINAL_S / mean(loop time during the measurement)

which is the wall time the work would have taken on a machine where the
loop takes ``NOMINAL_S``. The raw wall times stay in the detail output.
The probe costs about 0.6% of each run, the same on every commit.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

PERIOD_S = 0.02
NOMINAL_S = 100e-6
LOOP = 1500


class SpeedProbe:
    def __init__(self):
        self.samples: list[float] = []

    def tick(self, *_):
        start = time.perf_counter()
        acc = 0.0
        for i in range(LOOP):
            acc += i * 0.5
        self.samples.append(time.perf_counter() - start)

    @contextmanager
    def measuring(self):
        """Sample the machine's speed for the duration of the block."""
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
            self.tick()  # at least one sample, even for work shorter than a period

    def factor(self) -> float:
        """Multiply a wall time measured in the block by this to normalize it."""
        return NOMINAL_S / statistics.fmean(self.samples)
