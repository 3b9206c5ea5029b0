"""Host speed references, so that time metrics compare across runs.

On a shared host the same Python code runs 10-40 % slower or faster from
one second or minute to the next, and all Python code on the host slows
down together.  A run therefore times fixed references that do not touch
the library, close in time to what it measures, and scales each measured
time by `nominal / median(nearby reference samples)`: the time it would have
taken on a host on which the reference takes `nominal`.

* `Meter.loop()`: a pure-Python loop, sampled every `EVERY` seconds of item
  time and around each set-up, for item, pass and set-up times;
* `Meter.start()`: a bare interpreter start (`python -c pass`), sampled
  before each cold CLI process, for cold CLI times.

A change to the library moves the scaled times as much as the raw ones,
because the references stay the same.  The raw figures are in each run's
record.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

# Medians of the references on a 2-core Intel Xeon VM with Python 3.11.7;
# they set the scale of the reported times, not their ratios.
LOOP_S = 0.002
START_S = 0.08
EVERY = 0.05
WARM_UP = 10


def _loop() -> None:
    """Interpreter work of the kinds the library does: int bit operations,
    tuple-keyed dicts and sets, and a little Fraction work."""
    table: dict = {}
    seen = set()
    acc = 0
    for i in range(2000):
        m = (i * 2654435761) & 0xFFFF
        acc += (m & -m).bit_length() + (m >> 3 & m).bit_count()
        key = (i & 63, m & 7)
        table[key] = table.get(key, 0) + 1
        seen.add(m & 1023)
    q = Fraction(0)
    for j in range(1, 30):
        q += Fraction(j, 1 << (j % 11))


def _start() -> None:
    subprocess.run([sys.executable, "-c", "pass"], capture_output=True, check=True, timeout=60)


class Meter:
    """Samples of one reference taken through a run, with their times."""

    def __init__(self, probe, nominal: float, window: float, nearest: int, warm: bool) -> None:
        self.probe, self.nominal, self.warm = probe, nominal, warm
        self.window, self.nearest = window, nearest
        self.stamps: list[float] = []
        self.samples: list[float] = []
        self.last = perf_counter()

    @classmethod
    def loop(cls) -> "Meter":
        for _ in range(WARM_UP):
            _loop()
        return cls(_loop, LOOP_S, 0.5, 9, warm=True)

    @classmethod
    def start(cls) -> "Meter":
        return cls(_start, START_S, 1.0, 3, warm=False)

    def sample(self, count: int = 1) -> None:
        """Time the reference `count` times, with the garbage collector off so
        that no collection of the workload's own objects is charged to it.  A
        warm meter runs the reference once untimed before each sample, so its
        code and data are in the caches whatever the workload evicted."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                if self.warm:
                    self.probe()
                t0 = perf_counter()
                self.probe()
                t1 = perf_counter()
                self.stamps.append(t0)
                self.samples.append(t1 - t0)
        finally:
            if enabled:
                gc.enable()
        self.last = perf_counter()

    def tick(self) -> None:
        """Take a sample when `EVERY` seconds have passed since the last."""
        if perf_counter() - self.last >= EVERY:
            self.sample()

    def factor(self, t0: float, t1: float) -> float:
        """Multiply the time of an interval [t0, t1] by this to scale it to
        the nominal host: the nominal time over the median of the samples
        taken within `window` seconds of the interval, or of the `nearest`
        samples nearest to it when there are fewer."""
        lo = bisect_left(self.stamps, t0 - self.window)
        hi = bisect_right(self.stamps, t1 + self.window)
        if hi - lo < self.nearest:
            mid = bisect_left(self.stamps, (t0 + t1) / 2)
            lo = max(0, min(mid - self.nearest // 2, len(self.stamps) - self.nearest))
            hi = lo + self.nearest
        return self.nominal / statistics.median(self.samples[lo:hi])

    def overall(self) -> float:
        """The factor of the whole run, for the record."""
        return self.nominal / statistics.median(self.samples)
