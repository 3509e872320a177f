"""The host-speed reference: a fixed kernel timed next to the work.

The hosts this benchmark runs on are small shared VMs whose speed
wanders by tens of percent for seconds to minutes at a time (the same
code, the same inputs), which is more than the regressions the bounds in
``BENCHMARK.json`` are meant to catch.  So every host time is taken next
to a reading of :func:`kernel` — pure Python that no change to the
repository can touch — and reported as it would have read had the
kernel taken :data:`NOMINAL_S`: ``time × NOMINAL_S ÷ kernel time``.  A
change to the program moves only the numerator; a slow spell of the host
moves both and cancels.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, List

#: what one :func:`kernel` call takes on the development host when it is
#: quiet; it only scales normalised times back to familiar units
NOMINAL_S = 0.006


def kernel() -> int:
    """Dict stores and loads and small-int arithmetic, ≈6 ms."""
    table = {}
    total = 0
    for i in range(50_000):
        table[i & 1023] = i
        total += table.get((i * 7) & 1023, 0)
    return total


class HostClock:
    """Reads the host's speed and rescales times taken between reads."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 work: Callable[[], object] = kernel):
        self.clock = clock
        self.work = work
        self.readings: List[float] = []

    def read(self) -> float:
        """Seconds the kernel takes right now (the quicker of two runs:
        a timer tick or a page fault only ever adds)."""
        clock, work = self.clock, self.work
        best = float("inf")
        for _ in range(2):
            start = clock()
            work()
            best = min(best, clock() - start)
        self.readings.append(best)
        return best

    def nominal(self, seconds: float) -> float:
        """``seconds`` measured since the last reading, as they would
        have read at nominal speed; takes the closing reading."""
        before = self.readings[-1]
        return seconds * NOMINAL_S * 2.0 / (before + self.read())

    def slowdown(self) -> float:
        """Median reading ÷ nominal: how far from nominal the host ran."""
        return statistics.median(self.readings) / NOMINAL_S
