"""Transactional fixed-size array (the RSTM *Array* microbenchmark, §6.2).

A flat array of words in multiversioned memory.  Disjoint cells never
conflict; a long transaction iterating the whole array conflicts under 2PL
with *every* concurrent update — the pathology the Array microbenchmark
isolates and SI-TM eliminates (3000x abort reduction, Figure 7).
"""

from __future__ import annotations

from repro.sim.machine import Machine
from repro.structures.base import TxGen, TxStructure, read, write
from repro.tm.ops import Read, Write


class TxArray(TxStructure):
    """Fixed-size transactional array of words."""

    def __init__(self, machine: Machine, size: int):
        super().__init__(machine)
        if size <= 0:
            raise ValueError("array size must be positive")
        self.size = size
        self.base = self._alloc(size)

    def _addr(self, index: int) -> int:
        if not 0 <= index < self.size:
            raise IndexError(f"index {index} out of range [0,{self.size})")
        return self.base + index

    # ------------------------------------------------------------------
    # transactional operations

    def get(self, index: int) -> TxGen:
        """Transactionally load one cell."""
        return read(self._addr(index), site="array.get")

    def set(self, index: int, value: int) -> TxGen:
        """Transactionally store one cell."""
        return write(self._addr(index), value, site="array.set")

    def add(self, index: int, delta: int) -> TxGen:
        """Read-modify-write one cell."""
        value = yield Read(self._addr(index), site="array.add:read")
        yield Write(self._addr(index), value + delta,
                    site="array.add:write")
        return value + delta

    def sum_all(self) -> TxGen:
        """Long-running read transaction: iterate every cell."""
        total = 0
        for index in range(self.size):
            total += (yield Read(self._addr(index), site="array.sum"))
        return total

    def sum_range(self, start: int, stop: int) -> TxGen:
        """Sum a sub-range of cells."""
        total = 0
        for index in range(start, stop):
            total += (yield Read(self._addr(index), site="array.sum_range"))
        return total

    # ------------------------------------------------------------------
    # non-transactional setup/inspection

    def populate(self, values) -> None:
        """Initialise cells ``0 .. len(values) - 1`` outside any
        transaction; more values than cells store nothing and raise
        ``IndexError``."""
        values = list(values)
        if len(values) > self.size:
            raise IndexError(f"{len(values)} values for an array of "
                             f"{self.size} cells")
        self.machine.plain_fill(self.base, values)

    def snapshot(self) -> list:
        """Plain (newest-version) contents, for tests."""
        return [self._plain(self._addr(i)) for i in range(self.size)]
