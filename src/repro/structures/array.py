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

    def _out_of_range(self, index: int) -> IndexError:
        return IndexError(f"index {index} out of range [0,{self.size})")

    # ------------------------------------------------------------------
    # transactional operations

    def addr(self, index: int) -> int:
        """Address of cell ``index``; an index out of range raises
        ``IndexError`` here, when the access is built.  A transaction
        body yields ``Read``/``Write`` on it directly, so an access
        costs the body no generator frame of its own."""
        if not 0 <= index < self.size:
            raise self._out_of_range(index)
        return self.base + index

    def get(self, index: int) -> TxGen:
        """Transactionally load one cell."""
        return read(self.addr(index), "array.get")

    def set(self, index: int, value: int) -> TxGen:
        """Transactionally store one cell."""
        return write(self.addr(index), value, "array.set")

    def add(self, index: int, delta: int) -> TxGen:
        """Read-modify-write one cell."""
        addr = self.addr(index)
        value = yield Read(addr, "array.add:read")
        yield Write(addr, value + delta, "array.add:write")
        return value + delta

    def sum_all(self) -> TxGen:
        """Long-running read transaction: iterate every cell."""
        total = 0
        for addr in range(self.base, self.base + self.size):
            total += (yield Read(addr, "array.sum"))
        return total

    def sum_range(self, start: int, stop: int) -> TxGen:
        """Sum cells ``start .. stop - 1``.  The range is checked once,
        before the first read: a scan that runs off either end raises
        ``IndexError`` without reading any cell."""
        if start < stop and (start < 0 or stop > self.size):
            raise self._out_of_range(start if start < 0 else stop - 1)
        total = 0
        for addr in range(self.base + start, self.base + stop):
            total += (yield Read(addr, "array.sum_range"))
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
        return [self._plain(self.base + i) for i in range(self.size)]
