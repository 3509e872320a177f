"""Transactional bounded FIFO queue and shared counter.

The queue backs intruder's packet-reassembly pipeline and labyrinth's
work-list; both head and tail words are contention hot spots, which is why
these kernels keep some aborts even under SI (dequeue/enqueue are
read-modify-write on the cursor words — true write-write conflicts).
"""

from __future__ import annotations

from repro.common.errors import ReproError
from repro.sim.machine import Machine
from repro.structures.base import TxGen, TxStructure, read
from repro.tm.ops import Read, Write


class QueueFull(ReproError):
    """Enqueue on a full bounded queue."""


class TxQueue(TxStructure):
    """Bounded circular FIFO of words.

    Layout: ``[head, tail, slot0 .. slot(capacity-1)]``; head/tail occupy
    separate lines to avoid false sharing between producers and consumers.
    """

    def __init__(self, machine: Machine, capacity: int = 256):
        super().__init__(machine)
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        per_line = machine.address_map.words_per_line
        self.capacity = capacity
        self.head_addr = self._alloc(1)
        self.tail_addr = self._alloc(1)
        self.slots = self._alloc(((capacity + per_line - 1) // per_line)
                                 * per_line)
        self._plain_store(self.head_addr, 0)
        self._plain_store(self.tail_addr, 0)

    def enqueue(self, value: int) -> TxGen:
        """Append ``value``; returns False when the queue is full."""
        head = yield Read(self.head_addr, "queue.enq:head")
        tail = yield Read(self.tail_addr, "queue.enq:tail")
        if tail - head >= self.capacity:
            return False
        yield Write(self.slots + tail % self.capacity, value, "queue.enq:slot")
        yield Write(self.tail_addr, tail + 1, "queue.enq:tail")
        return True

    def dequeue(self) -> TxGen:
        """Pop the oldest value; returns ``None`` when empty."""
        head = yield Read(self.head_addr, "queue.deq:head")
        tail = yield Read(self.tail_addr, "queue.deq:tail")
        if head >= tail:
            return None
        value = yield Read(self.slots + head % self.capacity, "queue.deq:slot")
        yield Write(self.head_addr, head + 1, "queue.deq:head")
        return value

    def size(self) -> TxGen:
        """Transactionally read the element count."""
        head = yield Read(self.head_addr, "queue.size:head")
        tail = yield Read(self.tail_addr, "queue.size:tail")
        return tail - head

    # ------------------------------------------------------------------

    def populate(self, values) -> None:
        """Non-transactional bulk enqueue (setup); values that do not all
        fit store nothing and raise :class:`QueueFull`."""
        values = list(values)
        head = self._plain(self.head_addr)
        tail = self._plain(self.tail_addr)
        if tail - head + len(values) > self.capacity:
            raise QueueFull(f"capacity {self.capacity} exceeded in setup")
        # the ring from the tail slot to its end, then from slot 0
        start = tail % self.capacity
        split = self.capacity - start
        self.machine.plain_fill(self.slots + start, values[:split])
        self.machine.plain_fill(self.slots, values[split:])
        self._plain_store(self.tail_addr, tail + len(values))

    def drain_plain(self) -> list:
        """Plain contents oldest-first, for tests."""
        head = self._plain(self.head_addr)
        tail = self._plain(self.tail_addr)
        return [self._plain(self.slots + i % self.capacity)
                for i in range(head, tail)]


class TxCounter(TxStructure):
    """A single shared transactional counter word."""

    def __init__(self, machine: Machine, initial: int = 0):
        super().__init__(machine)
        self.addr = self._alloc(1)
        self._plain_store(self.addr, initial)

    def get(self) -> TxGen:
        """Transactionally read the counter."""
        return read(self.addr, "counter.get")

    def add(self, delta: int = 1) -> TxGen:
        """Read-modify-write increment; returns the new value."""
        value = yield Read(self.addr, "counter.add:read")
        yield Write(self.addr, value + delta, "counter.add:write")
        return value + delta

    @property
    def value(self) -> int:
        """Plain (committed) value, for tests."""
        return self._plain(self.addr)
