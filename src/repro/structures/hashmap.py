"""Transactional chained hash map.

Fixed bucket array with per-bucket singly-linked chains.  Used by the
STAMP-like kernels (genome's segment table, intruder's flow table,
vacation's reservation tables).  Transactions touching different buckets
have disjoint read/write sets, so contention scales with load factor —
the behaviour that makes these kernels mostly SI-friendly.

Node layout: ``word 0 = key``, ``word 1 = value``, ``word 2 = next``.
"""

from __future__ import annotations

from repro.sim.machine import Machine
from repro.structures.base import NULL, TxGen, TxStructure
from repro.tm.ops import Read, Write

_KEY = 0
_VALUE = 1
_NEXT = 2


class TxHashMap(TxStructure):
    """Chained transactional hash map with a fixed bucket count."""

    def __init__(self, machine: Machine, buckets: int = 64):
        super().__init__(machine)
        if buckets <= 0:
            raise ValueError("bucket count must be positive")
        self.buckets = buckets
        self.table = self._alloc(buckets)
        self.machine.plain_fill(self.table, [NULL] * buckets)

    def _bucket(self, key: int) -> int:
        # Multiplicative hashing keeps adjacent keys in distinct buckets.
        return self.table + ((key * 2654435761) & 0x7FFFFFFF) % self.buckets

    def _new_node(self, key: int, value: int, nxt: int) -> int:
        node = self._alloc(3)
        # _KEY, _VALUE, _NEXT
        self.machine.plain_fill(node, (key, value, nxt))
        return node

    # ------------------------------------------------------------------

    def get(self, key: int) -> TxGen:
        """Return the value for ``key``, or ``None`` when absent."""
        node = yield Read(self._bucket(key), "hash.get:bucket")
        while node != NULL:
            node_key = yield Read(node + _KEY, "hash.get:key")
            if node_key == key:
                value = yield Read(node + _VALUE, "hash.get:value")
                return value
            node = yield Read(node + _NEXT, "hash.get:next")
        return None

    def contains(self, key: int) -> TxGen:
        """True when ``key`` is present."""
        value = yield from self.get(key)
        return value is not None

    def put(self, key: int, value: int) -> TxGen:
        """Insert or update; returns True when a new entry was created."""
        bucket = self._bucket(key)
        head = yield Read(bucket, "hash.put:bucket")
        node = head
        while node != NULL:
            node_key = yield Read(node + _KEY, "hash.put:key")
            if node_key == key:
                yield Write(node + _VALUE, value, "hash.put:update")
                return False
            node = yield Read(node + _NEXT, "hash.put:next")
        fresh = self._new_node(key, value, NULL)
        yield Write(fresh + _NEXT, head, "hash.put:link")
        yield Write(bucket, fresh, "hash.put:link")
        return True

    def increment(self, key: int, delta: int = 1) -> TxGen:
        """Read-modify-write the value for ``key`` (insert 0 if absent)."""
        bucket = self._bucket(key)
        node = yield Read(bucket, "hash.inc:bucket")
        while node != NULL:
            node_key = yield Read(node + _KEY, "hash.inc:key")
            if node_key == key:
                value = yield Read(node + _VALUE, "hash.inc:value")
                yield Write(node + _VALUE, value + delta, "hash.inc:update")
                return value + delta
            node = yield Read(node + _NEXT, "hash.inc:next")
        head = yield Read(bucket, "hash.inc:bucket")
        fresh = self._new_node(key, delta, NULL)
        yield Write(fresh + _NEXT, head, "hash.inc:link")
        yield Write(bucket, fresh, "hash.inc:link")
        return delta

    def remove(self, key: int) -> TxGen:
        """Remove ``key``; returns True when it was present."""
        bucket = self._bucket(key)
        prev = NULL
        node = yield Read(bucket, "hash.remove:bucket")
        while node != NULL:
            node_key = yield Read(node + _KEY, "hash.remove:key")
            if node_key == key:
                nxt = yield Read(node + _NEXT, "hash.remove:next")
                if prev == NULL:
                    yield Write(bucket, nxt, "hash.remove:unlink")
                else:
                    yield Write(prev + _NEXT, nxt, "hash.remove:unlink")
                return True
            prev = node
            node = yield Read(node + _NEXT, "hash.remove:next")
        return False

    # ------------------------------------------------------------------

    def populate(self, items) -> None:
        """Non-transactional bulk insert of ``(key, value)`` pairs."""
        for key, value in items:
            bucket = self._bucket(key)
            self._plain_store(
                bucket, self._new_node(key, value, self._plain(bucket)))

    def to_dict(self) -> dict:
        """Plain contents, for tests."""
        out = {}
        for i in range(self.buckets):
            node = self._plain(self.table + i)
            while node != NULL:
                out.setdefault(self._plain(node + _KEY),
                               self._plain(node + _VALUE))
                node = self._plain(node + _NEXT)
        return out
