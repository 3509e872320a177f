"""Transactional skip list.

A sorted map with probabilistic balance — the other classic concurrent
container in STM benchmark suites.  Tower heights are derived
*deterministically from the key* (a hash), not from a random stream:
transaction bodies re-execute on abort, and a height that changed between
attempts would make retries structurally diverge.

Node layout (one line-aligned allocation)::

    word 0: key     word 1: value   word 2: height
    word 3+i: next pointer at level i   (i < height)

A head tower of ``MAX_HEIGHT`` levels fronts the list; level 0 links
every node, so a level-0 walk visits all keys in order.

Write-skew surface: like the linked list, ``remove`` unlinks by
redirecting predecessors at every level; two concurrent removes of
adjacent towers have disjoint write sets under SI.  ``skew_safe=True``
applies the Listing 2 fix at every level (null the removed node's next
pointers), forcing the write-write conflict.
"""

from __future__ import annotations

from repro.sim.machine import Machine
from repro.structures.base import NULL, TxGen, TxStructure
from repro.tm.ops import Read, Write

MAX_HEIGHT = 8

_KEY = 0
_VALUE = 1
_HEIGHT = 2
_NEXT0 = 3

_HEAD_KEY = -(1 << 62)


def tower_height(key: int, max_height: int = MAX_HEIGHT) -> int:
    """Deterministic pseudo-random tower height for ``key`` (p = 1/2)."""
    mixed = (key * 0x9E3779B97F4A7C15) & ((1 << 64) - 1)
    mixed ^= mixed >> 31
    height = 1
    while height < max_height and (mixed >> height) & 1:
        height += 1
    return height


class TxSkipList(TxStructure):
    """Sorted transactional skip list with deterministic towers."""

    def __init__(self, machine: Machine, skew_safe: bool = False):
        super().__init__(machine)
        self.skew_safe = skew_safe
        self.head = self._new_node(_HEAD_KEY, 0, MAX_HEIGHT)

    def _new_node(self, key: int, value: int, height: int) -> int:
        node = self._alloc(_NEXT0 + height)
        # _KEY, _VALUE, _HEIGHT, then one NULL next pointer per level
        self.machine.plain_fill(node, (key, value, height) + (NULL,) * height)
        return node

    # ------------------------------------------------------------------
    # traversal

    def _find_predecessors(self, key: int) -> TxGen:
        """Per-level predecessors of ``key`` plus the level-0 candidate."""
        preds = [self.head] * MAX_HEIGHT
        node = self.head
        steps = 0
        for level in reversed(range(MAX_HEIGHT)):
            while True:
                steps += 1
                if steps > self.TRAVERSAL_CAP:
                    self._guard("skiplist.find")
                nxt = yield Read(node + _NEXT0 + level, "skiplist.find:next")
                if nxt == NULL:
                    break
                nxt_key = yield Read(nxt + _KEY, "skiplist.find:key")
                if nxt_key >= key:
                    break
                node = nxt
            preds[level] = node
        candidate = yield Read(node + _NEXT0, "skiplist.find:next")
        return preds, candidate

    # ------------------------------------------------------------------
    # operations

    def lookup(self, key: int) -> TxGen:
        """Return the stored value, or ``None`` when absent (read-only)."""
        _, candidate = yield from self._find_predecessors(key)
        if candidate == NULL:
            return None
        candidate_key = yield Read(candidate + _KEY, "skiplist.lookup:key")
        if candidate_key != key:
            return None
        value = yield Read(candidate + _VALUE, "skiplist.lookup:value")
        return value

    def insert(self, key: int, value: int = 0) -> TxGen:
        """Insert ``key``; returns False when already present."""
        preds, candidate = yield from self._find_predecessors(key)
        if candidate != NULL:
            candidate_key = yield Read(candidate + _KEY, "skiplist.insert:key")
            if candidate_key == key:
                return False
        height = tower_height(key)
        node = self._new_node(key, value, height)
        for level in range(height):
            succ = yield Read(preds[level] + _NEXT0 + level,
                              "skiplist.insert:succ", self.skew_safe)
            yield Write(node + _NEXT0 + level, succ, "skiplist.insert:link")
            yield Write(preds[level] + _NEXT0 + level, node,
                        "skiplist.insert:link")
        return True

    def remove(self, key: int) -> TxGen:
        """Remove ``key``; returns False when absent."""
        preds, candidate = yield from self._find_predecessors(key)
        if candidate == NULL:
            return False
        candidate_key = yield Read(candidate + _KEY, "skiplist.remove:key")
        if candidate_key != key:
            return False
        height = yield Read(candidate + _HEIGHT, "skiplist.remove:height")
        for level in range(height):
            pred_next = yield Read(preds[level] + _NEXT0 + level,
                                   "skiplist.remove:prednext")
            if pred_next != candidate:
                continue  # tower not linked at this level from this pred
            succ = yield Read(candidate + _NEXT0 + level,
                              "skiplist.remove:succ")
            yield Write(preds[level] + _NEXT0 + level, succ,
                        "skiplist.remove:unlink")
            if self.skew_safe:
                yield Write(candidate + _NEXT0 + level, NULL,
                            "skiplist.remove:fix")
        return True

    def length(self) -> TxGen:
        """Transactionally count elements (level-0 walk)."""
        count = 0
        node = yield Read(self.head + _NEXT0, "skiplist.length:next")
        while node != NULL:
            count += 1
            if count > self.TRAVERSAL_CAP:
                self._guard("skiplist.length")
            node = yield Read(node + _NEXT0, "skiplist.length:next")
        return count

    # ------------------------------------------------------------------
    # non-transactional setup/inspection

    def populate(self, items) -> None:
        """Bulk insert ``(key, value)`` pairs (or bare keys) during setup."""
        for item in items:
            key, value = item if isinstance(item, tuple) else (item, 0)
            self._run_plain(self.insert(int(key), int(value)))

    def keys(self) -> list:
        """Plain in-order key list."""
        out = []
        node = self._plain(self.head + _NEXT0)
        while node != NULL:
            out.append(self._plain(node + _KEY))
            node = self._plain(node + _NEXT0)
        return out

    def check_invariants(self) -> bool:
        """Sortedness at every level; towers consistent with level 0."""
        level0 = self.keys()
        if level0 != sorted(level0):
            return False
        level0_set = set(level0)
        for level in range(1, MAX_HEIGHT):
            node = self._plain(self.head + _NEXT0 + level)
            previous = _HEAD_KEY
            while node != NULL:
                key = self._plain(node + _KEY)
                if key <= previous or key not in level0_set:
                    return False
                previous = key
                node = self._plain(node + _NEXT0 + level)
        return True
