"""Transactional sorted doubly-linked list.

Section 5.1 reports write-skew anomalies in the STAMP data-structure
library's doubly-linked list.  The doubly-linked variant has a richer
anomaly surface than Listing 2's singly-linked list: concurrent removes of
adjacent nodes A-B-C-D (removing B and C) under SI write
``{A.next, C.prev}`` and ``{B.next, D.prev}`` — disjoint write sets whose
combined effect corrupts both directions of the chain.  ``skew_safe=True``
nulls the removed node's own pointers, forcing the write-write conflict.

Node layout: ``word 0 = value``, ``word 1 = next``, ``word 2 = prev``.
Head and tail sentinels avoid edge cases.
"""

from __future__ import annotations

from repro.sim.machine import Machine
from repro.structures.base import NULL, TxGen, TxStructure
from repro.tm.ops import Read, Write

_HEAD_KEY = -(1 << 62)
_TAIL_KEY = 1 << 62

_VALUE = 0
_NEXT = 1
_PREV = 2


class TxDoublyLinkedList(TxStructure):
    """Sorted doubly-linked list with sentinels."""

    def __init__(self, machine: Machine, skew_safe: bool = False):
        super().__init__(machine)
        self.skew_safe = skew_safe
        self.head = self._new_node(_HEAD_KEY)
        self.tail = self._new_node(_TAIL_KEY)
        self._plain_store(self.head + _NEXT, self.tail)
        self._plain_store(self.tail + _PREV, self.head)

    def _new_node(self, value: int) -> int:
        node = self._alloc(3)
        # _VALUE, _NEXT, _PREV
        self.machine.plain_fill(node, (value, NULL, NULL))
        return node

    # ------------------------------------------------------------------

    def _find(self, value: int) -> TxGen:
        """Return the first node with ``node.value >= value`` (may be tail)."""
        node = yield Read(self.head + _NEXT, "dlist.find:next")
        steps = 0
        while True:
            steps += 1
            if steps > self.TRAVERSAL_CAP:
                self._guard("dlist.find")
            node_value = yield Read(node + _VALUE, "dlist.find:value")
            if node_value >= value:
                return node
            node = yield Read(node + _NEXT, "dlist.find:next")

    def lookup(self, value: int) -> TxGen:
        """True when ``value`` is present."""
        node = yield from self._find(value)
        node_value = yield Read(node + _VALUE, "dlist.lookup:value")
        return node_value == value

    def insert(self, value: int) -> TxGen:
        """Sorted insert; False when already present."""
        succ = yield from self._find(value)
        succ_value = yield Read(succ + _VALUE, "dlist.insert:value")
        if succ_value == value:
            return False
        pred = yield Read(succ + _PREV, "dlist.insert:prev")
        node = self._new_node(value)
        yield Write(node + _NEXT, succ, "dlist.insert:link")
        yield Write(node + _PREV, pred, "dlist.insert:link")
        yield Write(pred + _NEXT, node, "dlist.insert:link")
        yield Write(succ + _PREV, node, "dlist.insert:link")
        return True

    def remove(self, value: int) -> TxGen:
        """Remove ``value``; False when absent.

        Unsafe variant writes only ``{pred.next, succ.prev}``; two
        concurrent adjacent removes have disjoint write sets under SI.
        """
        node = yield from self._find(value)
        node_value = yield Read(node + _VALUE, "dlist.remove:value")
        if node_value != value:
            return False
        pred = yield Read(node + _PREV, "dlist.remove:prev")
        succ = yield Read(node + _NEXT, "dlist.remove:next")
        yield Write(pred + _NEXT, succ, "dlist.remove:unlink")
        yield Write(succ + _PREV, pred, "dlist.remove:unlink")
        if self.skew_safe:
            yield Write(node + _NEXT, NULL, "dlist.remove:fix")
            yield Write(node + _PREV, NULL, "dlist.remove:fix")
        return True

    def length(self) -> TxGen:
        """Transactionally count elements."""
        count = 0
        node = yield Read(self.head + _NEXT, "dlist.length:next")
        while node != self.tail:
            count += 1
            if count > self.TRAVERSAL_CAP:
                self._guard("dlist.length")
            node = yield Read(node + _NEXT, "dlist.length:next")
        return count

    # ------------------------------------------------------------------

    def populate(self, values) -> None:
        """Non-transactional sorted bulk insert."""
        for value in sorted(values, reverse=True):
            succ = self._plain(self.head + _NEXT)
            node = self._new_node(value)
            self._plain_store(node + _NEXT, succ)
            self._plain_store(node + _PREV, self.head)
            self._plain_store(self.head + _NEXT, node)
            self._plain_store(succ + _PREV, node)

    def to_list(self) -> list:
        """Plain contents in order."""
        items = []
        node = self._plain(self.head + _NEXT)
        while node != self.tail:
            items.append(self._plain(node + _VALUE))
            node = self._plain(node + _NEXT)
        return items

    def check_consistent(self) -> bool:
        """Forward and backward traversals agree (skew detector for tests)."""
        forward = self.to_list()
        backward = []
        node = self._plain(self.tail + _PREV)
        while node != self.head:
            backward.append(self._plain(node + _VALUE))
            node = self._plain(node + _PREV)
        return forward == list(reversed(backward))
