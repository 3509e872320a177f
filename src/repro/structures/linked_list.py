"""Transactional sorted singly-linked list (the *List* microbenchmark).

The paper's Listing 2: ``remove`` unlinks a node by redirecting the
predecessor's ``next`` pointer.  Under snapshot isolation, two concurrent
removes of *adjacent* elements have disjoint write sets and both commit —
dropping a node from the list (a write-skew anomaly).  The fix the paper
gives (Listing 2, line 10) is to also null the removed node's ``next``
pointer, forcing a write-write conflict in exactly that schedule.

``TxLinkedList(machine, skew_safe=False)`` reproduces the anomalous
library version; ``skew_safe=True`` applies the fix.  The write-skew tool
(:mod:`repro.skew`) finds the anomaly in the former and verifies its
absence in the latter.

Node layout (one line-aligned allocation per node)::

    word 0: value
    word 1: next pointer

A sentinel head node (value = -inf marker) simplifies edge cases, as in
the RSTM implementation.
"""

from __future__ import annotations

from repro.sim.machine import Machine
from repro.structures.base import NULL, TxGen, TxStructure
from repro.tm.ops import Read, Write

#: sentinel key smaller than any user value
_HEAD_KEY = -(1 << 62)

_VALUE = 0
_NEXT = 1


class TxLinkedList(TxStructure):
    """Sorted singly-linked list with optional write-skew fix."""

    def __init__(self, machine: Machine, skew_safe: bool = False):
        super().__init__(machine)
        self.skew_safe = skew_safe
        self.head = self._new_node(_HEAD_KEY, NULL)

    def _new_node(self, value: int, next_ptr: int) -> int:
        node = self._alloc(2)
        # _VALUE, _NEXT
        self.machine.plain_fill(node, (value, next_ptr))
        return node

    # ------------------------------------------------------------------
    # transactional operations (generators)

    def lookup(self, value: int) -> TxGen:
        """Return True when ``value`` is in the list."""
        node = yield Read(self.head + _NEXT, "list.lookup:next")
        steps = 0
        while node != NULL:
            steps += 1
            if steps > self.TRAVERSAL_CAP:
                self._guard("list.lookup")
            node_value = yield Read(node + _VALUE, "list.lookup:value")
            if node_value >= value:
                return node_value == value
            node = yield Read(node + _NEXT, "list.lookup:next")
        return False

    def insert(self, value: int) -> TxGen:
        """Insert ``value`` keeping the list sorted; False if present."""
        prev = self.head
        nxt = yield Read(prev + _NEXT, "list.insert:next")
        steps = 0
        while nxt != NULL:
            steps += 1
            if steps > self.TRAVERSAL_CAP:
                self._guard("list.insert")
            nxt_value = yield Read(nxt + _VALUE, "list.insert:value")
            if nxt_value >= value:
                if nxt_value == value:
                    return False
                break
            prev = nxt
            nxt = yield Read(prev + _NEXT, "list.insert:next")
        node = self._new_node(value, NULL)
        # link: node.next = nxt; prev.next = node
        yield Write(node + _NEXT, nxt, "list.insert:link")
        yield Write(prev + _NEXT, node, "list.insert:link")
        return True

    def remove(self, value: int) -> TxGen:
        """Remove ``value``; return False when absent.

        This is Listing 2 of the paper.  Without ``skew_safe`` the removed
        node's ``next`` pointer is left intact, admitting the adjacent-
        remove write skew under SI.
        """
        prev = self.head
        nxt = yield Read(prev + _NEXT, "list.remove:next")
        steps = 0
        while nxt != NULL:
            steps += 1
            if steps > self.TRAVERSAL_CAP:
                self._guard("list.remove")
            nxt_value = yield Read(nxt + _VALUE, "list.remove:value")
            if nxt_value >= value:
                break
            prev = nxt
            nxt = yield Read(prev + _NEXT, "list.remove:next")
        if nxt == NULL:
            return False
        nxt_value = yield Read(nxt + _VALUE, "list.remove:value")
        if nxt_value != value:
            return False
        successor = yield Read(nxt + _NEXT, "list.remove:succ")
        yield Write(prev + _NEXT, successor, "list.remove:unlink")
        if self.skew_safe:
            # Listing 2 line 10: force a write-write conflict between
            # concurrent removes of adjacent elements.
            yield Write(nxt + _NEXT, NULL, "list.remove:fix")
        return True

    def length(self) -> TxGen:
        """Transactionally count elements (long read transaction)."""
        count = 0
        node = yield Read(self.head + _NEXT, "list.length:next")
        while node != NULL:
            count += 1
            if count > self.TRAVERSAL_CAP:
                self._guard("list.length")
            node = yield Read(node + _NEXT, "list.length:next")
        return count

    # ------------------------------------------------------------------
    # non-transactional setup/inspection

    def populate(self, values) -> None:
        """Build the list outside any transaction (sorted insert)."""
        for value in sorted(values, reverse=True):
            node = self._new_node(value, self._plain(self.head + _NEXT))
            self._plain_store(self.head + _NEXT, node)

    def to_list(self) -> list:
        """Plain contents in order, for tests."""
        items = []
        node = self._plain(self.head + _NEXT)
        while node != NULL:
            items.append(self._plain(node + _VALUE))
            node = self._plain(node + _NEXT)
        return items
