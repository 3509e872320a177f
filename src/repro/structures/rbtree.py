"""Transactional red-black tree (the *RBTree* microbenchmark, §6.2).

A classic CLRS red-black tree over multiversioned memory.  Every field
access is a transactional read or write, so a single ``insert`` or
``remove`` touches a logarithmic path plus rebalancing writes — the
paper's observation that "a single update operation can lead to many
transactional writes due to rebalancing" is directly visible in the write
sets this structure produces.

No nil sentinel node is used: leaves are NULL pointers and fix-up routines
carry the parent explicitly.  A shared nil node would be transactionally
*written* during deletion fix-up (CLRS temporarily sets ``nil.parent``),
creating artificial write-write hot spots that the real RSTM container
avoids the same way.

Node layout (one line-aligned allocation)::

    word 0: key     word 1: value   word 2: left
    word 3: right   word 4: parent  word 5: color (0 black, 1 red)

The tree root pointer lives in its own line-aligned word.

Section 5.1 reports *multiple write skews* in the STAMP/RSTM red-black
tree; the anomaly surface here is structural: concurrent updates read
overlapping search/rebalance paths but write disjoint node sets, so under
plain SI both commit and the red-black invariants (or even the pointer
structure) break.  The ``skew_safe=True`` variant applies the paper's
read-promotion fix at the granularity their tool produces: **every read
performed by an update operation is promoted** (validated at commit like
a write, creating no version), which restores serializability among
updates while read-only lookups keep SI's zero-overhead commit.  This
also reproduces the paper's RBTree observation that "for insert and
delete operations only, the three TM implementations perform similar"
while lookups never abort.
"""

from __future__ import annotations

from typing import Tuple

from repro.sim.machine import Machine
from repro.structures.base import NULL, TxGen, TxStructure
from repro.tm.ops import Read, Write

KEY = 0
VALUE = 1
LEFT = 2
RIGHT = 3
PARENT = 4
COLOR = 5

BLACK = 0
RED = 1


class TxRedBlackTree(TxStructure):
    """Transactional red-black tree with insert/remove/lookup."""

    def __init__(self, machine: Machine, skew_safe: bool = False):
        super().__init__(machine)
        self.skew_safe = skew_safe
        self.root_ptr = self._alloc(1)
        self._plain_store(self.root_ptr, NULL)

    def _new_node(self, key: int, value: int) -> int:
        node = self._alloc(6)
        # KEY, VALUE, LEFT, RIGHT, PARENT, COLOR
        self.machine.plain_fill(node, (key, value, NULL, NULL, NULL, RED))
        return node

    def _is_red(self, node: int) -> TxGen:
        if node == NULL:
            return False
        color = yield Read(node + COLOR, "rbtree:color", self.skew_safe)
        return color == RED

    # ------------------------------------------------------------------
    # rotations

    def _rotate_left(self, x: int) -> TxGen:
        y = yield Read(x + RIGHT, "rbtree.rot:right", self.skew_safe)
        y_left = yield Read(y + LEFT, "rbtree.rot:left", self.skew_safe)
        yield Write(x + RIGHT, y_left, "rbtree.rot:link")
        if y_left != NULL:
            yield Write(y_left + PARENT, x, "rbtree.rot:parent")
        x_parent = yield Read(x + PARENT, "rbtree.rot:parent", self.skew_safe)
        yield Write(y + PARENT, x_parent, "rbtree.rot:parent")
        if x_parent == NULL:
            yield Write(self.root_ptr, y, "rbtree:root")
        else:
            parent_left = yield Read(x_parent + LEFT, "rbtree.rot:pl",
                                     self.skew_safe)
            if parent_left == x:
                yield Write(x_parent + LEFT, y, "rbtree.rot:link")
            else:
                yield Write(x_parent + RIGHT, y, "rbtree.rot:link")
        yield Write(y + LEFT, x, "rbtree.rot:link")
        yield Write(x + PARENT, y, "rbtree.rot:parent")

    def _rotate_right(self, x: int) -> TxGen:
        y = yield Read(x + LEFT, "rbtree.rot:left", self.skew_safe)
        y_right = yield Read(y + RIGHT, "rbtree.rot:right", self.skew_safe)
        yield Write(x + LEFT, y_right, "rbtree.rot:link")
        if y_right != NULL:
            yield Write(y_right + PARENT, x, "rbtree.rot:parent")
        x_parent = yield Read(x + PARENT, "rbtree.rot:parent", self.skew_safe)
        yield Write(y + PARENT, x_parent, "rbtree.rot:parent")
        if x_parent == NULL:
            yield Write(self.root_ptr, y, "rbtree:root")
        else:
            parent_right = yield Read(x_parent + RIGHT, "rbtree.rot:pr",
                                      self.skew_safe)
            if parent_right == x:
                yield Write(x_parent + RIGHT, y, "rbtree.rot:link")
            else:
                yield Write(x_parent + LEFT, y, "rbtree.rot:link")
        yield Write(y + RIGHT, x, "rbtree.rot:link")
        yield Write(x + PARENT, y, "rbtree.rot:parent")

    # ------------------------------------------------------------------
    # lookup

    def lookup(self, key: int) -> TxGen:
        """Return the stored value, or ``None`` when absent (read-only)."""
        node = yield Read(self.root_ptr, "rbtree:root")
        steps = 0
        while node != NULL:
            steps += 1
            if steps > self.TRAVERSAL_CAP:
                self._guard("rbtree.lookup")
            node_key = yield Read(node + KEY, "rbtree.lookup:key")
            if key == node_key:
                value = yield Read(node + VALUE, "rbtree.lookup:val")
                return value
            field = LEFT if key < node_key else RIGHT
            node = yield Read(node + field, "rbtree.lookup:child")
        return None

    # ------------------------------------------------------------------
    # insert

    def insert(self, key: int, value: int = 0) -> TxGen:
        """Insert ``key``; returns False when the key already exists."""
        parent = NULL
        node = yield Read(self.root_ptr, "rbtree:root", self.skew_safe)
        steps = 0
        while node != NULL:
            steps += 1
            if steps > self.TRAVERSAL_CAP:
                self._guard("rbtree.insert")
            parent = node
            node_key = yield Read(node + KEY, "rbtree.insert:key",
                                  self.skew_safe)
            if key == node_key:
                return False
            field = LEFT if key < node_key else RIGHT
            node = yield Read(node + field, "rbtree.insert:child",
                              self.skew_safe)
        fresh = self._new_node(key, value)
        yield Write(fresh + PARENT, parent, "rbtree.insert:parent")
        if parent == NULL:
            yield Write(self.root_ptr, fresh, "rbtree:root")
        else:
            parent_key = yield Read(parent + KEY, "rbtree.insert:key",
                                    self.skew_safe)
            field = LEFT if key < parent_key else RIGHT
            yield Write(parent + field, fresh, "rbtree.insert:link")
        yield from self._insert_fixup(fresh)
        return True

    def _insert_fixup(self, z: int) -> TxGen:
        steps = 0
        while True:
            steps += 1
            if steps > self.TRAVERSAL_CAP:
                self._guard("rbtree.insert_fixup")
            parent = yield Read(z + PARENT, "rbtree.fix:parent",
                                self.skew_safe)
            parent_red = yield from self._is_red(parent)
            if not parent_red:
                break
            grand = yield Read(parent + PARENT, "rbtree.fix:grand",
                               self.skew_safe)
            grand_left = yield Read(grand + LEFT, "rbtree.fix:gl",
                                    self.skew_safe)
            if parent == grand_left:
                uncle = yield Read(grand + RIGHT, "rbtree.fix:uncle",
                                   self.skew_safe)
                uncle_red = yield from self._is_red(uncle)
                if uncle_red:
                    yield Write(parent + COLOR, BLACK, "rbtree.fix:c")
                    yield Write(uncle + COLOR, BLACK, "rbtree.fix:c")
                    yield Write(grand + COLOR, RED, "rbtree.fix:c")
                    z = grand
                    continue
                parent_right = yield Read(parent + RIGHT, "rbtree.fix:pr",
                                          self.skew_safe)
                if z == parent_right:
                    z = parent
                    yield from self._rotate_left(z)
                    parent = yield Read(z + PARENT, "rbtree.fix:parent",
                                        self.skew_safe)
                    grand = yield Read(parent + PARENT, "rbtree.fix:grand",
                                       self.skew_safe)
                yield Write(parent + COLOR, BLACK, "rbtree.fix:c")
                yield Write(grand + COLOR, RED, "rbtree.fix:c")
                yield from self._rotate_right(grand)
            else:
                uncle = yield Read(grand + LEFT, "rbtree.fix:uncle",
                                   self.skew_safe)
                uncle_red = yield from self._is_red(uncle)
                if uncle_red:
                    yield Write(parent + COLOR, BLACK, "rbtree.fix:c")
                    yield Write(uncle + COLOR, BLACK, "rbtree.fix:c")
                    yield Write(grand + COLOR, RED, "rbtree.fix:c")
                    z = grand
                    continue
                parent_left = yield Read(parent + LEFT, "rbtree.fix:pl",
                                         self.skew_safe)
                if z == parent_left:
                    z = parent
                    yield from self._rotate_right(z)
                    parent = yield Read(z + PARENT, "rbtree.fix:parent",
                                        self.skew_safe)
                    grand = yield Read(parent + PARENT, "rbtree.fix:grand",
                                       self.skew_safe)
                yield Write(parent + COLOR, BLACK, "rbtree.fix:c")
                yield Write(grand + COLOR, RED, "rbtree.fix:c")
                yield from self._rotate_left(grand)
        root = yield Read(self.root_ptr, "rbtree:root", self.skew_safe)
        root_red = yield from self._is_red(root)
        if root_red:
            yield Write(root + COLOR, BLACK, "rbtree.fix:c")

    # ------------------------------------------------------------------
    # remove

    def remove(self, key: int) -> TxGen:
        """Remove ``key``; returns False when absent."""
        z = yield Read(self.root_ptr, "rbtree:root", self.skew_safe)
        steps = 0
        while z != NULL:
            steps += 1
            if steps > self.TRAVERSAL_CAP:
                self._guard("rbtree.remove")
            z_key = yield Read(z + KEY, "rbtree.remove:key", self.skew_safe)
            if key == z_key:
                break
            field = LEFT if key < z_key else RIGHT
            z = yield Read(z + field, "rbtree.remove:child", self.skew_safe)
        if z == NULL:
            return False
        z_left = yield Read(z + LEFT, "rbtree.remove:left", self.skew_safe)
        z_right = yield Read(z + RIGHT, "rbtree.remove:right", self.skew_safe)
        if z_left != NULL and z_right != NULL:
            # two children: splice the successor instead
            succ = z_right
            steps = 0
            while True:
                steps += 1
                if steps > self.TRAVERSAL_CAP:
                    self._guard("rbtree.remove:succ")
                succ_left = yield Read(succ + LEFT, "rbtree.remove:succ",
                                       self.skew_safe)
                if succ_left == NULL:
                    break
                succ = succ_left
            succ_key = yield Read(succ + KEY, "rbtree.remove:key",
                                  self.skew_safe)
            succ_value = yield Read(succ + VALUE, "rbtree.remove:val",
                                    self.skew_safe)
            yield Write(z + KEY, succ_key, "rbtree.remove:copy")
            yield Write(z + VALUE, succ_value, "rbtree.remove:copy")
            z = succ
            z_left = yield Read(z + LEFT, "rbtree.remove:left", self.skew_safe)
            z_right = yield Read(z + RIGHT, "rbtree.remove:right",
                                 self.skew_safe)
        # z now has at most one child
        child = z_left if z_left != NULL else z_right
        parent = yield Read(z + PARENT, "rbtree.remove:parent", self.skew_safe)
        if child != NULL:
            yield Write(child + PARENT, parent, "rbtree.remove:link")
        if parent == NULL:
            yield Write(self.root_ptr, child, "rbtree:root")
        else:
            parent_left = yield Read(parent + LEFT, "rbtree.remove:pl",
                                     self.skew_safe)
            if parent_left == z:
                yield Write(parent + LEFT, child, "rbtree.remove:link")
            else:
                yield Write(parent + RIGHT, child, "rbtree.remove:link")
        z_red = yield from self._is_red(z)
        if not z_red:
            yield from self._remove_fixup(child, parent)
        return True

    def _remove_fixup(self, x: int, parent: int) -> TxGen:
        """Restore black-height after removing a black node.

        ``x`` (possibly NULL, counted black) carries an extra black;
        ``parent`` is tracked explicitly because ``x`` may be NULL.
        """
        steps = 0
        while parent != NULL:
            steps += 1
            if steps > self.TRAVERSAL_CAP:
                self._guard("rbtree.remove_fixup")
            x_red = yield from self._is_red(x)
            if x_red:
                break
            parent_left = yield Read(parent + LEFT, "rbtree.dfx:pl",
                                     self.skew_safe)
            if x == parent_left:
                w = yield Read(parent + RIGHT, "rbtree.dfx:sib",
                               self.skew_safe)
                w_red = yield from self._is_red(w)
                if w_red:
                    yield Write(w + COLOR, BLACK, "rbtree.dfx:c")
                    yield Write(parent + COLOR, RED, "rbtree.dfx:c")
                    yield from self._rotate_left(parent)
                    w = yield Read(parent + RIGHT, "rbtree.dfx:sib",
                                   self.skew_safe)
                w_left = yield Read(w + LEFT, "rbtree.dfx:wl", self.skew_safe)
                w_right = yield Read(w + RIGHT, "rbtree.dfx:wr",
                                     self.skew_safe)
                wl_red = yield from self._is_red(w_left)
                wr_red = yield from self._is_red(w_right)
                if not wl_red and not wr_red:
                    yield Write(w + COLOR, RED, "rbtree.dfx:c")
                    x = parent
                    parent = yield Read(x + PARENT, "rbtree.dfx:up",
                                        self.skew_safe)
                    continue
                if not wr_red:
                    yield Write(w_left + COLOR, BLACK, "rbtree.dfx:c")
                    yield Write(w + COLOR, RED, "rbtree.dfx:c")
                    yield from self._rotate_right(w)
                    w = yield Read(parent + RIGHT, "rbtree.dfx:sib",
                                   self.skew_safe)
                parent_color = yield Read(parent + COLOR, "rbtree.dfx:c",
                                          self.skew_safe)
                yield Write(w + COLOR, parent_color, "rbtree.dfx:c")
                yield Write(parent + COLOR, BLACK, "rbtree.dfx:c")
                w_right = yield Read(w + RIGHT, "rbtree.dfx:wr",
                                     self.skew_safe)
                if w_right != NULL:
                    yield Write(w_right + COLOR, BLACK, "rbtree.dfx:c")
                yield from self._rotate_left(parent)
                x = yield Read(self.root_ptr, "rbtree:root", self.skew_safe)
                break
            else:
                w = yield Read(parent + LEFT, "rbtree.dfx:sib", self.skew_safe)
                w_red = yield from self._is_red(w)
                if w_red:
                    yield Write(w + COLOR, BLACK, "rbtree.dfx:c")
                    yield Write(parent + COLOR, RED, "rbtree.dfx:c")
                    yield from self._rotate_right(parent)
                    w = yield Read(parent + LEFT, "rbtree.dfx:sib",
                                   self.skew_safe)
                w_left = yield Read(w + LEFT, "rbtree.dfx:wl", self.skew_safe)
                w_right = yield Read(w + RIGHT, "rbtree.dfx:wr",
                                     self.skew_safe)
                wl_red = yield from self._is_red(w_left)
                wr_red = yield from self._is_red(w_right)
                if not wl_red and not wr_red:
                    yield Write(w + COLOR, RED, "rbtree.dfx:c")
                    x = parent
                    parent = yield Read(x + PARENT, "rbtree.dfx:up",
                                        self.skew_safe)
                    continue
                if not wl_red:
                    yield Write(w_right + COLOR, BLACK, "rbtree.dfx:c")
                    yield Write(w + COLOR, RED, "rbtree.dfx:c")
                    yield from self._rotate_left(w)
                    w = yield Read(parent + LEFT, "rbtree.dfx:sib",
                                   self.skew_safe)
                parent_color = yield Read(parent + COLOR, "rbtree.dfx:c",
                                          self.skew_safe)
                yield Write(w + COLOR, parent_color, "rbtree.dfx:c")
                yield Write(parent + COLOR, BLACK, "rbtree.dfx:c")
                w_left = yield Read(w + LEFT, "rbtree.dfx:wl", self.skew_safe)
                if w_left != NULL:
                    yield Write(w_left + COLOR, BLACK, "rbtree.dfx:c")
                yield from self._rotate_right(parent)
                x = yield Read(self.root_ptr, "rbtree:root", self.skew_safe)
                break
        if x != NULL:
            yield Write(x + COLOR, BLACK, "rbtree.dfx:c")

    # ------------------------------------------------------------------
    # non-transactional setup/inspection

    def populate(self, keys) -> None:
        """Build the tree outside any transaction via throwaway commits.

        Setup uses the plain-memory path by driving the generator bodies
        with a trivial interpreter that applies reads/writes immediately.
        """
        for key in keys:
            self._run_plain(self.insert(int(key)))

    def keys_inorder(self) -> list:
        """Plain in-order key traversal, for tests."""
        items: list = []
        self._inorder(self._plain(self.root_ptr), items)
        return items

    # the walks are methods, not nested closures: a recursive closure
    # refers to itself through its cell, a reference cycle that would
    # keep the tree and its machine alive until the cyclic collector runs
    def _inorder(self, node: int, items: list) -> None:
        if node != NULL:
            self._inorder(self._plain(node + LEFT), items)
            items.append(self._plain(node + KEY))
            self._inorder(self._plain(node + RIGHT), items)

    def check_invariants(self) -> bool:
        """Red-black invariants hold on the committed state (tests)."""
        root = self._plain(self.root_ptr)
        if root == NULL:
            return True
        if self._plain(root + COLOR) == RED:
            return False
        return self._black_height(root)[1]

    def _black_height(self, node: int) -> Tuple[int, bool]:
        """(black height, invariants hold) of the subtree at ``node``."""
        if node == NULL:
            return 1, True
        color = self._plain(node + COLOR)
        left = self._plain(node + LEFT)
        right = self._plain(node + RIGHT)
        ok = True
        if color == RED:
            for child in (left, right):
                if child != NULL and self._plain(child + COLOR) == RED:
                    ok = False
        left_black, left_ok = self._black_height(left)
        right_black, right_ok = self._black_height(right)
        ok = ok and left_ok and right_ok and left_black == right_black
        return left_black + (1 if color == BLACK else 0), ok
