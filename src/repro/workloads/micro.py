"""The three RSTM microbenchmarks of section 6.2.

* **Array** — fixed array (paper: 30K cells); per thread (paper: 1000
  transactions) 20% long read transactions that iterate the whole array
  and 80% update transactions touching two random cells.  The long reads
  make 2PL livelock while SI commits them all — the 3000x abort-reduction
  headline.
* **List** — sorted singly-linked list of 1000 elements; 40% insert,
  40% remove, 20% lookup.  Every operation traverses from the head (many
  reads) but modifies at most one element, so read-write conflicts dwarf
  write-write ones.
* **RBTree** — red-black tree initialised with 100 elements; 50% lookup,
  25% insert, 25% delete.

The microbenchmarks keep the paper's *structure sizes and mixes* in the
``full`` profile and shrink only transaction counts / iteration footprints
in the smaller profiles (documented per parameter below).  Lists and trees
use the skew-safe variants, as the paper's corrected library does — the
un-fixed variants are exercised by :mod:`repro.skew` instead.
"""

from __future__ import annotations

from typing import List

from repro.common.rng import SplitRandom
from repro.sim.engine import TransactionSpec
from repro.sim.machine import Machine
from repro.structures import TxArray, TxLinkedList, TxRedBlackTree
from repro.tm.ops import Read, Write
from repro.workloads.base import (
    REGISTRY,
    Workload,
    WorkloadInstance,
    partition,
)


@REGISTRY.register
class ArrayBench(Workload):
    """Long array scans vs point updates (Figure 7/8 "Array")."""

    name = "array"
    description = "fixed array; 20% full-scan reads, 80% 2-cell updates"

    def setup(self, machine: Machine, num_threads: int,
              rng: SplitRandom) -> WorkloadInstance:
        # paper: 30K cells, 1000 txns/thread.  The cell count must stay
        # large relative to the update rate: with too few lines, a pinned
        # long-scan snapshot makes hot lines exceed the 4-version cap and
        # SI aborts on VERSION_OVERFLOW instead of almost never — the
        # paper's 30K cells keep versions-per-line-per-scan well below 1.
        size = self._pick(test=2048, quick=16_384, full=30_000)
        size = max(256, int(size * self._contended(4, 1, 0.25)))
        total_txns = self._pick(test=160, quick=480, full=1000 * num_threads)
        scan_cells = self._pick(test=256, quick=1024, full=30_000)
        array = TxArray(machine, size)
        array.populate([0] * size)

        def long_read(offset: int):
            # iterate the array (full profile scans a rotating window to
            # bound runtime; test/quick scan everything)
            def body(offset=offset):
                start = offset % max(1, size - scan_cells + 1)
                total = yield from array.sum_range(start, start + scan_cells)
                return total
            return body

        def update(a: int, b: int):
            def body():
                va = yield Read(array.addr(a), "array.get")
                yield Write(array.addr(a), va + 1, "array.set")
                vb = yield Read(array.addr(b), "array.get")
                yield Write(array.addr(b), vb + 1, "array.set")
            return body

        programs: List[List[TransactionSpec]] = []
        for tid, count in enumerate(partition(total_txns, num_threads)):
            thread_rng = rng.split("thread", tid)
            specs = []
            for i in range(count):
                if thread_rng.random() < 0.20:
                    specs.append(TransactionSpec(
                        long_read(thread_rng.randrange(size)), "array.scan"))
                else:
                    a, b = thread_rng.distinct(2, 0, size)
                    specs.append(TransactionSpec(update(a, b), "array.update"))
            programs.append(specs)
        return WorkloadInstance(machine, programs)


@REGISTRY.register
class ListBench(Workload):
    """Sorted linked-list mix (Figure 7/8 "List")."""

    name = "list"
    description = "1000-element sorted list; 40% insert, 40% remove, 20% lookup"

    def setup(self, machine: Machine, num_threads: int,
              rng: SplitRandom) -> WorkloadInstance:
        # paper: 1000 elements, 1000 txns/thread, 40/40/20
        size = self._pick(test=64, quick=192, full=1000)
        size = max(16, int(size * self._contended(4, 1, 0.25)))
        total_txns = self._pick(test=120, quick=320, full=1000 * num_threads)
        key_space = size * 2
        lst = TxLinkedList(machine, skew_safe=True)
        lst.populate(rng.split("init").sample(range(key_space), size))

        programs: List[List[TransactionSpec]] = []
        for tid, count in enumerate(partition(total_txns, num_threads)):
            thread_rng = rng.split("thread", tid)
            specs = []
            for _ in range(count):
                key = thread_rng.randrange(key_space)
                roll = thread_rng.random()
                if roll < 0.40:
                    specs.append(TransactionSpec(
                        lambda k=key: lst.insert(k), "list.insert"))
                elif roll < 0.80:
                    specs.append(TransactionSpec(
                        lambda k=key: lst.remove(k), "list.remove"))
                else:
                    specs.append(TransactionSpec(
                        lambda k=key: lst.lookup(k), "list.lookup"))
            programs.append(specs)

        def verify() -> bool:
            items = lst.to_list()
            return items == sorted(set(items))

        return WorkloadInstance(machine, programs, verify)


@REGISTRY.register
class RBTreeBench(Workload):
    """Red-black-tree mix (Figure 7/8 "Red Black Tree")."""

    name = "rbtree"
    description = "100-key red-black tree; 50% lookup, 25% insert, 25% delete"

    def setup(self, machine: Machine, num_threads: int,
              rng: SplitRandom) -> WorkloadInstance:
        # paper: 100 initial elements, 50/25/25
        size = self._pick(test=50, quick=100, full=100)
        total_txns = self._pick(test=160, quick=640, full=1000 * num_threads)
        key_space = size * 4
        tree = TxRedBlackTree(machine, skew_safe=True)
        tree.populate(rng.split("init").sample(range(key_space), size))

        programs: List[List[TransactionSpec]] = []
        for tid, count in enumerate(partition(total_txns, num_threads)):
            thread_rng = rng.split("thread", tid)
            specs = []
            for _ in range(count):
                key = thread_rng.randrange(key_space)
                roll = thread_rng.random()
                if roll < 0.50:
                    specs.append(TransactionSpec(
                        lambda k=key: tree.lookup(k), "rbtree.lookup"))
                elif roll < 0.75:
                    specs.append(TransactionSpec(
                        lambda k=key: tree.insert(k), "rbtree.insert"))
                else:
                    specs.append(TransactionSpec(
                        lambda k=key: tree.remove(k), "rbtree.remove"))
            programs.append(specs)

        def verify() -> bool:
            keys = tree.keys_inorder()
            return tree.check_invariants() and keys == sorted(set(keys))

        return WorkloadInstance(machine, programs, verify)
