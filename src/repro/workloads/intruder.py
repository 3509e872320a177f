"""Intruder: signature-based network intrusion detection.

STAMP's intruder reassembles packet fragments per flow, then runs a
detector over completed flows.  The transactional content is pure shared-
data-structure traffic — a flow *map* (tree) plus per-flow fragment
storage — which is why the paper singles it out: "Intruder only utilizes
transactions to perform concurrent access to data structures including a
list and a tree which as we have seen perform well under SI" (SI-TM cuts
aborts ~50x vs 2PL and ~40x vs CS at 32 threads).

Modelling notes: each flow owns one line-aligned fragment slot per
fragment index, so two threads inserting *different* fragments of the same
flow write disjoint lines — exactly like inserting different nodes into
the flow's fragment list.  Flow-map lookups traverse the shared red-black
tree, so under 2PL every flow completion (a tree remove) aborts concurrent
lookups (read-write), while under SI only genuinely racing writes to the
same fragment slot or the same completion conflict.

Transaction mix: 70% fragment insertion (tree lookup + slot write), 20%
flow completion (read the flow's slots, clear them, remove from the tree,
run the detector as compute), 10% detector-status lookups (read-only).

Scaling: flow counts shrink by profile; ratios and fragment counts fixed.
"""

from __future__ import annotations

from typing import List

from repro.common.rng import SplitRandom
from repro.sim.engine import TransactionSpec
from repro.sim.machine import Machine
from repro.structures import TxArray, TxRedBlackTree
from repro.tm.ops import Compute, Read, Write
from repro.workloads.base import (
    REGISTRY,
    Workload,
    WorkloadInstance,
    partition,
)

FRAGMENTS_PER_FLOW = 4


@REGISTRY.register
class IntruderBench(Workload):
    """Flow reassembly over a tree + per-fragment slot writes."""

    name = "intruder"
    description = "flow map (tree) traffic + disjoint per-fragment inserts"

    def setup(self, machine: Machine, num_threads: int,
              rng: SplitRandom) -> WorkloadInstance:
        flows = self._pick(test=48, quick=128, full=1024)
        total_txns = self._pick(test=160, quick=560, full=120 * num_threads)
        per_line = machine.address_map.words_per_line

        flow_tree = TxRedBlackTree(machine, skew_safe=True)
        flow_tree.populate(range(flows))
        # one line per (flow, fragment) slot: inserts of different
        # fragments never share a line.  Most fragments have already
        # arrived (the steady state of a reassembly pipeline), so flow
        # completions — and their tree removals with rebalancing — happen
        # regularly and keep the flow map churning.
        init_rng = rng.split("init")
        initial = [0] * (flows * FRAGMENTS_PER_FLOW * per_line)
        for flow in range(flows):
            for fragment in range(FRAGMENTS_PER_FLOW):
                if init_rng.random() < 0.75:
                    initial[(flow * FRAGMENTS_PER_FLOW + fragment)
                            * per_line] = 1
        slots = TxArray(machine, flows * FRAGMENTS_PER_FLOW * per_line)
        slots.populate(initial)

        def slot_index(flow: int, fragment: int) -> int:
            return (flow * FRAGMENTS_PER_FLOW + fragment) * per_line

        def insert_fragment(flow: int, fragment: int, payload: int):
            def body():
                known = yield from flow_tree.lookup(flow)
                if known is None:
                    yield from flow_tree.insert(flow)
                existing = yield Read(slots.addr(slot_index(flow, fragment)),
                                      "array.get")
                if existing == 0:
                    yield Write(slots.addr(slot_index(flow, fragment)),
                                payload + 1, "array.set")
                yield Compute(3)
            return body

        def complete_flow(flow: int):
            def body():
                present = 0
                for fragment in range(FRAGMENTS_PER_FLOW):
                    value = yield Read(slots.addr(slot_index(flow, fragment)),
                                       "array.get")
                    if value:
                        present += 1
                if present < FRAGMENTS_PER_FLOW:
                    return False
                for fragment in range(FRAGMENTS_PER_FLOW):
                    yield Write(slots.addr(slot_index(flow, fragment)),
                                0, "array.set")
                yield from flow_tree.remove(flow)
                yield Compute(40)  # signature detector on the payload
                return True
            return body

        def status(flow: int):
            def body():
                known = yield from flow_tree.lookup(flow)
                count = 0
                for fragment in range(FRAGMENTS_PER_FLOW):
                    value = yield Read(slots.addr(slot_index(flow, fragment)),
                                       "array.get")
                    if value:
                        count += 1
                yield Compute(2)
                return (known is not None, count)
            return body

        programs: List[List[TransactionSpec]] = []
        for tid, count in enumerate(partition(total_txns, num_threads)):
            thread_rng = rng.split("thread", tid)
            specs = []
            for _ in range(count):
                flow = thread_rng.randrange(flows)
                roll = thread_rng.random()
                if roll < 0.70:
                    specs.append(TransactionSpec(
                        insert_fragment(
                            flow,
                            thread_rng.randrange(FRAGMENTS_PER_FLOW),
                            thread_rng.randrange(1000)),
                        "intruder.insert"))
                elif roll < 0.90:
                    specs.append(TransactionSpec(
                        complete_flow(flow), "intruder.complete"))
                else:
                    specs.append(TransactionSpec(
                        status(flow), "intruder.status"))
            programs.append(specs)

        def verify() -> bool:
            keys = flow_tree.keys_inorder()
            return flow_tree.check_invariants() and keys == sorted(set(keys))

        return WorkloadInstance(machine, programs, verify)
