"""SSCA2: Scalable Synthetic Compact Applications graph kernels.

STAMP's ssca2 builds a large directed multigraph; the transactional kernel
adds edges: read a node's degree cursor, append into its adjacency slots,
bump the cursor.  Transactions are tiny and the graph is large, so two
threads rarely touch the same node — the paper measures **under 5% aborts
even for 2PL** and concludes "we do not expect high performance
improvements for SI-TM"; all systems behave alike.  This kernel keeps that
shape: small RMW transactions spread over a wide node space, plus a few
degree-query read-only transactions.

Scaling: node count and edge totals shrink by profile.
"""

from __future__ import annotations

from typing import List

from repro.common.rng import SplitRandom
from repro.sim.engine import TransactionSpec
from repro.sim.machine import Machine
from repro.structures import TxArray
from repro.tm.ops import Compute, Read, Write
from repro.workloads.base import (
    REGISTRY,
    Workload,
    WorkloadInstance,
    partition,
)

#: adjacency slots reserved per node
SLOTS = 8


@REGISTRY.register
class SSCA2Bench(Workload):
    """Parallel edge insertion into a wide adjacency structure."""

    name = "ssca2"
    description = "tiny edge-insert transactions over a large node space"

    def setup(self, machine: Machine, num_threads: int,
              rng: SplitRandom) -> WorkloadInstance:
        nodes = self._pick(test=256, quick=1024, full=8192)
        total_txns = self._pick(test=320, quick=960, full=200 * num_threads)
        # layout per node: [degree, slot0..slot(SLOTS-1)], line-aligned so
        # edge inserts on different nodes never falsely conflict
        per_line = machine.address_map.words_per_line
        stride = ((SLOTS + 1 + per_line - 1) // per_line) * per_line
        adjacency = TxArray(machine, nodes * stride)
        adjacency.populate([0] * (nodes * stride))

        def add_edge(src: int, dst: int):
            def body():
                base = src * stride
                degree = yield Read(adjacency.addr(base), "array.get")
                if degree < SLOTS:
                    yield Write(adjacency.addr(base + 1 + degree),
                                dst + 1, "array.set")
                    yield Write(adjacency.addr(base), degree + 1, "array.set")
                yield Compute(2)
            return body

        def degree_query(src: int):
            def body():
                degree = yield Read(adjacency.addr(src * stride), "array.get")
                yield Compute(1)
                return degree
            return body

        programs: List[List[TransactionSpec]] = []
        for tid, count in enumerate(partition(total_txns, num_threads)):
            thread_rng = rng.split("thread", tid)
            specs = []
            for _ in range(count):
                src = thread_rng.randrange(nodes)
                if thread_rng.random() < 0.90:
                    dst = thread_rng.randrange(nodes)
                    specs.append(TransactionSpec(
                        add_edge(src, dst), "ssca2.add_edge"))
                else:
                    specs.append(TransactionSpec(
                        degree_query(src), "ssca2.degree"))
            programs.append(specs)

        def verify() -> bool:
            data = adjacency.snapshot()
            return all(0 <= data[n * stride] <= SLOTS for n in range(nodes))

        return WorkloadInstance(machine, programs, verify)
