"""Genome: gene sequencing by segment deduplication and overlap matching.

STAMP's genome assembles a genome from segments in phases: (1) hash-set
deduplication of segments, (2) overlap matching that links unique segments
into chains.  Transactionally that is: *insert-if-absent* traffic on a
shared hash set (short transactions, writes to bucket chains) plus
*matching* transactions that read runs of the shared structures and write
single links.

Conflict shape reproduced: matchers' long read sets overlap dedup writers'
bucket writes → abundant read-write conflicts under 2PL; true write-write
collisions are rare (distinct segments, distinct chain slots).  Both CS
and SI recover most of them — the paper reports the two "perform almost on
par" here with a ~3.8x speedup over 2PL.

Scaling: segment counts shrink by profile; mix ratios (60% dedup / 40%
match) and the reads-per-match footprint are preserved.
"""

from __future__ import annotations

from typing import List

from repro.common.rng import SplitRandom
from repro.sim.engine import TransactionSpec
from repro.sim.machine import Machine
from repro.structures import TxArray, TxHashMap
from repro.tm.ops import Compute, Read, Write
from repro.workloads.base import (
    REGISTRY,
    Workload,
    WorkloadInstance,
    partition,
)


@REGISTRY.register
class GenomeBench(Workload):
    """Segment dedup + overlap matching (STAMP genome kernel)."""

    name = "genome"
    description = "hash-set dedup inserts + long read-mostly overlap matching"

    def setup(self, machine: Machine, num_threads: int,
              rng: SplitRandom) -> WorkloadInstance:
        segments = self._pick(test=128, quick=384, full=4096)
        total_txns = self._pick(test=160, quick=480, full=100 * num_threads)
        match_reads = self._pick(test=12, quick=24, full=48)
        buckets = max(32, segments // 2)
        per_line = machine.address_map.words_per_line

        dedup = TxHashMap(machine, buckets=buckets)
        # one line per chain cell: different segments' link writes must not
        # falsely collide (the real genome's segment records are padded
        # structs, not packed words)
        chain = TxArray(machine, segments * per_line)
        chain.populate([0] * (segments * per_line))
        seg_rng = rng.split("segments")
        segment_pool = [seg_rng.randrange(segments * 4)
                        for _ in range(segments)]

        def dedup_insert(seg: int):
            def body():
                present = yield from dedup.contains(seg)
                if not present:
                    yield from dedup.put(seg, 1)
            return body

        def match(start: int, link: int):
            def body():
                # scan a window of the chain looking for the best overlap
                # (long read set), then record the chosen successor in THIS
                # segment's own link cell (single, private write) — each
                # segment links its own successor, as in genome's phase 3
                best = start % segments
                for i in range(match_reads):
                    cell = (start + i) % segments
                    value = yield Read(chain.addr(cell * per_line),
                                       "array.get")
                    seg = segment_pool[cell]
                    hit = yield from dedup.contains(seg)
                    if hit and value == 0:
                        best = cell
                yield Compute(10)
                yield Write(chain.addr(link * per_line), best + 1, "array.set")
            return body

        programs: List[List[TransactionSpec]] = []
        for tid, count in enumerate(partition(total_txns, num_threads)):
            thread_rng = rng.split("thread", tid)
            specs = []
            for _ in range(count):
                if thread_rng.random() < 0.60:
                    seg = thread_rng.choice(segment_pool)
                    specs.append(TransactionSpec(
                        dedup_insert(seg), "genome.dedup"))
                else:
                    specs.append(TransactionSpec(
                        match(thread_rng.randrange(segments),
                              thread_rng.randrange(segments)),
                        "genome.match"))
            programs.append(specs)
        return WorkloadInstance(machine, programs)
