"""Yada: Delaunay mesh refinement (the eighth STAMP application).

Not part of the paper's evaluation (its Figure 7/8 cover seven STAMP
applications), included for STAMP-suite completeness.  Yada repeatedly
picks a "bad" triangle, gathers the *cavity* of neighbouring triangles
around it (reads), re-triangulates the cavity (long compute) and replaces
the cavity's triangles (writes), possibly producing new bad triangles.

Kernel mapping: the mesh is a line-aligned array of triangle records
(quality word + three neighbour links); a work-list array holds bad
triangle ids.  A refinement transaction reads its triangle's record, walks
the neighbour links collecting the cavity, computes, then rewrites the
cavity records and clears its work-list slot.  Cavities of nearby bad
triangles overlap — genuine read-write *and* write-write conflicts whose
frequency falls with mesh size, which is why yada sits between vacation
(read-heavy) and kmeans (write-hot) in TM studies.
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

#: per-triangle record: [quality, n0, n1, n2] in one line
NEIGHBOURS = 3
CAVITY_DEPTH = 2


@REGISTRY.register
class YadaBench(Workload):
    """Cavity-based mesh refinement over a shared triangle store."""

    name = "yada"
    description = "Delaunay refinement: cavity reads + re-triangulation writes"

    def setup(self, machine: Machine, num_threads: int,
              rng: SplitRandom) -> WorkloadInstance:
        triangles = self._pick(test=96, quick=384, full=4096)
        triangles = max(32, int(triangles * self._contended(4, 1, 0.25)))
        total_txns = self._pick(test=96, quick=320, full=60 * num_threads)
        per_line = machine.address_map.words_per_line

        mesh = TxArray(machine, triangles * per_line)
        init_rng = rng.split("init")
        initial = [0] * (triangles * per_line)
        for tri in range(triangles):
            base = tri * per_line
            initial[base] = init_rng.randrange(100)  # quality
            for n in range(NEIGHBOURS):
                initial[base + 1 + n] = init_rng.randrange(triangles)
        mesh.populate(initial)

        def refine(seed_triangle: int):
            def body():
                # gather the cavity by walking neighbour links
                cavity = [seed_triangle]
                frontier = [seed_triangle]
                for _ in range(CAVITY_DEPTH):
                    next_frontier = []
                    for tri in frontier:
                        base = tri * per_line
                        quality = yield Read(mesh.addr(base), "array.get")
                        for n in range(NEIGHBOURS):
                            neighbour = yield Read(mesh.addr(base + 1 + n),
                                                   "array.get")
                            if quality % 2 == 0 and neighbour not in cavity:
                                cavity.append(neighbour)
                                next_frontier.append(neighbour)
                    frontier = next_frontier
                yield Compute(50 + 10 * len(cavity))  # re-triangulate
                # replace the cavity: refresh qualities, relink to the seed
                for tri in cavity:
                    base = tri * per_line
                    quality = yield Read(mesh.addr(base), "array.get")
                    yield Write(mesh.addr(base),
                                (quality * 7 + 13) % 100, "array.set")
                    yield Write(mesh.addr(base + 1),
                                seed_triangle, "array.set")
                return len(cavity)
            return body

        programs: List[List[TransactionSpec]] = []
        for tid, count in enumerate(partition(total_txns, num_threads)):
            thread_rng = rng.split("thread", tid)
            programs.append([
                TransactionSpec(refine(thread_rng.randrange(triangles)),
                                "yada.refine")
                for _ in range(count)])

        def verify() -> bool:
            data = mesh.snapshot()
            return all(0 <= data[tri * per_line] < 100
                       for tri in range(triangles))

        return WorkloadInstance(machine, programs, verify)
