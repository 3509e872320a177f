"""Labyrinth: path routing in a 3D grid (Lee's algorithm, CAD routing).

STAMP's labyrinth routes point-to-point paths through a shared 3D grid:
each transaction reads a region of the grid, computes a shortest path
(long non-memory work), and claims the path's cells.  Conflicts occur only
when two concurrently routed paths cross — rare on a sparsely used grid —
so the paper finds *low abort rates for all systems* and similar speedups;
the TM policy is not the bottleneck.  This kernel reproduces that shape:
long transactions, big read sets (route corridor), small write sets (the
claimed path), low collision probability.

Scaling: grid volume and path counts shrink by profile; the corridor-
read/path-write structure is preserved.
"""

from __future__ import annotations

from typing import List, Tuple

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


@REGISTRY.register
class LabyrinthBench(Workload):
    """Grid path routing with long transactions and sparse conflicts."""

    name = "labyrinth"
    description = "3D grid routing; corridor reads + path-cell writes"

    def setup(self, machine: Machine, num_threads: int,
              rng: SplitRandom) -> WorkloadInstance:
        side = self._pick(test=12, quick=20, full=48)
        depth = 3
        total_txns = self._pick(test=48, quick=120, full=32 * num_threads)
        cells = side * side * depth
        grid = TxArray(machine, cells)
        grid.populate([0] * cells)

        def index(x: int, y: int, z: int) -> int:
            return (z * side + y) * side + x

        def manhattan_path(src: Tuple[int, int], dst: Tuple[int, int],
                           layer: int) -> List[int]:
            (x0, y0), (x1, y1) = src, dst
            path = []
            step = 1 if x1 >= x0 else -1
            for x in range(x0, x1 + step, step):
                path.append(index(x, y0, layer))
            step = 1 if y1 >= y0 else -1
            for y in range(y0 + step, y1 + step, step) if y0 != y1 else []:
                path.append(index(x1, y, layer))
            return path

        def route(src, dst, layer):
            def body():
                path = manhattan_path(src, dst, layer)
                # expansion phase: read the corridor around the path
                blocked = False
                for cell in path:
                    value = yield Read(grid.addr(cell), "array.get")
                    if value:
                        blocked = True
                yield Compute(60)  # Lee expansion / backtracking
                if blocked:
                    return False
                for cell in path:
                    yield Write(grid.addr(cell), 1, "array.set")
                return True
            return body

        programs: List[List[TransactionSpec]] = []
        for tid, count in enumerate(partition(total_txns, num_threads)):
            thread_rng = rng.split("thread", tid)
            specs = []
            for _ in range(count):
                src = (thread_rng.randrange(side), thread_rng.randrange(side))
                dst = (thread_rng.randrange(side), thread_rng.randrange(side))
                layer = thread_rng.randrange(depth)
                specs.append(TransactionSpec(
                    route(src, dst, layer), "labyrinth.route"))
            programs.append(specs)
        return WorkloadInstance(machine, programs)
