"""Bayes: Bayesian-network structure learning.

STAMP's bayes learns network structure from observed data: few, long,
expensive transactions that evaluate candidate edge changes — each reads a
node's adjacency row and the local scores of many neighbours, computes a
score delta (long non-memory work), and commits a small structural change
(toggle one edge, update two score words).  A quarter of the transactions
are pure score *evaluations* (read-only).  The paper: "Bayes exhibits few,
but long and costly transactions with a read-only transaction ratio of
25% enabling SI-TM to reduce aborts by 20x over 2PL", and SI scales to
~10x at 32 threads while CS and 2PL stall beyond 8.

Scaling: node counts and transaction totals shrink by profile; the long-
read/tiny-write shape and the 25% read-only ratio are preserved.
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


@REGISTRY.register
class BayesBench(Workload):
    """Structure learning: long scoring reads, tiny structural writes."""

    name = "bayes"
    description = "few long transactions; 25% read-only score evaluations"

    def setup(self, machine: Machine, num_threads: int,
              rng: SplitRandom) -> WorkloadInstance:
        nodes = self._pick(test=24, quick=48, full=128)
        total_txns = self._pick(test=64, quick=160, full=24 * num_threads)
        per_line = machine.address_map.words_per_line

        # adjacency matrix (line-aligned rows) + per-node score records
        # (one line each — real node structs do not share cache lines,
        # and packing them would manufacture false write-write conflicts)
        row = ((nodes + per_line - 1) // per_line) * per_line
        adjacency = TxArray(machine, nodes * row)
        adjacency.populate([0] * (nodes * row))
        scores = TxArray(machine, nodes * per_line)
        scores.populate([100 if i % per_line == 0 else 0
                         for i in range(nodes * per_line)])

        def learn_step(node: int, peer: int, accept: bool):
            def body():
                # read the node's full adjacency row + neighbour scores
                degree = 0
                for other in range(nodes):
                    edge = yield Read(adjacency.addr(node * row + other),
                                      "array.get")
                    if edge:
                        degree += 1
                        yield Read(scores.addr(other * per_line), "array.get")
                yield Compute(120)  # score the candidate family
                if not accept:
                    # most candidate changes score worse and are rejected:
                    # the transaction stays read-only (STAMP bayes commits
                    # structural changes rarely relative to evaluations)
                    return degree
                # toggle the candidate edge and update this node's family
                # score; the peer's score is unaffected (the family that
                # changed is the node's), so learns on different nodes
                # have disjoint write sets
                current = yield Read(adjacency.addr(node * row + peer),
                                     "array.get")
                yield Write(adjacency.addr(node * row + peer),
                            0 if current else 1, "array.set")
                node_score = yield Read(scores.addr(node * per_line),
                                        "array.get")
                yield Write(scores.addr(node * per_line),
                            node_score + (1 if current else -1), "array.set")
                return degree
            return body

        def evaluate(node: int):
            def body():
                # read-only: score the node's current family
                total = yield Read(scores.addr(node * per_line), "array.get")
                for other in range(nodes):
                    edge = yield Read(adjacency.addr(node * row + other),
                                      "array.get")
                    if edge:
                        peer_score = yield Read(scores.addr(other * per_line),
                                                "array.get")
                        total += peer_score
                yield Compute(80)
                return total
            return body

        programs: List[List[TransactionSpec]] = []
        for tid, count in enumerate(partition(total_txns, num_threads)):
            thread_rng = rng.split("thread", tid)
            specs = []
            for _ in range(count):
                node = thread_rng.randrange(nodes)
                if thread_rng.random() < 0.25:
                    specs.append(TransactionSpec(
                        evaluate(node), "bayes.evaluate"))
                else:
                    peer = (node + 1 + thread_rng.randrange(nodes - 1)) % nodes
                    accept = thread_rng.random() < 0.35
                    specs.append(TransactionSpec(
                        learn_step(node, peer, accept), "bayes.learn"))
            programs.append(specs)
        return WorkloadInstance(machine, programs)
