"""Vacation: online travel-reservation OLTP (STAMP vacation).

Three reservation tables (flights, rooms, cars — here hash maps from item
id to availability) plus a customer table.  The dominant transaction is
*make reservation*: query several candidate items per resource type (long
read phase), pick the cheapest available, decrement its availability and
record it on the customer (short write phase).  Long read-heavy
transactions with small write sets are SI-TM's best case among the STAMP
applications: the paper reports **under 1% of 2PL's aborts** and linear
scaling to 32 threads, with CS falling off beyond 8 threads.

Mix (after STAMP's standard configuration): 80% reservations, 10% table
updates (add/restock items), 10% customer deletions (release holdings).

Scaling: table sizes and query fan-out shrink by profile; the long-read/
short-write ratio is preserved.
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

#: resource types: flight, room, car
TYPES = 3


@REGISTRY.register
class VacationBench(Workload):
    """Reservation OLTP: long read-mostly transactions, tiny write sets."""

    name = "vacation"
    description = "travel booking: many queries per txn, few availability updates"

    def setup(self, machine: Machine, num_threads: int,
              rng: SplitRandom) -> WorkloadInstance:
        items = self._pick(test=64, quick=192, full=2048)     # per type
        customers = self._pick(test=32, quick=96, full=1024)
        queries = self._pick(test=6, quick=10, full=16)       # per type
        queries = max(2, int(queries * self._contended(0.5, 1, 2)))
        total_txns = self._pick(test=128, quick=400, full=120 * num_threads)

        tables = [TxHashMap(machine, buckets=max(16, items // 4))
                  for _ in range(TYPES)]
        init_rng = rng.split("init")
        for table in tables:
            table.populate((i, 1 + init_rng.randrange(5))
                           for i in range(items))
        per_line = machine.address_map.words_per_line
        holdings = TxArray(machine, customers * per_line)
        holdings.populate([0] * (customers * per_line))

        def reserve(customer: int, candidates):
            def body():
                booked = 0
                for type_idx in range(TYPES):
                    best = None
                    for item in candidates[type_idx]:
                        avail = yield from tables[type_idx].get(item)
                        if avail and avail > 0 and best is None:
                            best = (item, avail)
                    if best is not None:
                        item, avail = best
                        yield from tables[type_idx].put(item, avail - 1)
                        booked += 1
                yield Compute(5)
                if booked:
                    held = yield Read(holdings.addr(customer * per_line),
                                      "array.get")
                    yield Write(holdings.addr(customer * per_line),
                                held + booked, "array.set")
            return body

        def update_tables(type_idx: int, item: int, delta: int):
            def body():
                avail = yield from tables[type_idx].get(item)
                current = avail or 0
                yield from tables[type_idx].put(item, max(0, current + delta))
            return body

        def delete_customer(customer: int):
            def body():
                held = yield Read(holdings.addr(customer * per_line),
                                  "array.get")
                if held:
                    yield Write(holdings.addr(customer * per_line),
                                0, "array.set")
                yield Compute(3)
                return held
            return body

        programs: List[List[TransactionSpec]] = []
        for tid, count in enumerate(partition(total_txns, num_threads)):
            thread_rng = rng.split("thread", tid)
            specs = []
            for _ in range(count):
                roll = thread_rng.random()
                if roll < 0.80:
                    customer = thread_rng.randrange(customers)
                    candidates = [thread_rng.sample(range(items), queries)
                                  for _ in range(TYPES)]
                    specs.append(TransactionSpec(
                        reserve(customer, candidates), "vacation.reserve"))
                elif roll < 0.90:
                    specs.append(TransactionSpec(
                        update_tables(thread_rng.randrange(TYPES),
                                      thread_rng.randrange(items),
                                      thread_rng.choice((-1, 1, 2))),
                        "vacation.update"))
                else:
                    specs.append(TransactionSpec(
                        delete_customer(thread_rng.randrange(customers)),
                        "vacation.delete"))
            programs.append(specs)

        def verify() -> bool:
            return all(v >= 0 for table in tables
                       for v in table.to_dict().values())

        return WorkloadInstance(machine, programs, verify)
