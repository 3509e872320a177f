"""Pinned micro-benchmarks: host-side hot-loop throughput.

Simulated results are deterministic, pinned by the golden digests
(``tests/golden.py``), and cannot move when only the host cost of the
hot loop changes.  This module measures the other axis: engine steps
per wall-clock second on this machine, on three advisory grids:

* **dispatch** (:func:`run_dispatch_micro`) — one "driver" thread
  issuing long runs of unit-cost :class:`~repro.tm.ops.Compute` ops
  among 63 threads issuing few, very expensive ones, each writing
  private lines: the shape ``Engine.run``'s burst scheduling
  accelerates, with zero aborts.  No grid the repo runs looks like it;
  ``docs/performance.md`` records why a loop that doubled it was not
  kept.
* **fullstack** (:func:`run_fullstack_micro`) — 32 threads of
  mostly-disjoint read/write/compute transactions on one shared MVM
  array under SI-TM: every step crosses the TM, cache and MVM paths.
* **escalation** (:func:`run_escalation_micro`) — list/2PL at 16
  threads, the quick profile and :data:`~repro.perf.bench.
  CAPACITY_CONFIG`: all but two of the 320 commits escalate to the
  golden token, and the fifteen waiters' polls are charged in closed
  form (``docs/performance.md``, "Parked begin waits").

``engine_golden.json``'s ``micro/*`` digests pin the dispatch and
fullstack programs.  No digest covers the escalation cell, so that grid
asserts :data:`ESCALATION_EXPECTED`: a dropped or doubled poll moves
its step count.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional

from repro.common.config import SimConfig
from repro.common.rng import SplitRandom, derive_seed
from repro.perf.bench import CAPACITY_CONFIG
from repro.sim.engine import Engine, TransactionSpec
from repro.sim.machine import Machine
from repro.tm import SYSTEMS
from repro.tm.ops import Compute, Read, Write
from repro.workloads import REGISTRY

__all__ = ["ESCALATION_EXPECTED", "run_dispatch_micro",
           "run_fullstack_micro", "run_escalation_micro"]

# pinned shapes — changing any of these invalidates every recorded
# steps/s comparison

#: full-stack grid: threads × txns × ops over a shared MVM array
MICRO_THREADS = 32
MICRO_TXNS_PER_THREAD = 48
MICRO_OPS_PER_TXN = 12
#: slots in the shared MVM array; threads touch mostly-private stripes
#: so aborts stay near zero and per-op cost dominates
MICRO_SLOTS_PER_THREAD = 8

#: dispatch grid: one fast driver thread among 63 slow ones
DISPATCH_THREADS = 64
DISPATCH_DRIVER_TXNS = 80
#: unit-cost Compute ops per driver transaction — the burst length
DISPATCH_DRIVER_COMPUTES = 1000
#: simulated cycles per slow-thread Compute: while a slow thread burns
#: this many cycles in one step, the driver dispatches this many steps
DISPATCH_SLOW_COST = 8000
DISPATCH_SLOW_OPS = 4
DISPATCH_SLOW_TXNS = 3

#: escalation grid: list/2PL, quick profile, harness seed 1, under
#: ``CAPACITY_CONFIG`` — a cell of perfbench's ``sim_observed``
ESCALATION_THREADS = 16
#: what that cell must reproduce exactly; ``steps`` counts the polls of
#: parked waiters along with the steps that ran
ESCALATION_EXPECTED: Dict[str, int] = {
    "commits": 320, "aborts": 57, "escalations": 318, "steps": 1033941,
}


def _machine(threads: int, config: Optional[SimConfig] = None) -> Machine:
    config = config or SimConfig()
    if threads > config.machine.cores:
        config = config.replace(
            machine=dataclasses.replace(config.machine, cores=threads))
    return Machine(config)


def _fullstack_programs(base: int, threads: int, txns: int,
                        ops: int) -> List[List[TransactionSpec]]:
    """Per-thread spec lists: disjoint read/write/compute stripes."""
    programs: List[List[TransactionSpec]] = []
    for tid in range(threads):
        stripe = base + tid * MICRO_SLOTS_PER_THREAD

        def body(stripe: int = stripe, ops: int = ops):
            total = 0
            for i in range(ops - 3):
                total += yield Read(stripe + i % MICRO_SLOTS_PER_THREAD,
                                    site="micro.read")
            yield Compute(2)
            yield Write(stripe, total, site="micro.write")
            yield Write(stripe + 1, total + 1, site="micro.write2")

        programs.append([TransactionSpec(body, "micro")
                         for _ in range(txns)])
    return programs


def _dispatch_programs(machine: Machine, base: int, threads: int,
                       driver_txns: int, driver_computes: int,
                       slow_cost: int, slow_ops: int,
                       slow_txns: int) -> List[List[TransactionSpec]]:
    """Driver thread 0 plus ``threads - 1`` slow compute threads.

    The driver's compute ops are preallocated once and replayed via
    ``yield from`` — the engine never mutates op descriptors, so
    sharing instances across yields and transactions is safe and keeps
    the generator resumption as cheap as a tuple iterator.  Each
    thread writes one private cache line per transaction (lines, not
    just words, are disjoint) so the grid commits everything and
    aborts nothing.
    """
    wpl = machine.address_map.words_per_line
    fast_ops = tuple(Compute(1) for _ in range(driver_computes))
    slow_op = Compute(slow_cost)
    programs: List[List[TransactionSpec]] = []

    def driver_body():
        yield from fast_ops
        yield Write(base, 1, site="micro.driver")

    programs.append([TransactionSpec(driver_body, "driver")
                     for _ in range(driver_txns)])
    for tid in range(1, threads):
        def slow_body(tid: int = tid):
            for _ in range(slow_ops):
                yield slow_op
            yield Write(base + tid * wpl, tid, site="micro.slow")

        programs.append([TransactionSpec(slow_body, "slow")
                         for _ in range(slow_txns)])
    return programs


def _measure(grid: str, factory, reps: int,
             expected: Optional[Dict[str, int]] = None,
             **extra) -> Dict[str, float]:
    """Time ``reps`` cold runs of ``factory()``'s engine; the *minimum*
    wall clock wins (the stable estimator of the true cost floor).

    ``expected`` pins any of commits / aborts / escalations / steps.
    """
    best = None
    for _ in range(max(1, reps)):
        engine = factory()
        started = time.perf_counter()
        stats = engine.run()
        elapsed = time.perf_counter() - started
        steps = engine.steps_taken
        if expected:
            counts = {"commits": stats.total_commits,
                      "aborts": stats.total_aborts,
                      "escalations": stats.escalations, "steps": steps}
            observed = {key: counts[key] for key in expected}
            if observed != expected:
                raise AssertionError(
                    f"micro-benchmark grid must reproduce {expected}, "
                    f"got {observed}")
        best = elapsed if best is None else min(best, elapsed)
    return dict(extra, grid=grid, system_steps=steps,
                wall_s=round(best, 6),
                steps_per_s=round(steps / best, 1) if best else 0.0)


def run_dispatch_micro(reps: int = 3) -> Dict[str, float]:
    """Time the skewed dispatch grid; return the measurement dict."""
    def factory() -> Engine:
        machine = _machine(DISPATCH_THREADS)
        wpl = machine.address_map.words_per_line
        base = machine.mvmalloc(DISPATCH_THREADS * wpl)
        programs = _dispatch_programs(
            machine, base, DISPATCH_THREADS, DISPATCH_DRIVER_TXNS,
            DISPATCH_DRIVER_COMPUTES, DISPATCH_SLOW_COST,
            DISPATCH_SLOW_OPS, DISPATCH_SLOW_TXNS)
        return Engine(SYSTEMS["SI-TM"](machine, SplitRandom(7)), programs)

    return _measure("dispatch", factory, reps, threads=DISPATCH_THREADS)


def run_fullstack_micro(reps: int = 3) -> Dict[str, float]:
    """Time the full-stack read/write grid; return the measurement dict."""
    def factory() -> Engine:
        machine = _machine(MICRO_THREADS)
        base = machine.mvmalloc(MICRO_THREADS * MICRO_SLOTS_PER_THREAD)
        programs = _fullstack_programs(base, MICRO_THREADS,
                                       MICRO_TXNS_PER_THREAD,
                                       MICRO_OPS_PER_TXN)
        return Engine(SYSTEMS["SI-TM"](machine, SplitRandom(7)), programs)

    return _measure("fullstack", factory, reps, threads=MICRO_THREADS)


def run_escalation_micro(reps: int = 3) -> Dict[str, float]:
    """Time the golden-token grid; return the measurement dict.

    Built the way ``harness.runner.run_once`` builds the cell, so the
    pinned counts are the harness's own.
    """
    def factory() -> Engine:
        machine = _machine(ESCALATION_THREADS, CAPACITY_CONFIG)
        rng = SplitRandom(derive_seed(1, "list", "2PL", ESCALATION_THREADS))
        instance = REGISTRY.create("list", profile="quick").setup(
            machine, ESCALATION_THREADS, rng.split("workload"))
        return Engine(SYSTEMS["2PL"](machine, rng.split("tm")),
                      instance.programs)

    return _measure("escalation", factory, reps, ESCALATION_EXPECTED,
                    threads=ESCALATION_THREADS)


def main() -> None:
    """CLI entry: run every grid and print one line each."""
    for result in (run_dispatch_micro(), run_fullstack_micro(),
                   run_escalation_micro()):
        print(f"{result['grid']}: {result['system_steps']} steps in "
              f"{result['wall_s']}s = {result['steps_per_s']:,.0f} "
              f"steps/s")


if __name__ == "__main__":
    main()
