"""Pinned micro-benchmarks: host-side hot-loop throughput.

The suite artifacts (:mod:`repro.perf.bench`) measure *simulated*
throughput, which is deterministic and cannot move when only the host
cost of the hot loop changes.  This module measures the other axis: how
many engine steps per wall-clock second the discrete-event loop
dispatches on this machine.  Three pinned grids cover three regimes:

* the **dispatch micro** (:func:`run_dispatch_micro`) — 64 simulated
  threads with deliberately skewed compute costs: one "driver" thread
  issues long runs of unit-cost :class:`~repro.tm.ops.Compute` ops
  while the other 63 threads issue few, very expensive ones.  The
  driver therefore stays the schedule minimum for hundreds of
  consecutive steps, which is exactly the shape ``Engine.run``'s
  burst scheduling accelerates (no heap traffic while a thread stays
  the minimum).  Writes land on per-thread private lines, so aborts
  are exactly zero and the measurement isolates engine dispatch from
  TM behaviour.  No grid the repo runs looks like this one (pure
  ``Compute``, no TM call), so the number is advisory and gates
  nothing; ``docs/performance.md`` records why a loop that doubled it
  was not kept.
* the **full-stack micro** (:func:`run_fullstack_micro`) — 32 threads
  of mostly-disjoint read/write/compute transactions over one shared
  MVM array under SI-TM with near-zero aborts.  Every step crosses the
  TM read/write path, cache timing and MVM snapshot reads, so this
  number moves with the whole stack, not just the engine loop.  It is
  recorded as *advisory* context next to the dispatch number.
* the **escalation micro** (:func:`run_escalation_micro`) — 16 threads
  of the list workload under 2PL and the ``capacity`` bench suite's
  config: an 8-line read set every transaction overflows, so all but
  two of the 320 commits go through golden-token escalation and at any
  moment one thread runs while fifteen wait at a gated begin.  The
  waiters' polls are charged in closed form (``docs/performance.md``,
  "Parked begin waits"), so steps/s here is mostly steps nobody
  executed; the grid also pins the exact step count, which is where a
  dropped or doubled poll would show.  Advisory like the others.

Every grid asserts its expected counts, so a refactor that changed
observable behaviour fails loudly instead of producing a silently
incomparable number.  ``min``-of-N wall-clock absorbs scheduler noise.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional

from repro.common.config import SimConfig
from repro.common.rng import SplitRandom, derive_seed
from repro.perf.bench import SUITES
from repro.sim.engine import Engine, TransactionSpec
from repro.sim.machine import Machine
from repro.tm import SYSTEMS
from repro.tm.ops import Compute, Read, Write
from repro.workloads import REGISTRY

__all__ = [
    "MICRO_THREADS", "MICRO_TXNS_PER_THREAD", "MICRO_OPS_PER_TXN",
    "MICRO_SLOTS_PER_THREAD",
    "DISPATCH_THREADS", "DISPATCH_DRIVER_TXNS",
    "DISPATCH_DRIVER_COMPUTES", "DISPATCH_SLOW_COST",
    "DISPATCH_SLOW_OPS", "DISPATCH_SLOW_TXNS",
    "ESCALATION_THREADS", "ESCALATION_EXPECTED",
    "PRE_REFACTOR_BASELINE",
    "run_dispatch_micro", "run_fullstack_micro", "run_escalation_micro",
]

# ---------------------------------------------------------------------------
# pinned shapes — changing any of these invalidates every recorded
# steps/s comparison, so extend by adding parameters to the run
# functions, not by editing the defaults

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
#: ``SUITES["capacity"].config`` — a cell of perfbench's ``sim_observed``
ESCALATION_THREADS = 16
#: what that cell must reproduce exactly; ``steps`` counts the polls of
#: parked waiters along with the steps that ran
ESCALATION_EXPECTED: Dict[str, int] = {
    "commits": 320, "aborts": 57, "escalations": 318, "steps": 1033941,
}

#: steps/s measured with these exact grids on the commit *before*
#: ISSUE 6 (no burst scheduling, heap push + pop per step), via a
#: pristine worktree of that revision on the development host.
#: Host-specific — meaningful only relative to numbers measured on
#: the same host; ``BENCH_flat_loop.json``'s advisory section records
#: the ratio ISSUE 6's since-deleted second loop reached against it.
PRE_REFACTOR_BASELINE: Dict[str, float] = {
    "dispatch": 732981.2,
    "fullstack": 285034.8,
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


def _timed_runs(factory, reps: int, expected: Dict[str, int]):
    """min-of-``reps`` cold runs; returns (steps, best_wall_s).

    ``expected`` pins any of commits / aborts / escalations / steps.
    """
    steps = 0
    best = None
    for _ in range(max(1, reps)):
        engine = factory()
        started = time.perf_counter()
        stats = engine.run()
        elapsed = time.perf_counter() - started
        steps = engine.steps_taken
        counts = {"commits": stats.total_commits,
                  "aborts": stats.total_aborts,
                  "escalations": stats.escalations, "steps": steps}
        observed = {key: counts[key] for key in expected}
        if observed != expected:
            raise AssertionError(
                f"micro-benchmark grid must reproduce {expected}, "
                f"got {observed}")
        best = elapsed if best is None else min(best, elapsed)
    return steps, best


def _result(name: str, steps: int, wall: float,
            baseline: Optional[float], extra: Dict[str, float],
            ) -> Dict[str, float]:
    result: Dict[str, float] = dict(extra)
    result["grid"] = name
    result["system_steps"] = steps
    result["wall_s"] = round(wall, 6)
    result["steps_per_s"] = round(steps / wall, 1) if wall else 0.0
    if baseline:
        result["baseline_steps_per_s"] = baseline
        result["speedup"] = round(result["steps_per_s"] / baseline, 2)
    return result


def run_dispatch_micro(threads: int = DISPATCH_THREADS,
                       driver_txns: int = DISPATCH_DRIVER_TXNS,
                       driver_computes: int = DISPATCH_DRIVER_COMPUTES,
                       reps: int = 3,
                       system: str = "SI-TM",
                       baseline_steps_per_s: Optional[float] = None,
                       ) -> Dict[str, float]:
    """Time the skewed dispatch grid; return the measurement dict.

    ``reps`` full cold-machine runs are timed and the *minimum* wall
    clock wins (the stable estimator of the true cost floor).  When
    ``baseline_steps_per_s`` is given — e.g.
    ``PRE_REFACTOR_BASELINE["dispatch"]`` on the host that recorded it
    — the result includes the achieved ``speedup`` against it.
    """
    def factory() -> Engine:
        machine = _machine(threads)
        wpl = machine.address_map.words_per_line
        base = machine.mvmalloc(threads * wpl)
        programs = _dispatch_programs(
            machine, base, threads, driver_txns, driver_computes,
            DISPATCH_SLOW_COST, DISPATCH_SLOW_OPS, DISPATCH_SLOW_TXNS)
        return Engine(SYSTEMS[system](machine, SplitRandom(7)), programs)

    commits = driver_txns + (threads - 1) * DISPATCH_SLOW_TXNS
    steps, best = _timed_runs(factory, reps,
                              {"commits": commits, "aborts": 0})
    return _result("dispatch", steps, best, baseline_steps_per_s, {
        "threads": threads,
        "driver_txns": driver_txns,
        "driver_computes": driver_computes,
    })


def run_fullstack_micro(threads: int = MICRO_THREADS,
                        txns: int = MICRO_TXNS_PER_THREAD,
                        ops: int = MICRO_OPS_PER_TXN,
                        reps: int = 3,
                        system: str = "SI-TM",
                        baseline_steps_per_s: Optional[float] = None,
                        ) -> Dict[str, float]:
    """Time the full-stack read/write grid; return the measurement dict."""
    def factory() -> Engine:
        machine = _machine(threads)
        base = machine.mvmalloc(threads * MICRO_SLOTS_PER_THREAD)
        programs = _fullstack_programs(base, threads, txns, ops)
        return Engine(SYSTEMS[system](machine, SplitRandom(7)), programs)

    steps, best = _timed_runs(factory, reps,
                              {"commits": threads * txns, "aborts": 0})
    return _result("fullstack", steps, best, baseline_steps_per_s, {
        "threads": threads,
        "txns_per_thread": txns,
        "ops_per_txn": ops,
    })


def run_escalation_micro(reps: int = 3) -> Dict[str, float]:
    """Time the golden-token grid; return the measurement dict.

    Built the way ``harness.runner.run_once`` builds the cell, so the
    pinned counts are the harness's own.
    """
    threads = ESCALATION_THREADS

    def factory() -> Engine:
        machine = _machine(threads, SUITES["capacity"].config)
        rng = SplitRandom(derive_seed(1, "list", "2PL", threads))
        instance = REGISTRY.create("list", profile="quick").setup(
            machine, threads, rng.split("workload"))
        return Engine(SYSTEMS["2PL"](machine, rng.split("tm")),
                      instance.programs)

    steps, best = _timed_runs(factory, reps, ESCALATION_EXPECTED)
    return _result("escalation", steps, best, None, {
        "threads": threads,
        "escalations": ESCALATION_EXPECTED["escalations"],
    })


def main() -> None:
    """CLI entry: run every grid and print one line each."""
    for result in (run_dispatch_micro(), run_fullstack_micro(),
                   run_escalation_micro()):
        print(f"{result['grid']}: {result['system_steps']} steps in "
              f"{result['wall_s']}s = {result['steps_per_s']:,.0f} "
              f"steps/s")


if __name__ == "__main__":
    main()
