"""Golden digests for runs that escalate to the golden token.

``tests/corpus/engine_golden.json`` pins the engine on schedules where
no thread ever queues for the token.  This file pins the other regime:
whole workloads under configurations that starve transactions into
golden-token escalation, so most threads spend most of the run waiting
at a gated begin — the path the engine takes off the scheduler heap
(``docs/performance.md``, "Parked begin waits").  Every cell goes
through ``harness.runner.run_once`` exactly as a harness run does and
is reduced to a sha256 over

* the ``RunResult`` dict (statistics, ``fault_stats`` and — for the
  observed variant — ``metrics``, ``spans``, ``timeseries``, ``phases``),
* the engine's full ``RunStats`` dict, its step count and the final
  contents of every allocated heap line,
* the complete log of calls across the TM interface (``RecordingTM``),

stored in ``tests/corpus/escalation_golden.json`` together with two
small readable references the parked-wait tests compare against (the
per-window stall counts of one capacity cell and the ``on_stall``
calls of a scripted run).  The file was recorded from the commit its
header names, *before* the engine stopped stepping queued threads, so a
closed-form catch-up that dropped or misplaced one charged poll, one
hook call or one window would miss its digest.  ``tests/golden.py``
re-records it.
"""

from unittest import mock

import pytest

import repro.harness.runner as runner
from repro.common.config import SimConfig
from repro.common.rng import SplitRandom
from repro.faults import FaultPlan
from repro.perf.bench import CAPACITY_CONFIG
from repro.sim.engine import Engine, Tracer, TransactionSpec
from repro.sim.machine import Machine
from repro.sim.retry import RetryPolicy
from repro.tm import SYSTEMS
from repro.tm.api import TMSystem, Txn
from repro.tm.ops import Compute, Read, Write
from tests import golden as golden_corpus
from tests.sim.test_fastpath_differential import RecordingTM

GOLDEN = golden_corpus.Corpus(
    "escalation_golden.json",
    "sha256(json.dumps([RunResult.to_dict(), RunStats.to_dict(), steps, "
    "final heap lines, tm_log], separators=(',', ':')))")

TIGHT_RETRY = RetryPolicy(attempt_budget=3, stall_budget=4,
                          starvation_age_cycles=2000)
CONFIGS = {
    # read/write-set limits every list or vacation transaction overflows
    "capacity": CAPACITY_CONFIG,
    # begin-stall storm + spurious aborts under a tight policy
    "storm": SimConfig(
        faults=FaultPlan(seed=3, begin_stall_rate=0.6, begin_stall_burst=4,
                         abort_rate=0.3, abort_burst=2),
        retry=TIGHT_RETRY),
    # the default policy: escalation is the exception, not the rule
    "default": SimConfig(retry=RetryPolicy()),
}
WORKLOADS = ("list", "vacation")
THREADS = (8, 16)
ALL_SYSTEMS = sorted(SYSTEMS)
#: every backend terminates under every config at these sizes (the
#: watchdog trips perfbench/sim.py reports for HybridHTM need the
#: "quick" profile)
SEED = 1
PROFILE = "test"

CELLS = [(config, workload, system, threads, observed)
         for config in CONFIGS
         for workload in WORKLOADS
         for system in ALL_SYSTEMS
         for threads in THREADS
         for observed in (False, True)]


def cell_id(cell):
    config, workload, system, threads, observed = cell
    return (f"{config}/{workload}/{system}/{threads}/"
            f"{'observed' if observed else 'bare'}")


def _heap_lines(machine):
    """Final contents of every line either allocator handed out."""
    amap = machine.address_map
    lines = []
    for region in (machine.heap._conventional, machine.heap._mvm):
        if region._next == region._base:
            continue
        for line in range(amap.line_of(region._base),
                          amap.line_of(region._next - 1) + 1):
            lines.append(list(machine.line_data(line)))
    return lines


def run_cell(cell):
    """One ``run_once`` with the TM interface logged and the engine kept."""
    config, workload, system, threads, observed = cell
    log = []
    engines = []

    def recording(cls):
        return lambda machine, rng: RecordingTM(cls(machine, rng), log)

    def keep_engine(*args, **kwargs):
        engines.append(Engine(*args, **kwargs))
        return engines[-1]

    with mock.patch.object(runner, "SYSTEMS",
                           {name: recording(cls)
                            for name, cls in SYSTEMS.items()}), \
            mock.patch.object(runner, "Engine", keep_engine):
        result = runner.run_once(workload, system, threads, SEED, PROFILE,
                                 CONFIGS[config], telemetry=observed,
                                 profiling=observed)
    (engine,) = engines
    return result, engine, log


def _digest(result, engine, log):
    return golden_corpus.sha256([result.to_dict(), engine.stats.to_dict(),
                                 engine.steps_taken,
                                 _heap_lines(engine.machine), log])


# --------------------------------------------------------------------
# readable references for tests/sim/test_parked_begin.py
# --------------------------------------------------------------------

#: the cell whose per-window stall counts are stored in the clear
WINDOW_CELL = ("capacity", "list", "2PL", 16, True)


def stall_windows(timeseries):
    """[window, begin_stalls, stall_cycles] of every window with a stall."""
    return [[row["window"], row["begin_stalls"], row["stall_cycles"]]
            for row in timeseries["windows"] if row["begin_stalls"]]


class StallLog(Tracer):
    """Records (clock seen through the engine, cycles) per begin stall."""

    def __init__(self):
        self.calls = {}
        self._engine = None

    def attach_engine(self, engine):
        self._engine = engine

    def on_stall(self, thread_id, cycles):
        self.calls.setdefault(thread_id, []).append(
            [self._engine.threads[thread_id].clock, cycles])


SCRIPTED_THREADS = 4


class RefusingTM(TMSystem):
    """Trivial TM whose ``begin`` refuses threads a scripted number of times.

    A refused begin is a stall, so a thread starves at begin and queues
    for the token without a single abort: no restart jitter and no
    backoff, every charge is a multiple of 10 cycles, and waiters' polls
    tie with other threads' steps on the clock — which exercises the
    thread-id tie-break of the engine's closed-form catch-up.
    """

    name = "refusing"

    def __init__(self, machine, rng, refusals):
        super().__init__(machine, rng)
        self.refusals = dict(refusals)

    def begin(self, thread_id, label, attempt):
        if self.refusals.get(thread_id, 0):
            self.refusals[thread_id] -= 1
            return None, 10
        txn = Txn(thread_id, label, attempt)
        self._register(txn)
        return txn, 20

    def read(self, txn, addr, promote=False):
        return self.machine.plain_load(addr), 10

    def write(self, txn, addr, value):
        self.machine.plain_store(addr, value)
        return 10

    def commit(self, txn, now):
        self._deregister(txn)
        return 20

    def abort(self, txn, cause):
        self._deregister(txn)
        return 10


def scripted_engine(tracer=None):
    """Four threads, two of them refused at begin until they escalate;
    thread 2 is refused twice more while it holds the token."""
    machine = Machine(SimConfig(retry=RetryPolicy(stall_budget=3)))
    wpl = machine.address_map.words_per_line
    base = machine.mvmalloc(SCRIPTED_THREADS * wpl)

    def program(tid):
        def body():
            value = yield Read(base + tid * wpl)
            yield Compute(10 * (tid + 1))
            yield Write(base + tid * wpl, value + 1)
        return [TransactionSpec(body, "scripted") for _ in range(3)]

    tm = RefusingTM(machine, SplitRandom(9), {0: 3, 2: 5})
    return Engine(tm, [program(tid) for tid in range(SCRIPTED_THREADS)],
                  tracer=tracer)


def scripted_reference():
    """Per-thread ``on_stall`` calls, step count and final clocks."""
    log = StallLog()
    engine = scripted_engine(log)
    stats = engine.run(max_steps=200_000)
    assert stats.total_commits == SCRIPTED_THREADS * 3
    assert stats.total_aborts == 0 and stats.escalations > 0
    return {"on_stall": {str(tid): calls
                         for tid, calls in sorted(log.calls.items())},
            "steps": engine.steps_taken,
            "cycles": [thread.cycles for thread in stats.threads]}


# --------------------------------------------------------------------


def golden_tables():
    """This checkout's digests and references, for ``tests/golden.py``."""
    digests = {}
    escalations = {}
    windows = None
    for cell in CELLS:
        result, engine, log = run_cell(cell)
        digests[cell_id(cell)] = _digest(result, engine, log)
        escalations[cell_id(cell)] = result.escalations
        if cell == WINDOW_CELL:
            windows = stall_windows(result.timeseries)
    return {"digests": digests, "escalations": escalations,
            "stall_windows": {cell_id(WINDOW_CELL): windows},
            "scripted": scripted_reference()}


@pytest.fixture(scope="module")
def golden():
    return GOLDEN.load()


def test_golden_file_has_no_stale_entries(golden):
    expected = [cell_id(cell) for cell in CELLS]
    golden_corpus.assert_entries(golden["digests"], expected)
    golden_corpus.assert_entries(golden["escalations"], expected)


def test_every_config_escalates_on_some_backend(golden):
    """The goldens pin the escalated regime, not three idle policies."""
    for config in CONFIGS:
        counts = [n for cell, n in golden["escalations"].items()
                  if cell.startswith(config + "/")]
        assert max(counts) > 0, config


@pytest.mark.parametrize("cell", CELLS, ids=cell_id)
def test_escalated_run_reproduces_digest(golden, cell):
    result, engine, log = run_cell(cell)
    assert engine._heap_pushes <= engine.steps_taken + cell[3]
    assert result.escalations == golden["escalations"][cell_id(cell)]
    assert _digest(result, engine, log) == golden["digests"][cell_id(cell)]
