"""Parked begin waits: the closed form, the replay, the watchdog contract.

A thread queued for the golden token leaves the scheduler heap and is
charged its begin-stall polls in closed form
(``docs/performance.md``, "Parked begin waits").  The whole-run pin is
``test_escalation_golden.py``; these tests take the mechanism apart:
the arithmetic against a brute-force count, the per-call clocks of the
replayed ``on_stall`` hook against the sequence the polling engine
produced, which tracers get a replay at all, the windowed time series,
and what happens when the wait can never end.
"""

import re
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.harness.runner as runner
from repro.common.config import SimConfig
from repro.common.errors import SimulationError
from repro.common.rng import SplitRandom, derive_seed
from repro.obs import live
from repro.perf.bench import CAPACITY_CONFIG
from repro.sim.engine import Engine, Tracer, TransactionSpec, skipped_polls
from repro.sim.machine import Machine
from repro.sim.retry import RetryPolicy
from repro.tm import SYSTEMS
from repro.tm.ops import Compute, Write
from repro.workloads import REGISTRY
from tests.sim.test_escalation_golden import golden  # noqa: F401 (fixture)
from tests.sim.test_escalation_golden import (CONFIGS, PROFILE,
                                              SCRIPTED_THREADS, SEED,
                                              WINDOW_CELL, RefusingTM,
                                              cell_id, scripted_engine,
                                              scripted_reference,
                                              stall_windows)


# --------------------------------------------------------------------
# the arithmetic
# --------------------------------------------------------------------

@given(clock=st.integers(0, 5000), thread_id=st.integers(0, 7),
       ahead=st.integers(-100, 2000), waker=st.integers(0, 7),
       period=st.integers(1, 40), exact=st.booleans())
def test_closed_form_equals_brute_force_count(clock, thread_id, ahead,
                                              waker, period, exact):
    if thread_id == waker:
        waker = (waker + 1) % 8
    # ``exact`` forces the poll that lands on ``now`` itself, where only
    # the thread ids order the two steps
    now = clock + (ahead - ahead % period if exact else ahead)
    brute = 0
    while (clock + period * brute, thread_id) < (now, waker):
        brute += 1
    assert skipped_polls(clock, thread_id, now, waker, period) == brute


@pytest.mark.parametrize("clock, thread_id, now, waker, polls", [
    (100, 1, 90, 0, 0),     # already past the waker's step
    (100, 1, 100, 0, 0),    # same clock, higher id: the waker goes first
    (100, 0, 100, 1, 1),    # same clock, lower id: one poll precedes it
    (100, 1, 140, 0, 2),    # exact multiple, higher id: polls at 100, 120
    (100, 0, 140, 1, 3),    # exact multiple, lower id: and the one at 140
    (100, 1, 139, 0, 2),
    (100, 1, 141, 0, 3),
])
def test_closed_form_edges(clock, thread_id, now, waker, polls):
    assert skipped_polls(clock, thread_id, now, waker, 20) == polls


# --------------------------------------------------------------------
# the replay
# --------------------------------------------------------------------

def test_scripted_run_replays_the_polling_engines_stalls(golden):
    """Every ``on_stall`` call arrives with ``thread.clock`` at the value
    the polling engine showed it, per thread and in order; the step
    count and the final clocks agree too."""
    assert scripted_reference() == golden["scripted"]


def test_scripted_run_parks_and_keeps_the_push_bound():
    engine = scripted_engine()
    with mock.patch.object(engine, "_charge_stalls",
                           wraps=engine._charge_stalls) as charge:
        engine.run()
    # waiters really left the heap: some polls were charged in bulk
    assert any(call.args[1] > 1 for call in charge.call_args_list)
    assert engine._heap_pushes <= engine.steps_taken + SCRIPTED_THREADS
    assert not any(thread.parked for thread in engine.threads)


def _stalls(golden):
    return sum(len(calls) for calls in golden["scripted"]["on_stall"].values())


class _Counting(Tracer):
    """A subclass that overrides the hook."""

    def __init__(self):
        self.stalls = 0

    def on_stall(self, thread_id, cycles):
        self.stalls += 1


def test_overriding_subclass_gets_every_stall(golden):
    tracer = _Counting()
    scripted_engine(tracer).run()
    assert tracer.stalls == _stalls(golden)


def test_wrapped_instance_attribute_gets_every_stall(golden):
    """What ``perfbench/tracing.py`` installs: a plain function set on a
    bare ``Tracer`` instance."""
    calls = []
    tracer = Tracer()
    tracer.on_stall = lambda tid, cycles: calls.append(tid)
    scripted_engine(tracer).run()
    assert len(calls) == _stalls(golden)


def test_engine_made_tracer_gets_no_stall_calls(monkeypatch):
    calls = []
    monkeypatch.setattr(Tracer, "on_stall",
                        lambda self, tid, cycles: calls.append(tid))
    engine = scripted_engine()
    engine.run()
    assert type(engine.tracer) is Tracer
    assert calls == []


# --------------------------------------------------------------------
# the windowed time series
# --------------------------------------------------------------------

def test_sampler_windows_match_the_polling_engine(golden):
    """Streamed rows equal the end-of-run export, and each window holds
    the begin stalls the polling engine put there."""
    config, workload, system, threads, _ = WINDOW_CELL
    streamed = []
    old = live.set_publisher(streamed.append)
    try:
        result = runner.run_once(workload, system, threads, SEED, PROFILE,
                                 CONFIGS[config], telemetry=True,
                                 profiling=True)
    finally:
        live.set_publisher(old)
    rows = [{k: v for k, v in event.items() if k not in ("event", "spec")}
            for event in streamed if event["event"] == "window"]
    assert rows == result.timeseries["windows"]
    assert stall_windows(result.timeseries) \
        == golden["stall_windows"][cell_id(WINDOW_CELL)]
    assert result.timeseries["totals"]["begin_stalls"] \
        == result.metrics["counters"]["engine_begin_stalls"]


def test_sampler_rescans_only_when_the_watermark_holder_moves(monkeypatch):
    """Nearly every event of an escalated run is a replayed begin stall
    of a thread that is *not* the slowest; only an event from the thread
    holding the watermark (or that thread finishing) may cost a scan of
    every thread's clock."""
    config, workload, system, threads, _ = WINDOW_CELL
    sampler = live.TimeSeriesSampler
    rescan = sampler._advance_watermark
    counts = {"events": 0, "from_holder": 0, "rescans": 0}

    def counting(hook, thread_of):
        def counted(self, *args):
            counts["events"] += 1
            counts["from_holder"] += thread_of(*args) == self._holder
            hook(self, *args)
        return counted

    def counting_rescan(self, engine_threads):
        counts["rescans"] += 1
        rescan(self, engine_threads)

    for hook in ("on_begin", "on_commit", "on_abort"):
        monkeypatch.setattr(sampler, hook, counting(
            getattr(sampler, hook), lambda txn, *cause: txn.thread_id))
    monkeypatch.setattr(sampler, "on_stall", counting(
        sampler.on_stall, lambda thread_id, cycles: thread_id))
    monkeypatch.setattr(sampler, "_advance_watermark", counting_rescan)
    runner.run_once(workload, system, threads, SEED, PROFILE,
                    CONFIGS[config], telemetry=True, profiling=True)
    # beyond the holder's own events: the first event (no holder yet)
    # and at most one rescan per holder that finished
    assert counts["rescans"] <= counts["from_holder"] + threads + 1
    assert counts["from_holder"] * 20 < counts["events"]


# --------------------------------------------------------------------
# a wait nobody can end
# --------------------------------------------------------------------

class LeakyTM(RefusingTM):
    """Leaves a stale entry in ``active_txns`` at thread 1's first commit,
    so the queue head waits for a drain that never completes."""

    def commit(self, txn, now):
        cycles = super().commit(txn, now)
        if txn.thread_id == 1 and "leak" not in self.active_txns:
            self.active_txns["leak"] = txn
        return cycles


def _leaky_engine(txns_of_thread_1):
    """Thread 0 starves at begin and heads the queue while thread 1 is
    in flight; thread 1's commit then leaks."""
    machine = Machine(SimConfig(retry=RetryPolicy(stall_budget=3)))
    addr = machine.mvmalloc(1)

    def body():
        yield Compute(500)
        yield Write(addr, 1)

    tm = LeakyTM(machine, SplitRandom(9), {0: 3})
    return Engine(tm, [[TransactionSpec(body, "starved")],
                       [TransactionSpec(body, "leaker")] * txns_of_thread_1])


def test_wait_is_reported_at_once_when_every_runner_finishes():
    engine = _leaky_engine(txns_of_thread_1=1)
    with pytest.raises(SimulationError) as excinfo:
        engine.run()
    message = str(excinfo.value)
    assert "every runnable thread finished" in message
    assert "permanent begin stall" in message
    assert re.search(r"thread 0: .* stalls=\d+ parked", message)
    assert "parked=[0]" in message
    assert engine.steps_taken < 100


def test_last_runnable_thread_polls_on_to_the_watchdog():
    engine = _leaky_engine(txns_of_thread_1=2)
    with pytest.raises(SimulationError) as excinfo:
        engine.run()
    message = str(excinfo.value)
    assert "engine watchdog: no progress" in message
    # thread 1 queued behind thread 0 but, alone on the heap, kept
    # polling; thread 0 is the one parked
    assert "queue=[0, 1]" in message and "parked=[0]" in message
    assert engine.threads[1].consecutive_stalls \
        >= Engine.WATCHDOG_STALL_STEPS


def test_max_steps_counts_the_skipped_polls(golden):
    """A limit that falls among polls nobody stepped still ends the run."""
    total = golden["scripted"]["steps"]
    scripted_engine().run(max_steps=total)
    for limit in range(total - 40, total):
        with pytest.raises(SimulationError, match="exceeded"):
            scripted_engine().run(max_steps=limit)


# --------------------------------------------------------------------
# the pinned capacity cell
# --------------------------------------------------------------------

def test_capacity_cell_reproduces_its_pinned_counts():
    """list/2PL at 16 threads, the quick profile and ``CAPACITY_CONFIG``
    (a cell of perfbench's ``sim_observed``), built the way
    ``harness.runner.run_once`` builds it.  All but two of the 320
    commits escalate to the golden token, and no golden digest covers
    the cell: a dropped or doubled poll of a parked waiter moves its
    step count."""
    machine = Machine(CAPACITY_CONFIG)
    rng = SplitRandom(derive_seed(1, "list", "2PL", 16))
    instance = REGISTRY.create("list", profile="quick").setup(
        machine, 16, rng.split("workload"))
    engine = Engine(SYSTEMS["2PL"](machine, rng.split("tm")),
                    instance.programs)
    stats = engine.run()
    assert (stats.total_commits, stats.total_aborts, stats.escalations,
            engine.steps_taken) == (320, 57, 318, 1033941)
