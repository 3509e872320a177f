"""Engine NACK/redo handling, tested with a scripted TM stub."""

import pytest

from repro.common.errors import AbortCause
from repro.common.rng import SplitRandom
from repro.sim.engine import Engine, TransactionSpec
from repro.sim.machine import Machine
from repro.tm.api import StallRequested, TMSystem, Txn
from repro.tm.ops import Read, Write


class ScriptedTM(TMSystem):
    """Stalls the first N reads, then behaves like a trivial TM."""

    name = "scripted"

    def __init__(self, machine, rng, stalls_before_success=3):
        super().__init__(machine, rng)
        self.remaining_stalls = stalls_before_success
        self.read_calls = 0
        self.redo_values = []

    def begin(self, thread_id, label, attempt):
        txn = Txn(thread_id, label, attempt)
        self._register(txn)
        return txn, 1

    def read(self, txn, addr, promote=False):
        self.read_calls += 1
        if self.remaining_stalls > 0:
            self.remaining_stalls -= 1
            raise StallRequested(7)
        return self.machine.plain_load(addr), 2

    def write(self, txn, addr, value):
        self.machine.plain_store(addr, value)
        return 2

    def commit(self, txn, now):
        self._deregister(txn)
        return 1

    def abort(self, txn, cause):
        self._deregister(txn)
        return 1


class TestStallRedo:
    def _run(self, stalls):
        machine = Machine()
        addr = machine.mvmalloc(1)
        machine.plain_store(addr, 41)
        observed = []

        def body():
            value = yield Read(addr)
            observed.append(value)
            yield Write(addr, value + 1)

        tm = ScriptedTM(machine, SplitRandom(1),
                        stalls_before_success=stalls)
        stats = Engine(tm, [[TransactionSpec(body, "t")]]).run()
        return machine, tm, stats, observed

    def test_stalled_read_retried_until_success(self):
        machine, tm, stats, observed = self._run(stalls=3)
        assert tm.read_calls == 4          # 3 NACKs + 1 success
        assert observed == [41]            # the value arrived exactly once
        assert machine.plain_load(machine.heap._mvm._base) in (41, 42)
        assert stats.total_commits == 1
        assert stats.total_aborts == 0

    def test_stall_cycles_charged(self):
        _, _, stalled, _ = self._run(stalls=5)
        _, _, clean, _ = self._run(stalls=0)
        assert stalled.makespan_cycles >= clean.makespan_cycles + 5 * 7

    def test_redo_cleared_on_abort(self):
        """A doom arriving while an op is pending for redo must not leak
        the stale op into the retried attempt."""
        machine = Machine()
        addr = machine.mvmalloc(1)
        attempts = []

        class DoomingTM(ScriptedTM):
            def read(self, txn, addr_, promote=False):
                self.read_calls += 1
                if self.read_calls == 1:
                    raise StallRequested(5)
                if self.read_calls == 2:
                    txn.doom(AbortCause.READ_WRITE)
                    raise StallRequested(5)
                return 7, 1

        def body():
            attempts.append("start")
            value = yield Read(addr)
            yield Write(addr, value)

        tm = DoomingTM(machine, SplitRandom(1), stalls_before_success=0)
        stats = Engine(tm, [[TransactionSpec(body, "t")]]).run()
        assert stats.total_aborts == 1
        assert stats.total_commits == 1
        assert attempts == ["start", "start"]  # body restarted cleanly


class TestHeapLazyDeletion:
    """The scheduler heap holds one entry per off-CPU thread, never more.

    ``Engine.run`` pushes once per step that takes a thread off the
    CPU, plus the initial heapify; the one other push, waking a thread
    parked at a gated begin, is paid for by the step that parked it
    (``run`` does not push after that one).  So
    ``pushes <= steps + threads`` holds by construction (bursts and
    skipped polls only add slack).  The bound is pinned under
    begin-stall storms, the
    reschedule-heavy shape that leaked one dead heap entry per
    reschedule when an earlier loop re-pushed stale pops; the class
    name dates from the lazy-deletion scheme that first fixed that.
    """

    THREADS = 4

    def _storm_engine(self, retry):
        from repro.common.config import SimConfig
        from repro.faults import FaultPlan
        from repro.sim.retry import RetryPolicy
        from repro.tm import SYSTEMS

        plan = FaultPlan(begin_stall_rate=0.85, begin_stall_burst=4,
                         seed=3)
        policy = None
        if retry:
            policy = RetryPolicy(attempt_budget=3, stall_budget=4,
                                 starvation_age_cycles=2000)
        machine = Machine(SimConfig(faults=plan, retry=policy))
        wpl = machine.address_map.words_per_line
        base = machine.mvmalloc(self.THREADS * wpl)
        programs = []
        for tid in range(self.THREADS):
            def body(tid=tid):
                value = yield Read(base + tid * wpl)
                yield Write(base + tid * wpl, value + 1)
            programs.append([TransactionSpec(body, "stormy")
                             for _ in range(6)])
        return Engine(SYSTEMS["SI-TM"](machine, SplitRandom(5)),
                      programs)

    @pytest.mark.parametrize("retry", [False, True],
                             ids=["storm", "storm+escalation"])
    def test_push_bound_holds_under_begin_stall_storm(self, retry):
        engine = self._storm_engine(retry)
        stats = engine.run(max_steps=200_000)
        # the storm stalls begins constantly, so every thread is
        # rescheduled over and over
        assert stats.total_commits == self.THREADS * 6
        assert engine._heap_pushes <= engine.steps_taken + self.THREADS
        if retry:
            # the tight policy escalates under the storm, so quiesce
            # parks and the golden token reschedule threads as well
            assert stats.escalations > 0

    @pytest.mark.parametrize("retry", [False, True],
                             ids=["storm", "storm+escalation"])
    def test_storm_runs_are_deterministic(self, retry):
        first = self._storm_engine(retry)
        second = self._storm_engine(retry)
        stats1 = first.run(max_steps=200_000)
        stats2 = second.run(max_steps=200_000)
        assert stats1.to_dict() == stats2.to_dict()
        assert first.steps_taken == second.steps_taken
        assert first._heap_pushes == second._heap_pushes
