"""Timeline rendering and summaries over recorded spans."""

from repro.common.rng import SplitRandom
from repro.sim.engine import Engine, TransactionSpec
from repro.obs import (SpanRecorder, aborted_fraction, render_timeline,
                       summary_by_label)
from repro.sim.machine import Machine
from repro.tm import SnapshotIsolationTM, TwoPhaseLockingTM
from repro.tm.ops import Compute, Read, Write


def run_with_timeline(system_cls, machine, programs, seed=3):
    recorder = SpanRecorder()
    tm = system_cls(machine, SplitRandom(seed))
    Engine(tm, programs, tracer=recorder).run()
    return recorder.spans


def counter_program(machine, threads=2, txns=10):
    addr = machine.mvmalloc(1)

    def body():
        value = yield Read(addr)
        yield Compute(3)
        yield Write(addr, value + 1)

    return [[TransactionSpec(body, "inc") for _ in range(txns)]
            for _ in range(threads)]


class TestRecording:
    def test_intervals_cover_all_attempts(self):
        machine = Machine()
        programs = counter_program(machine)
        spans = run_with_timeline(SnapshotIsolationTM, machine, programs)
        commits = sum(1 for s in spans if s.outcome == "commit")
        assert commits == 20
        assert all(s.end_cycle >= s.begin_cycle for s in spans)

    def test_aborts_recorded_with_cause(self):
        machine = Machine()
        programs = counter_program(machine, threads=4, txns=15)
        spans = run_with_timeline(TwoPhaseLockingTM, machine, programs)
        aborted = [s for s in spans if s.outcome == "abort"]
        assert aborted
        assert all(s.cause is not None for s in aborted)
        assert 0 < aborted_fraction(spans) < 1

    def test_makespan_positive(self):
        machine = Machine()
        spans = run_with_timeline(SnapshotIsolationTM, machine,
                                  counter_program(machine))
        assert max(s.end_cycle for s in spans) > 0


class TestRendering:
    def test_render_shape(self):
        machine = Machine()
        spans = run_with_timeline(SnapshotIsolationTM, machine,
                                  counter_program(machine, threads=3))
        art = render_timeline(spans, width=60)
        lines = art.splitlines()
        assert len(lines) == 4  # header + 3 threads
        assert all(len(line.split("|")[1]) == 60 for line in lines[1:])
        assert "#" in art

    def test_aborts_visible_in_render(self):
        machine = Machine()
        spans = run_with_timeline(
            TwoPhaseLockingTM, machine,
            counter_program(machine, threads=4, txns=20))
        assert "x" in render_timeline(spans)

    def test_empty_render(self):
        assert "no transactions" in render_timeline([])

    def test_summary_by_label(self):
        machine = Machine()
        spans = run_with_timeline(SnapshotIsolationTM, machine,
                                  counter_program(machine))
        summary = summary_by_label(spans)
        assert summary["inc"]["commits"] == 20
        assert summary["inc"]["cycles"] > 0
