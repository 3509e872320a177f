"""Span recording and tracer composition tests.

The load-bearing guarantee: composing a :class:`SpanRecorder` next to
the oracle's :class:`HistoryRecorder` through :class:`MultiTracer`
must not change the recorded history — telemetry observes, never
perturbs.
"""

import json
from collections import Counter

import pytest

from repro.common.rng import SplitRandom
from repro.obs import (CycleProfiler, MetricsRegistry, MultiTracer, Span,
                       SpanRecorder, load_spans_jsonl, merge_span_aggregates,
                       record_span_metrics, validate_span_log)
from repro.oracle.fuzz import generate_schedule, run_schedule
from repro.sim.engine import Engine
from repro.sim.history import READ, WRITE, HistoryRecorder
from repro.tm import SYSTEMS
from repro.tm.ops import Compute, Read, Write

from tests.conftest import run_program, spec


def counter_body(addr):
    def body():
        value = yield Read(addr)
        yield Compute(2)
        yield Write(addr, value + 1)
    return body


class TestSpanRecorder:
    def test_one_span_per_attempt(self, machine):
        addr = machine.mvmalloc(1)
        recorder = SpanRecorder()
        programs = [[spec(counter_body(addr)) for _ in range(10)]
                    for _ in range(3)]
        stats = run_program(machine, "SI-TM", programs, tracer=recorder)
        assert len(recorder.spans) == stats.total_commits + stats.total_aborts
        commits = [s for s in recorder.spans if s.outcome == "commit"]
        assert len(commits) == stats.total_commits

    def test_spans_carry_clocks_and_footprints(self, machine):
        addr = machine.mvmalloc(1)
        recorder = SpanRecorder()
        run_program(machine, "SI-TM", [[spec(counter_body(addr))]],
                    tracer=recorder)
        (span,) = recorder.spans
        assert span.end_cycle > span.begin_cycle >= 0
        assert span.reads == 1 and span.writes == 1
        assert span.commit_ts is not None

    def test_abort_spans_name_their_cause(self, machine):
        addr = machine.mvmalloc(1)
        recorder = SpanRecorder()
        programs = [[spec(counter_body(addr)) for _ in range(20)]
                    for _ in range(4)]
        stats = run_program(machine, "2PL", programs, tracer=recorder)
        aborted = [s for s in recorder.spans if s.outcome == "abort"]
        assert len(aborted) == stats.total_aborts
        assert all(s.cause for s in aborted)

    def test_end_of_run_fold_equals_per_span_observation(self, machine):
        """The span histograms, folded once from the kept spans, snapshot
        byte for byte as observing each span as it closed would."""
        addr = machine.mvmalloc(1)
        recorder = SpanRecorder()
        programs = [[spec(counter_body(addr)) for _ in range(20)]
                    for _ in range(4)]
        run_program(machine, "2PL", programs, tracer=recorder)
        assert {s.outcome for s in recorder.spans} == {"commit", "abort"}
        per_span = MetricsRegistry()
        for span in sorted(recorder.spans, key=lambda s: s.end_cycle):
            for name, value in (("txn_cycles", span.duration),
                                ("txn_reads", span.reads),
                                ("txn_writes", span.writes)):
                per_span.observe(name, value, outcome=span.outcome)
        folded = MetricsRegistry()
        record_span_metrics(folded, recorder.spans)
        assert json.dumps(folded.snapshot()) == json.dumps(
            per_span.snapshot())
        assert folded.histogram("txn_cycles",
                                outcome="commit")["count"] == 80

    def test_dict_round_trip(self, machine):
        addr = machine.mvmalloc(1)
        recorder = SpanRecorder()
        run_program(machine, "SI-TM", [[spec(counter_body(addr))]],
                    tracer=recorder)
        for span in recorder.spans:
            clone = Span.from_dict(json.loads(json.dumps(span.to_dict())))
            assert clone == span


class _CallLog:
    """Tracer stub appending (tag, hook) tuples to a shared list."""

    def __init__(self, tag, calls):
        self.tag, self.calls = tag, calls

    def on_begin(self, txn):
        self.calls.append((self.tag, "begin"))

    def on_read(self, txn, addr, site, value=None):
        self.calls.append((self.tag, "read"))

    def on_write(self, txn, addr, site, value=None):
        self.calls.append((self.tag, "write"))

    def on_commit(self, txn):
        self.calls.append((self.tag, "commit"))

    def on_abort(self, txn, cause):
        self.calls.append((self.tag, "abort"))


class _Txn:
    thread_id = 0


class TestMultiTracer:
    def test_forwards_in_construction_order(self):
        calls = []
        multi = MultiTracer(_CallLog("a", calls), _CallLog("b", calls))
        txn = object()
        multi.on_begin(txn)
        multi.on_read(txn, 0, "s")
        multi.on_write(txn, 0, "s")
        multi.on_commit(txn)
        assert calls == [("a", "begin"), ("b", "begin"),
                         ("a", "read"), ("b", "read"),
                         ("a", "write"), ("b", "write"),
                         ("a", "commit"), ("b", "commit")]

    def test_base_noop_hooks_are_not_forwarded(self, monkeypatch):
        from repro.sim.engine import Tracer

        class OnlyStalls(Tracer):
            def __init__(self):
                self.stalls = 0

            def on_stall(self, thread_id, cycles):
                self.stalls += 1

        def poisoned(self, *args, **kwargs):
            raise AssertionError("base no-op hook reached through fan-out")

        stalls, calls = OnlyStalls(), []
        multi = MultiTracer(stalls, _CallLog("a", calls))
        for hook in ("on_begin", "on_read", "on_write", "on_commit",
                     "on_abort"):
            monkeypatch.setattr(Tracer, hook, poisoned)
        txn = object()
        multi.on_begin(txn)
        multi.on_read(txn, 0, "s")
        multi.on_stall(0, 20)
        assert calls == [("a", "begin"), ("a", "read")]
        assert stalls.stalls == 1

    def test_hook_set_on_a_child_before_attach_is_seen(self):
        from repro.sim.engine import Tracer

        seen = []
        child = Tracer()
        multi = MultiTracer(child, SpanRecorder())
        child.on_read = lambda txn, addr, site, value=None: seen.append(addr)
        multi.attach_engine(None)
        multi.on_read(_Txn(), 7, "s")
        assert seen == [7]

    def test_none_children_filtered(self):
        calls = []
        multi = MultiTracer(None, _CallLog("a", calls), None)
        assert len(multi) == 1

    def test_attach_engine_forwarded_to_willing_children(self):
        recorder = SpanRecorder()
        plain = _CallLog("p", [])
        multi = MultiTracer(plain, recorder)
        sentinel = object()
        multi.attach_engine(sentinel)
        assert recorder._engine is sentinel


class TestResolvedHooks:
    """The engine calls a per-operation hook only where something
    implements it, and spans count their footprint from ``RunStats``."""

    def _engine(self, machine, *tracers):
        """A contended 2PL counter run's engine, ``tracers`` composed."""
        addr = machine.mvmalloc(1)
        programs = [[spec(counter_body(addr)) for _ in range(20)]
                    for _ in range(4)]
        tm = SYSTEMS["2PL"](machine, SplitRandom(7))
        return Engine(tm, programs, tracer=MultiTracer(*tracers))

    def _composed(self, machine):
        """The history recorded next to telemetry's tracers."""
        history = HistoryRecorder("2PL", "serializable")
        recorder = SpanRecorder()
        engine = self._engine(machine, history, recorder, CycleProfiler())
        return engine, engine.run(), history.history, recorder.spans

    def test_telemetry_tracers_leave_the_engine_no_read_hook(self, machine):
        engine = self._engine(machine, SpanRecorder(), CycleProfiler())
        assert engine._on_read is None and engine._on_stall is None
        assert engine._on_write is not None  # the profiler's write sites

    def test_history_composed_with_telemetry_sees_every_read(self, machine):
        engine, stats, history, _ = self._composed(machine)
        assert engine._on_read is not None
        kinds = Counter(event.kind for event in history.events)
        assert kinds[READ] == sum(t.reads for t in stats.threads) > 0
        assert kinds[WRITE] == sum(t.writes for t in stats.threads) > 0

    def test_span_footprints_equal_the_history_per_attempt(self, machine):
        _, stats, history, spans = self._composed(machine)
        assert any(span.outcome == "abort" for span in spans)
        assert len(spans) == stats.total_commits + stats.total_aborts
        for span in spans:
            counted = Counter(event.kind for event in history.events
                              if event.txn_uid == span.uid)
            assert (span.reads, span.writes) \
                == (counted[READ], counted[WRITE]), span


class TestStreamingSpanRecorder:
    """Bounded-memory recording (``SpanRecorder(cap=N)``): cap held,
    aborts kept, exact aggregates."""

    def _contended(self, machine, tracer, txns=25, threads=4,
                   system="2PL"):
        addr = machine.mvmalloc(1)
        programs = [[spec(counter_body(addr)) for _ in range(txns)]
                    for _ in range(threads)]
        return run_program(machine, system, programs, tracer=tracer)

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError):
            SpanRecorder(cap=0)
        with pytest.raises(ValueError):
            SpanRecorder(cap=-4)

    def test_memory_held_at_cap(self, machine):
        streaming = SpanRecorder(cap=8, seed=1)
        stats = self._contended(machine, streaming, txns=40)
        closed = stats.total_commits + stats.total_aborts
        assert closed > 4 * streaming.cap  # sampling actually engaged
        # one cap-bounded buffer per retention class (commits + aborts)
        assert streaming.max_retained <= 2 * streaming.cap
        assert len(streaming) <= 2 * streaming.cap
        # nothing lost from the books: every closed span is either
        # retained, flushed, or counted as discarded
        assert (len(streaming) + streaming.flushed_spans
                + streaming.commits_sampled_out
                + streaming.aborts_dropped) == closed
        assert streaming.total_commits == stats.total_commits
        assert streaming.total_aborts == stats.total_aborts

    def test_aborts_always_kept(self, machine):
        full = SpanRecorder()
        streaming = SpanRecorder(cap=512, seed=0)
        self._contended(machine, MultiTracer(full, streaming))
        aborted = sorted(s.uid for s in full.spans if s.outcome == "abort")
        assert aborted, "contended counter run should abort"
        assert len(aborted) <= streaming.cap
        retained_aborts = sorted(s.uid for s in streaming.retained()
                                 if s.outcome == "abort")
        assert retained_aborts == aborted
        assert streaming.aborts_dropped == 0

    def test_aggregate_exact_despite_sampling(self, machine):
        full = SpanRecorder()
        streaming = SpanRecorder(cap=4, seed=2)
        self._contended(machine, MultiTracer(full, streaming), txns=30)
        closed = [s for s in full.spans if s.outcome != "open"]
        assert streaming.commits_sampled_out > 0
        agg = streaming.aggregate()
        assert agg["total_spans"] == len(closed)
        for outcome in ("commit", "abort"):
            matching = [s for s in closed if s.outcome == outcome]
            if not matching:
                assert outcome not in agg["outcomes"]
                continue
            cycles = agg["outcomes"][outcome]["cycles"]
            assert cycles["count"] == len(matching)
            assert cycles["sum"] == sum(s.duration for s in matching)
            reads = agg["outcomes"][outcome]["reads"]
            assert reads["sum"] == sum(s.reads for s in matching)

    def test_merge_span_aggregates_sums_shards(self, machine):
        shard_a = SpanRecorder(cap=4, seed=0)
        self._contended(machine, shard_a, txns=10)
        addr = machine.mvmalloc(1)
        shard_b = SpanRecorder(cap=4, seed=0)
        run_program(machine, "SI-TM",
                    [[spec(counter_body(addr)) for _ in range(8)]
                     for _ in range(2)],
                    tracer=shard_b)
        merged = merge_span_aggregates(shard_a.aggregate(),
                                       shard_b.aggregate())
        assert merged["total_spans"] == (shard_a.aggregate()["total_spans"]
                                         + shard_b.aggregate()["total_spans"])
        for outcome, stats in merged["outcomes"].items():
            parts = [r.aggregate()["outcomes"].get(outcome)
                     for r in (shard_a, shard_b)]
            expected = sum(p["cycles"]["count"] for p in parts if p)
            assert stats["cycles"]["count"] == expected

    def test_sink_flush_round_trips_and_validates(self, machine, tmp_path):
        sink = tmp_path / "spans.jsonl"
        full = SpanRecorder()
        streaming = SpanRecorder(cap=8, seed=3, sink=str(sink),
                                          flush_every=16)
        self._contended(machine, MultiTracer(full, streaming))
        streaming.flush()
        text = sink.read_text()
        assert validate_span_log(text) == []
        loaded = load_spans_jsonl(text)
        assert len(loaded) == streaming.flushed_spans
        # with a sink, the complete abort log reaches disk
        aborted = sorted(s.uid for s in full.spans if s.outcome == "abort")
        assert sorted(s.uid for s in loaded
                      if s.outcome == "abort") == aborted
        assert streaming.aborts_dropped == 0
        by_uid = {s.uid: s for s in full.spans}
        for span in loaded:
            assert span == by_uid[span.uid]


class TestStreamingComposition:
    """Composing streaming next to full recording changes neither."""

    def _run(self, tracer, system="2PL"):
        schedule = generate_schedule(seed=5, index=2, threads=3, txns=3,
                                     cells=2, ops=4)
        from repro.common.errors import SimulationError
        try:
            run_schedule(schedule, system, seed=5, tracer=tracer)
        except SimulationError:
            pass

    def test_legacy_output_byte_identical_when_composed(self):
        alone = SpanRecorder()
        self._run(alone)
        composed = SpanRecorder()
        streaming = SpanRecorder(cap=2, seed=0)
        self._run(MultiTracer(composed, streaming))
        assert [s.to_dict() for s in composed.spans] \
            == [s.to_dict() for s in alone.spans]
        # retained spans are a verbatim subset of the full recording
        by_uid = {s.uid: s.to_dict() for s in alone.spans}
        for span in streaming.retained():
            assert span.to_dict() == by_uid[span.uid]

    def test_reservoir_deterministic_for_equal_seeds(self):
        first = SpanRecorder(cap=2, seed=7)
        self._run(first)
        second = SpanRecorder(cap=2, seed=7)
        self._run(second)
        assert [s.to_dict() for s in first.retained()] \
            == [s.to_dict() for s in second.retained()]
        assert first.aggregate() == second.aggregate()


class TestHistoryUnperturbed:
    def test_history_identical_with_and_without_telemetry(self):
        """The oracle must see the same history when spans ride along."""
        schedule = generate_schedule(seed=3, index=1)
        for system in ("2PL", "SI-TM", "SSI-TM"):
            bare, final_bare = run_schedule(schedule, system, seed=3)
            recorder = SpanRecorder()
            traced, final_traced = run_schedule(schedule, system, seed=3,
                                                tracer=recorder)
            assert final_bare == final_traced
            assert bare.to_dict() == traced.to_dict()
            assert recorder.spans  # telemetry actually captured something
