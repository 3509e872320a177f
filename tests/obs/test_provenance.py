"""Conflict provenance: killer attribution, classification, the ledger.

Two layers of coverage:

* unit tests over hand-built spans pin the classification rules
  (decisive / cascading / self-inflicted / unresolved), the Pareto
  ledger's ordering and cycle conservation, merging, and the DOT/JSON
  exports;
* the **overlap property**: across the persisted schedule corpus and
  hypothesis-generated schedules, under all six backends, every abort
  that names a killer names one whose span actually overlapped the
  victim's — and for the backends whose conflict detection always knows
  the killer, every conflict-caused abort names one.
"""

import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.obs import (MetricsRegistry, Span, SpanRecorder, blame_table,
                       build_provenance, merge_provenance)
from repro.obs.provenance import (CASCADING, DECISIVE, SELF_INFLICTED,
                                  SELF_SITE, UNRESOLVED, classify_abort,
                                  record_provenance_metrics)
from repro.oracle.fuzz import generate_schedule, run_schedule
from repro.tm import SYSTEMS

CORPUS_DIR = pathlib.Path(__file__).parent.parent / "corpus" / "schedules"
CLEAN_CORPUS = sorted(p for p in CORPUS_DIR.glob("*.json")
                      if p.stem != "livelock_under_fault")
ALL_SYSTEMS = sorted(SYSTEMS)

#: abort causes that always carry a killer for these backends: their
#: conflict-detection sites each know the conflicting transaction
#: (absent injected faults, whose spurious aborts reuse these causes)
KILLER_GUARANTEED = {
    "2PL": {"read-write", "write-write"},
    "HybridHTM": {"read-write", "write-write"},
    "SI-TM": {"write-write"},
    "LogTM": {"read-write"},
    "SONTM": {"son-range-empty"},
    "SSI-TM": set(),  # pivots between still-active peers stay anonymous
}


def _span(uid, thread=0, label="t", begin=0, end=100, outcome="abort",
          cause="write-write", **kw):
    return Span(uid=uid, thread_id=thread, label=label, begin_cycle=begin,
                end_cycle=end, outcome=outcome, cause=cause, **kw)


class TestClassification:
    def test_killer_that_committed_is_decisive(self):
        spans = [_span(0, outcome="commit", cause=None),
                 _span(1, killer_uid=0, killer_tid=1, killer_label="t")]
        report = build_provenance(spans)
        assert report.by_class[DECISIVE] == 1
        assert report.aborts == 1 and report.commits == 1

    def test_killer_that_aborted_is_cascading(self):
        spans = [_span(0), _span(1, killer_uid=0, killer_tid=1)]
        assert build_provenance(spans).by_class[CASCADING] == 1

    def test_no_killer_is_self_inflicted(self):
        report = build_provenance([_span(0, cause="read-capacity")])
        assert report.by_class[SELF_INFLICTED] == 1
        assert (SELF_SITE, "t") in report.edges

    def test_unknown_killer_is_unresolved(self):
        # killer uid 99 has no span (sampled out of a streamed log)
        report = build_provenance([_span(1, killer_uid=99, killer_tid=2)])
        assert report.by_class[UNRESOLVED] == 1

    def test_open_killer_is_unresolved(self):
        spans = [_span(0, outcome="open", cause=None, end=None),
                 _span(1, killer_uid=0, killer_tid=1)]
        assert build_provenance(spans).by_class[UNRESOLVED] == 1

    def test_classify_abort_directly(self):
        victim = _span(1, killer_uid=0, killer_tid=2)
        assert classify_abort(victim, {0: "commit"}) == DECISIVE
        assert classify_abort(victim, {0: "abort"}) == CASCADING
        assert classify_abort(victim, {}) == UNRESOLVED
        assert classify_abort(_span(2), {}) == SELF_INFLICTED


class TestLedger:
    def _spans(self):
        return [
            _span(0, outcome="commit", cause=None, label="w"),
            _span(1, begin=0, end=500, label="a", killer_uid=0,
                  killer_tid=1, killer_label="w"),
            _span(2, begin=0, end=300, label="a", killer_uid=0,
                  killer_tid=1, killer_label="w"),
            _span(3, begin=0, end=100, label="b", cause="read-capacity"),
        ]

    def test_cycle_conservation(self):
        report = build_provenance(self._spans())
        assert report.wasted_cycles == 900
        assert sum(e["wasted_cycles"]
                   for e in report.edges.values()) == 900
        durations = sum(s.duration for s in self._spans()
                        if s.outcome == "abort")
        assert report.wasted_cycles == durations

    def test_wasted_by_thread_partition(self):
        report = build_provenance(self._spans())
        assert sum(report.wasted_by_thread.values()) == \
            report.wasted_cycles

    def test_pareto_sorted_with_cumulative_share(self):
        rows = build_provenance(self._spans()).pareto()
        assert [r["wasted_cycles"] for r in rows] == \
            sorted((r["wasted_cycles"] for r in rows), reverse=True)
        assert rows[-1]["cumulative_share"] == pytest.approx(1.0)
        assert rows[0]["killer"] == "w" and rows[0]["victim"] == "a"

    def test_blame_table_renders(self):
        table = blame_table(build_provenance(self._spans()))
        assert "w" in table and "(self)" in table
        assert "decisive=2" in table

    def test_merge_sums_edges_and_classes(self):
        a = build_provenance(self._spans())
        b = build_provenance(self._spans())
        merged = merge_provenance([a, b])
        assert merged.wasted_cycles == 2 * a.wasted_cycles
        assert merged.by_class[DECISIVE] == 2 * a.by_class[DECISIVE]
        assert merged.edges[("w", "a")]["aborts"] == 4

    def test_to_dict_is_json_safe_and_deterministic(self):
        report = build_provenance(self._spans())
        once = json.dumps(report.to_dict(), sort_keys=True)
        again = json.dumps(build_provenance(self._spans()).to_dict(),
                           sort_keys=True)
        assert once == again

    def test_to_dot_names_every_edge(self):
        report = build_provenance(self._spans())
        dot = report.to_dot()
        assert dot.startswith("digraph conflicts {")
        for killer, victim in report.edges:
            assert f'"{killer}" -> "{victim}"' in dot


class TestProvenanceMetrics:
    def test_counters_emitted_and_deterministic(self):
        spans = TestLedger()._spans()
        registry = MetricsRegistry()
        record_provenance_metrics(registry, "SI-TM", spans)
        snapshot = registry.snapshot()
        wasted = {k: v for k, v in snapshot["counters"].items()
                  if k.startswith("tm_wasted_cycles_total")}
        outcomes = {k: v for k, v in snapshot["counters"].items()
                    if k.startswith("tm_aborts_by_outcome_total")}
        assert sum(wasted.values()) == 900
        assert sum(outcomes.values()) == 3
        again = MetricsRegistry()
        record_provenance_metrics(again, "SI-TM", spans)
        assert again.snapshot() == snapshot


# ----------------------------------------------------------------------
# The overlap property, against real runs of all six backends


def _spans_for(schedule, system):
    recorder = SpanRecorder()
    try:
        run_schedule(schedule, system, seed=0, tracer=recorder)
    except SimulationError:
        pass  # livelocked/truncated runs still leave their spans
    return recorder.spans


def _check_killers(spans, system, faults_active):
    by_uid = {span.uid: span for span in spans}
    guaranteed = KILLER_GUARANTEED[system]
    checked = 0
    for span in spans:
        if span.outcome != "abort":
            continue
        if (not faults_active and span.cause in guaranteed
                and not span.has_killer):
            raise AssertionError(
                f"{system}: {span.cause} abort of uid {span.uid} "
                f"names no killer")
        if not span.has_killer:
            continue
        checked += 1
        assert span.killer_uid != span.uid, "a span cannot kill itself"
        killer = by_uid.get(span.killer_uid)
        if killer is None:
            continue  # full recorder keeps everything; be permissive
        assert killer.thread_id == span.killer_tid
        assert killer.label == span.killer_label
        # interval overlap: the killer's attempt must have been live at
        # some point during the victim's attempt — begin clocks are
        # heap-ordered, so disjoint spans can never doom each other
        assert killer.begin_cycle <= (span.end_cycle
                                      if span.end_cycle is not None
                                      else killer.begin_cycle), \
            (system, span, killer)
        if killer.end_cycle is not None:
            assert span.begin_cycle <= killer.end_cycle, \
                (system, span, killer)
    return checked


@pytest.mark.parametrize("path", CLEAN_CORPUS,
                         ids=[p.stem for p in CLEAN_CORPUS])
@pytest.mark.parametrize("system", ALL_SYSTEMS)
def test_killers_overlap_victims_on_corpus(path, system):
    doc = json.loads(path.read_text())
    schedule = doc.get("schedule", doc)
    faults_active = bool((schedule.get("config") or {}).get("faults"))
    spans = _spans_for(schedule, system)
    _check_killers(spans, system, faults_active)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=200),
       index=st.integers(min_value=0, max_value=50))
def test_killers_overlap_victims_on_generated_schedules(seed, index):
    """Hypothesis property: for every backend, every conflict-caused
    abort of a randomized contended schedule names a killer (where the
    backend guarantees one) whose span overlapped the victim's."""
    schedule = generate_schedule(seed, index, threads=3, txns=2,
                                 cells=4, ops=3)
    for system in ALL_SYSTEMS:
        spans = _spans_for(schedule, system)
        _check_killers(spans, system, faults_active=False)


def test_contended_run_attributes_every_conflict_abort():
    """End-to-end: a contended run_once under SI-TM names a killer for
    every write-write abort, and the blame report charges them all."""
    from repro.harness.runner import run_once
    result = run_once("rbtree", "SI-TM", 8, 1, profile="test",
                      telemetry=True)
    spans = result.spans
    ww = [s for s in spans if s.outcome == "abort"
          and s.cause == "write-write"]
    assert ww, "contended array workload should produce ww aborts"
    assert all(s.has_killer for s in ww)
    report = build_provenance(spans)
    assert report.aborts >= len(ww)
    assert report.wasted_cycles == sum(
        s.duration for s in spans if s.outcome == "abort")
