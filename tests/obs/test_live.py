"""Windowed time-series sampler: exactness, merging, schema, anomalies.

Four claims under test:

* **exactness** — window counters sum to the run's own totals, and a
  sampled run is byte-identical in outcome to an unsampled one (the
  passive-observer invariant behind the zero-overhead contract);
* **mergeability** — ``merge_timeseries`` is associative and
  order-independent (hypothesis property), so sharded campaigns can
  combine series without re-running anything;
* **schema** — the JSONL form round-trips and the checker accepts
  every artifact we generate while rejecting malformed rows;
* **anomaly detection** — the livelock rule fires within a pinned
  window budget on the seeded fault plan from the corpus, and every
  rule stays silent across the clean corpus and clean workload runs.
"""

import json
import pathlib
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.harness.runner import run_once
from repro.obs.live import (
    DEFAULT_WINDOW_CYCLES,
    TIMESERIES_SCHEMA_VERSION,
    AbortSpike,
    AnomalyDetector,
    LivelockSuspected,
    StarvationStall,
    TimeSeriesSampler,
    TimeSeriesWriter,
    VersionGrowth,
    load_timeseries_jsonl,
    merge_timeseries,
    merge_window_rows,
    timeseries_to_jsonl,
    validate_timeseries,
)
from repro.oracle.fuzz import run_schedule

CORPUS = pathlib.Path(__file__).parent.parent / "corpus" / "schedules"

#: the pinned detection budget: LivelockSuspected must fire within
#: this many 500-cycle windows on the seeded livelock fault plan
LIVELOCK_WINDOW_BUDGET = 5


def _telemetry_run(**kwargs):
    return run_once("rbtree", "SI-TM", 4, seed=1, profile="test",
                    telemetry=True, **kwargs)


class TestExactness:
    def test_window_totals_match_run_totals(self):
        result = _telemetry_run()
        series = result.timeseries
        assert series is not None
        assert series["schema_version"] == TIMESERIES_SCHEMA_VERSION
        assert series["window_cycles"] == DEFAULT_WINDOW_CYCLES
        assert series["totals"]["commits"] == result.commits
        assert series["totals"]["aborts"] == result.aborts
        assert sum(r["commits"] for r in series["windows"]) \
            == result.commits
        assert sum(r["aborts"] for r in series["windows"]) \
            == result.aborts
        # every attempt begins: begins == commits + aborts
        assert series["totals"]["begins"] == result.commits + result.aborts

    def test_abort_causes_partition_aborts(self):
        series = _telemetry_run().timeseries
        for row in series["windows"]:
            assert sum(row["causes"].values()) == row["aborts"]
            assert 0.0 <= row["abort_rate"] <= 1.0

    def test_windows_are_contiguous_in_index(self):
        series = _telemetry_run().timeseries
        indices = [row["window"] for row in series["windows"]]
        assert indices == sorted(indices)
        for row in series["windows"]:
            assert row["end_cycle"] - row["start_cycle"] \
                == series["window_cycles"]

    def test_sampler_does_not_perturb_the_run(self):
        """Passive observer: same schedule with or without telemetry."""
        with_ts = _telemetry_run()
        without = run_once("rbtree", "SI-TM", 4, seed=1, profile="test")
        assert with_ts.commits == without.commits
        assert with_ts.aborts == without.aborts
        assert with_ts.makespan_cycles == without.makespan_cycles

    def test_custom_window_width_rescales_rows(self):
        result = _telemetry_run(window_cycles=1_000)
        series = result.timeseries
        assert series["window_cycles"] == 1_000
        assert series["totals"]["commits"] == result.commits

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            TimeSeriesSampler(window_cycles=0)

    @pytest.mark.parametrize("seed", range(8))
    def test_watermark_holder_is_the_slowest_running_thread(self, seed):
        """At every event the holder is the lowest (last-seen clock,
        thread id) over threads not done, however events interleave,
        clocks tie or threads finish."""
        rng = random.Random(seed)
        threads = [SimpleNamespace(thread_id=tid, clock=rng.randrange(40),
                                   done=False) for tid in range(16)]
        mvm = SimpleNamespace(max_live_versions=lambda: 1)
        sampler = TimeSeriesSampler(window_cycles=50)
        sampler.attach_engine(SimpleNamespace(
            threads=threads, machine=SimpleNamespace(mvm=mvm)))
        seen = {}
        for _ in range(3000):
            running = [t for t in threads if not t.done]
            if not running:
                break
            thread = rng.choice(running)
            if rng.random() < 0.01:
                thread.done = True
                continue
            thread.clock += rng.choice((0, 0, 1, 5, 30))
            if not seen:
                seen = {t.thread_id: t.clock for t in threads}
            seen[thread.thread_id] = thread.clock
            sampler.on_stall(thread.thread_id, 1)
            expected = min(((seen[t.thread_id], t.thread_id)
                            for t in threads if not t.done),
                           default=(None, None))[1]
            assert sampler._holder == expected


# ----------------------------------------------------------------------
# merge properties


def _histogram(counts):
    buckets = {str(2 ** i): c for i, c in enumerate(counts) if c}
    total = sum(counts)
    if not total:
        return None
    return {"buckets": buckets, "count": total, "sum": total * 3,
            "min": 1, "max": 2 ** len(counts)}


@st.composite
def window_rows(draw, index):
    commits = draw(st.integers(0, 50))
    causes = draw(st.dictionaries(
        st.sampled_from(["WW-CONFLICT", "VALIDATION", "CAPACITY"]),
        st.integers(1, 20), max_size=3))
    aborts = sum(causes.values())
    width = 1_000
    row = {
        "kind": "window", "window": index,
        "start_cycle": index * width, "end_cycle": (index + 1) * width,
        "begins": commits + aborts, "commits": commits, "aborts": aborts,
        "abort_rate": aborts / (commits + aborts) if commits + aborts
        else 0.0,
        "causes": {k: causes[k] for k in sorted(causes)},
        "begin_stalls": draw(st.integers(0, 10)),
        "stall_cycles": draw(st.integers(0, 500)),
        "backoff_cycles": draw(st.integers(0, 500)),
        "commit_wait_cycles": draw(st.integers(0, 500)),
        "escalations": draw(st.integers(0, 3)),
        "wasted_cycles": draw(st.integers(0, 2_000)),
        "span_cycles": _histogram(draw(
            st.lists(st.integers(0, 9), min_size=0, max_size=5))),
        "versions": _histogram(draw(
            st.lists(st.integers(0, 9), min_size=0, max_size=3))),
    }
    return row


@st.composite
def series_documents(draw):
    indices = draw(st.lists(st.integers(0, 6), min_size=0, max_size=4,
                            unique=True))
    rows = [draw(window_rows(i)) for i in sorted(indices)]
    return {
        "schema_version": TIMESERIES_SCHEMA_VERSION,
        "window_cycles": 1_000,
        "windows": rows,
        "alerts": [],
        "totals": {
            "begins": sum(r["begins"] for r in rows),
            "commits": sum(r["commits"] for r in rows),
            "aborts": sum(r["aborts"] for r in rows),
            "begin_stalls": sum(r["begin_stalls"] for r in rows),
            "escalations": sum(r["escalations"] for r in rows),
            "wasted_cycles": sum(r["wasted_cycles"] for r in rows),
        },
    }


class TestMergeProperties:
    @settings(max_examples=60, deadline=None)
    @given(series_documents(), series_documents(), series_documents())
    def test_merge_is_associative(self, a, b, c):
        left = merge_timeseries(merge_timeseries(a, b), c)
        right = merge_timeseries(a, merge_timeseries(b, c))
        assert left == right

    @settings(max_examples=60, deadline=None)
    @given(series_documents(), series_documents())
    def test_merge_is_order_independent(self, a, b):
        assert merge_timeseries(a, b) == merge_timeseries(b, a)

    @settings(max_examples=40, deadline=None)
    @given(series_documents(), series_documents())
    def test_merge_preserves_totals(self, a, b):
        merged = merge_timeseries(a, b)
        for key in merged["totals"]:
            assert merged["totals"][key] == (a["totals"].get(key, 0)
                                             + b["totals"].get(key, 0))
        assert sum(r["commits"] for r in merged["windows"]) \
            == merged["totals"]["commits"]

    def test_merge_rejects_mismatched_widths(self):
        a = {"schema_version": 1, "window_cycles": 1_000, "windows": [],
             "alerts": [], "totals": {}}
        b = dict(a, window_cycles=2_000)
        with pytest.raises(ValueError):
            merge_timeseries(a, b)

    def test_merge_rejects_mismatched_window_rows(self):
        a = {"window": 0, "start_cycle": 0, "end_cycle": 1_000}
        b = {"window": 1, "start_cycle": 1_000, "end_cycle": 2_000}
        with pytest.raises(ValueError):
            merge_window_rows(a, b)

    def test_merging_two_real_shards(self):
        """Two seeds of the same cell merge into exact combined totals."""
        one = run_once("rbtree", "SI-TM", 4, seed=1, profile="test",
                       telemetry=True)
        two = run_once("rbtree", "SI-TM", 4, seed=2, profile="test",
                       telemetry=True)
        merged = merge_timeseries(one.timeseries, two.timeseries)
        assert merged["totals"]["commits"] == one.commits + two.commits
        assert merged["totals"]["aborts"] == one.aborts + two.aborts


# ----------------------------------------------------------------------
# JSONL schema


class TestJsonlSchema:
    def test_round_trip_preserves_windows_and_alerts(self):
        series = _telemetry_run().timeseries
        text = timeseries_to_jsonl(series)
        loaded = load_timeseries_jsonl(text)
        assert len(loaded["headers"]) == 1
        assert loaded["headers"][0]["totals"] == series["totals"]
        originals = [json.loads(json.dumps(r, sort_keys=True))
                     for r in series["windows"]]
        assert loaded["windows"] == originals
        assert loaded["alerts"] == series["alerts"]

    def test_exported_artifact_validates(self):
        series = _telemetry_run().timeseries
        assert validate_timeseries(timeseries_to_jsonl(series)) == []

    def test_extra_keys_are_stamped_and_tolerated(self):
        series = _telemetry_run().timeseries
        text = timeseries_to_jsonl(series, extra={"spec": "cell-1"})
        assert validate_timeseries(text) == []
        loaded = load_timeseries_jsonl(text)
        assert all(row["spec"] == "cell-1" for row in loaded["windows"])

    def test_validator_rejects_malformed_rows(self):
        bad = "\n".join([
            json.dumps({"kind": "header", "schema_version": 99}),
            json.dumps({"kind": "window", "window": -1}),
            json.dumps({"kind": "alert"}),
            json.dumps({"kind": "mystery"}),
            "not json at all",
        ])
        problems = validate_timeseries(bad)
        assert len(problems) >= 5
        assert any("schema_version" in p for p in problems)
        assert any("unknown kind" in p for p in problems)

    def test_writer_streams_a_valid_artifact(self, tmp_path):
        """The live-event sink produces the same schema as export."""
        path = tmp_path / "series.jsonl"
        writer = TimeSeriesWriter(path)
        series = _telemetry_run().timeseries
        for row in series["windows"]:
            writer(dict(row, event="window", spec="cell-1"))
        for alert in series["alerts"]:
            writer(dict(alert, event="alert", spec="cell-1"))
        writer(dict(event="spec-done", spec="cell-1"))  # ignored
        writer.close()
        text = path.read_text()
        assert validate_timeseries(text) == []
        loaded = load_timeseries_jsonl(text)
        assert len(loaded["headers"]) == 1
        assert len(loaded["windows"]) == len(series["windows"])


# ----------------------------------------------------------------------
# anomaly detection


def _load_plan(name):
    return json.loads((CORPUS / name).read_text())


class TestAnomalyDetection:
    def test_livelock_plan_flags_within_window_budget(self):
        """The pinned detection claim: the seeded livelock fault plan
        (PR 5's corpus) raises LivelockSuspected within
        LIVELOCK_WINDOW_BUDGET windows of 500 cycles, before the run
        dies of retry overrun."""
        plan = _load_plan("livelock_under_fault.json")
        sampler = TimeSeriesSampler(window_cycles=500)
        with pytest.raises(SimulationError):
            run_schedule(plan, "SI-TM", seed=0, tracer=sampler)
        sampler.finish()
        series = sampler.export()
        rules = [alert["rule"] for alert in series["alerts"]]
        assert "LivelockSuspected" in rules
        first = min(alert["window"] for alert in series["alerts"]
                    if alert["rule"] == "LivelockSuspected")
        assert first <= LIVELOCK_WINDOW_BUDGET

    @pytest.mark.parametrize("name", sorted(
        p.name for p in CORPUS.glob("*.json")
        if "livelock" not in p.name))
    @pytest.mark.parametrize("system", ["SI-TM", "2PL"])
    def test_clean_corpus_is_silent(self, name, system):
        sampler = TimeSeriesSampler(window_cycles=500)
        run_schedule(_load_plan(name), system, seed=0, tracer=sampler)
        sampler.finish()
        assert sampler.export()["alerts"] == []

    @pytest.mark.parametrize("system", ["SI-TM", "2PL", "SONTM"])
    def test_clean_workload_run_is_silent(self, system):
        result = run_once("rbtree", system, 4, seed=1, profile="test",
                          telemetry=True)
        assert result.timeseries["alerts"] == []

    def test_abort_spike_fires_on_rising_edge_only(self):
        rule = AbortSpike(min_aborts=4)
        quiet = {"window": 0, "abort_rate": 0.05, "aborts": 1,
                 "commits": 19}
        spike = {"window": 1, "abort_rate": 0.9, "aborts": 18,
                 "commits": 2}
        assert rule.observe(quiet) is None
        alert = rule.observe(spike)
        assert alert is not None and alert["rule"] == "AbortSpike"
        # still hot: same episode must not re-fire
        assert rule.observe(dict(spike, window=2)) is None

    def test_starvation_stall_needs_consecutive_windows(self):
        rule = StarvationStall(windows=2)
        stalled = {"window": 0, "commits": 0, "begin_stalls": 3}
        assert rule.observe(stalled) is None
        alert = rule.observe(dict(stalled, window=1))
        assert alert is not None and alert["rule"] == "StarvationStall"
        # a commit resets the streak
        rule.observe({"window": 2, "commits": 5, "begin_stalls": 0})
        assert rule.observe(dict(stalled, window=3)) is None

    def test_livelock_resets_after_commit(self):
        rule = LivelockSuspected(windows=2, min_aborts=2)
        churning = {"window": 0, "commits": 0, "aborts": 5}
        assert rule.observe(churning) is None
        assert rule.observe(dict(churning, window=1)) is not None
        rule.observe({"window": 2, "commits": 1, "aborts": 0})
        assert rule.observe(dict(churning, window=3)) is None

    def test_version_growth_tracks_histogram_max(self):
        rule = VersionGrowth(min_versions=4, factor=2.0)
        low = {"window": 0, "versions": {"buckets": {}, "count": 1,
                                         "sum": 2, "min": 2, "max": 2}}
        high = {"window": 1, "versions": {"buckets": {}, "count": 1,
                                          "sum": 16, "min": 16,
                                          "max": 16}}
        assert rule.observe(low) is None
        alert = rule.observe(high)
        assert alert is not None and alert["rule"] == "VersionGrowth"

    def test_detector_defaults_to_all_rules(self):
        detector = AnomalyDetector()
        names = {rule.name for rule in detector.rules}
        assert names == {"AbortSpike", "StarvationStall",
                         "LivelockSuspected", "VersionGrowth"}
