"""MetricsRegistry tests: keys, buckets, canonical snapshots."""

import json

from repro.obs.metrics import MetricsRegistry, _bucket_bound, metric_key


class TestMetricKey:
    def test_bare_name(self):
        assert metric_key("txn_commits", {}) == "txn_commits"

    def test_labels_sorted(self):
        key = metric_key("aborts", {"system": "SI-TM", "cause": "ww"})
        assert key == "aborts{cause=ww,system=SI-TM}"

    def test_label_order_irrelevant(self):
        a = metric_key("m", {"x": 1, "y": 2})
        b = metric_key("m", {"y": 2, "x": 1})
        assert a == b


class TestBucketBound:
    def test_small_values(self):
        assert _bucket_bound(0) == 1
        assert _bucket_bound(1) == 1
        assert _bucket_bound(2) == 2

    def test_powers_of_two_are_their_own_bound(self):
        for exp in range(1, 12):
            assert _bucket_bound(1 << exp) == 1 << exp

    def test_rounding_up(self):
        assert _bucket_bound(3) == 4
        assert _bucket_bound(1000) == 1024


class TestRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.inc("commits", 3, system="2PL")
        reg.inc("commits", 2, system="2PL")
        assert reg.counter("commits", system="2PL") == 5
        assert reg.counter("commits", system="SI-TM") == 0

    def test_gauge_overwrites(self):
        reg = MetricsRegistry()
        reg.set_gauge("clock", 10.0)
        reg.set_gauge("clock", 20.0)
        assert reg.gauge("clock") == 20.0
        assert reg.gauge("missing") is None

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        for value in (1, 3, 3, 100):
            reg.observe("cycles", value)
        hist = reg.histogram("cycles")
        assert hist["count"] == 4
        assert hist["sum"] == 107
        assert hist["min"] == 1 and hist["max"] == 100
        assert hist["buckets"] == {"1": 1, "4": 2, "128": 1}

    def test_len_counts_instruments(self):
        reg = MetricsRegistry()
        assert len(reg) == 0
        reg.inc("a")
        reg.set_gauge("b", 1.0)
        reg.observe("c", 1)
        assert len(reg) == 3


class TestSnapshot:
    def test_sorted_at_every_level(self):
        reg = MetricsRegistry()
        reg.inc("zeta")
        reg.inc("alpha")
        reg.observe("hist", 5, system="b")
        reg.observe("hist", 5, system="a")
        snap = reg.snapshot()
        assert list(snap["counters"]) == sorted(snap["counters"])
        assert list(snap["histograms"]) == sorted(snap["histograms"])

    def test_byte_identical_across_insertion_orders(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("x"), a.inc("y"), a.observe("h", 2), a.observe("h", 9)
        b.observe("h", 9), b.observe("h", 2), b.inc("y"), b.inc("x")
        assert (json.dumps(a.snapshot(), sort_keys=True)
                == json.dumps(b.snapshot(), sort_keys=True))

    def test_json_round_trip(self):
        reg = MetricsRegistry()
        reg.inc("commits", 7, system="SI-TM")
        reg.set_gauge("clock", 3.5)
        reg.observe("depth", 2)
        snap = reg.snapshot()
        assert json.loads(json.dumps(snap)) == snap


class TestProvenanceCounters:
    """The new provenance counters: emitted on telemetry runs,
    deterministic in the canonical snapshot."""

    def _snapshot(self):
        from repro.harness.runner import run_once
        result = run_once("list", "2PL", 4, 2, profile="test",
                          telemetry=True)
        return result.metrics, result

    def test_wasted_and_outcome_counters_emitted(self):
        snap, result = self._snapshot()
        wasted = {k: v for k, v in snap["counters"].items()
                  if k.startswith("tm_wasted_cycles_total{")}
        outcomes = {k: v for k, v in snap["counters"].items()
                    if k.startswith("tm_aborts_by_outcome_total{")}
        assert wasted and outcomes
        assert all("system=2PL" in k for k in wasted)
        assert all("cause=" in k for k in wasted)
        # the outcome counter partitions the aborts exactly
        assert sum(outcomes.values()) == result.aborts
        # and the wasted ledger covers every abort span's cycles
        assert sum(wasted.values()) == sum(
            span.duration for span in result.spans
            if span.outcome == "abort")

    def test_snapshot_deterministic_across_identical_runs(self):
        first, _ = self._snapshot()
        second, _ = self._snapshot()
        assert (json.dumps(first, sort_keys=True)
                == json.dumps(second, sort_keys=True))
