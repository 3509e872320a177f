"""Runner tests: single runs, seed aggregation, census config."""

import gc
import json
import tracemalloc

import pytest

from repro.common.config import MVMConfig, SimConfig, VersionCapPolicy
from repro.common.errors import ConfigError
from repro.harness.runner import RunResult, run_once, run_seeds
from repro.obs.spans import KILLER_COLUMNS, SPAN_COLUMNS, Span
from repro.sim.machine import Machine

#: bound on the bytes an observed result holds per span (a slotted
#: Span is about 290; the dict per span it replaced, about 580)
MAX_BYTES_PER_SPAN = 400


class TestRunOnce:
    def test_result_shape(self):
        result = run_once("rbtree", "SI-TM", threads=2, seed=1,
                          profile="test")
        assert result.commits > 0
        assert result.makespan_cycles > 0
        assert result.reads > 0
        assert 0.0 <= result.abort_rate < 1.0
        assert result.workload == "rbtree"
        assert result.system == "SI-TM"

    def test_unknown_system_rejected(self):
        with pytest.raises(ConfigError):
            run_once("rbtree", "MAGIC", 2, 1, profile="test")

    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigError):
            run_once("nope", "SI-TM", 2, 1, profile="test")

    def test_deterministic_per_seed(self):
        a = run_once("list", "2PL", 2, seed=9, profile="test")
        b = run_once("list", "2PL", 2, seed=9, profile="test")
        assert (a.commits, a.aborts, a.makespan_cycles) == \
               (b.commits, b.aborts, b.makespan_cycles)

    def test_verified_flag_populated(self):
        result = run_once("list", "SI-TM", 2, 1, profile="test")
        assert result.verified is True

    def test_census_config_produces_rows(self):
        config = SimConfig(mvm=MVMConfig(
            cap_policy=VersionCapPolicy.UNBOUNDED, census=True))
        result = run_once("rbtree", "SI-TM", 2, 1, profile="test",
                          config=config)
        assert result.census_rows is not None
        assert sum(r["accesses"] for r in result.census_rows) > 0

    def test_throughput_positive(self):
        result = run_once("ssca2", "SI-TM", 2, 1, profile="test")
        assert result.throughput > 0

    def test_an_observed_result_keeps_its_spans_as_span_objects(self):
        result = run_once("rbtree", "SI-TM", 4, 1, profile="test",
                          telemetry=True)
        assert result.spans
        assert all(type(span) is Span for span in result.spans)
        dicts = result.to_dict()["spans"]
        assert dicts == [span.to_dict() for span in result.spans]
        assert {tuple(row) for row in dicts} == {
            SPAN_COLUMNS, SPAN_COLUMNS + KILLER_COLUMNS}

    def test_an_observed_result_retains_few_bytes_per_span(self):
        run_once("rbtree", "SI-TM", 4, 1, profile="test",
                 telemetry=True)  # lazy imports load before tracing
        tracemalloc.start()
        try:
            result = run_once("kmeans", "2PL", 16, 1, profile="quick",
                              telemetry=True, profiling=True)
            spans = len(result.spans)
            gc.collect()
            held, _ = tracemalloc.get_traced_memory()
            result.spans = None
            gc.collect()
            without, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        per_span = (held - without) / spans
        assert per_span <= MAX_BYTES_PER_SPAN, per_span

    def test_an_observed_result_round_trips_through_json(self):
        result = run_once("rbtree", "SI-TM", 4, 1, profile="test",
                          telemetry=True, profiling=True)
        assert result.spans and result.metrics and result.phases
        data = json.loads(json.dumps(result.to_dict()))
        assert RunResult.from_dict(data) == result

    @pytest.mark.parametrize("observed", [
        {}, {"telemetry": True}, {"profiling": True},
        {"telemetry": True, "profiling": True}])
    def test_a_run_frees_its_machine_on_return(self, observed):
        """No reference cycle keeps a cell's machine alive until the
        cyclic collector happens to run."""
        def machines():
            return sum(isinstance(o, Machine) for o in gc.get_objects())

        gc.collect()
        gc.disable()
        try:
            before = machines()
            run_once("rbtree", "SI-TM", 2, 1, profile="test", **observed)
            assert machines() == before
        finally:
            gc.enable()


class TestRunSeeds:
    def test_aggregate_metrics(self):
        agg = run_seeds("rbtree", "SI-TM", 2, profile="test", seeds=2)
        assert len(agg.runs) == 2
        assert agg.throughput > 0
        assert agg.all_verified

    def test_mean_of_abort_rates(self):
        agg = run_seeds("kmeans", "2PL", 4, profile="test", seeds=2)
        rates = [r.abort_rate for r in agg.runs]
        assert agg.abort_rate == pytest.approx(sum(rates) / 2)

    def test_figure1_fraction(self):
        agg = run_seeds("list", "2PL", 4, profile="test", seeds=2)
        fraction = agg.read_write_fraction
        assert fraction is None or 0.0 <= fraction <= 1.0

    def test_throughput_stddev(self):
        agg = run_seeds("rbtree", "SI-TM", 2, profile="test", seeds=3)
        throughputs = [r.throughput for r in agg.runs]
        mean = sum(throughputs) / len(throughputs)
        variance = sum((t - mean) ** 2 for t in throughputs) / len(throughputs)
        assert agg.throughput_stddev == pytest.approx(variance ** 0.5)
        assert agg.throughput_rel_stddev == \
            pytest.approx(agg.throughput_stddev / mean)

    def test_rel_stddev_zero_when_identical(self):
        one = run_once("rbtree", "SI-TM", 2, 1, profile="test")
        from repro.harness.runner import Aggregate

        agg = Aggregate("rbtree", "SI-TM", 2, [one, one])
        assert agg.throughput_stddev == 0.0
        assert agg.throughput_rel_stddev == 0.0


class TestRunResultSerialization:
    def test_round_trip(self):
        from repro.harness.runner import RunResult

        result = run_once("rbtree", "SI-TM", 2, 1, profile="test")
        recovered = RunResult.from_dict(result.to_dict())
        assert recovered == result
        assert recovered.throughput == result.throughput

    def test_json_safe(self):
        import json

        from repro.harness.runner import RunResult

        result = run_once("list", "2PL", 2, 1, profile="test")
        recovered = RunResult.from_dict(json.loads(
            json.dumps(result.to_dict())))
        assert recovered == result


class TestSeedConstants:
    def test_defaults_documented(self):
        from repro.harness.runner import DEFAULT_SEEDS, PAPER_SEEDS

        assert DEFAULT_SEEDS == 3
        assert PAPER_SEEDS == 5
