"""Executor tests: cache behaviour, parallel determinism, ordering.

The determinism tests are the load-bearing ones: the acceptance bar for
the execution layer is that the same spec produces field-identical
results in-process, through a worker pool, and from the cache.
"""

import dataclasses
import json

import pytest

from repro.common.config import SimConfig
from repro.common.errors import ConfigError
from repro.faults import FaultPlan
from repro.harness.executor import (
    Executor,
    ResultCache,
    RunFailure,
    code_fingerprint,
    serial_executor,
)
from repro.harness.spec import ExperimentSpec
from repro.obs.spans import Span

SPEC = ExperimentSpec("rbtree", "SI-TM", 2, 1, "test")
#: a cell whose spans include aborts with and without a killer
OBSERVED = ExperimentSpec("rbtree", "SI-TM", 4, 1, "test",
                          telemetry=True, profiling=True)
SPECS = [ExperimentSpec("list", "2PL", 2, seed, "test")
         for seed in (1, 2, 3)]


class TestCodeFingerprint:
    def test_stable_within_process(self):
        assert code_fingerprint() == code_fingerprint()

    def test_hex_string(self):
        fp = code_fingerprint()
        assert len(fp) == 16
        int(fp, 16)


class TestResultCache:
    def test_store_load_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = SPEC.run()
        cache.store(SPEC, result)
        assert cache.load(SPEC) == result

    def test_observed_result_round_trips_through_span_rows(self, tmp_path):
        """A result's spans are cached as the values of their canonical
        dicts, in order (killer fields only where the span had one: the
        format cache entries have always had), and load back as equal
        Span objects."""
        cache = ResultCache(tmp_path)
        result = OBSERVED.run()
        assert any(span.has_killer for span in result.spans)
        assert not all(span.has_killer for span in result.spans)
        cache.store(OBSERVED, result)
        stored = json.loads(cache.path(OBSERVED).read_text())["result"]
        assert stored["spans"] == [list(row.values())
                                   for row in result.to_dict()["spans"]]
        loaded = cache.load(OBSERVED)
        assert loaded == result
        assert all(type(span) is Span for span in loaded.spans)

    def test_miss_on_empty(self, tmp_path):
        assert ResultCache(tmp_path).load(SPEC) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(SPEC, SPEC.run())
        cache.path(SPEC).write_text("not json")
        assert cache.load(SPEC) is None

    def test_stale_fingerprint_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(SPEC, SPEC.run())
        payload = json.loads(cache.path(SPEC).read_text())
        payload["fingerprint"] = "0" * 16
        cache.path(SPEC).write_text(json.dumps(payload))
        assert cache.load(SPEC) is None

    def test_clear_and_stats(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(SPEC, SPEC.run())
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["current_code"] == 1
        assert cache.clear() == 1
        assert cache.stats()["entries"] == 0

    def test_env_var_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SITM_CACHE_DIR", str(tmp_path / "env"))
        assert ResultCache().root == tmp_path / "env"


class TestExecutorCaching:
    def test_second_run_fully_cached(self, tmp_path):
        first = Executor(jobs=1, cache=True, cache_dir=tmp_path)
        results1 = first.run(SPECS)
        assert first.counters()["cache_misses"] == len(SPECS)

        second = Executor(jobs=1, cache=True, cache_dir=tmp_path)
        results2 = second.run(SPECS)
        counters = second.counters()
        assert counters["cache_hits"] == len(SPECS)
        assert counters["executed"] == 0
        assert counters["hit_rate"] == 1.0
        assert results1 == results2

    def test_no_cache_leaves_disk_untouched(self, tmp_path):
        executor = Executor(jobs=1, cache=False, cache_dir=tmp_path)
        executor.run([SPEC])
        assert not list(tmp_path.glob("*.json"))

    def test_refresh_recomputes_but_stores(self, tmp_path):
        Executor(jobs=1, cache=True, cache_dir=tmp_path).run([SPEC])
        refresher = Executor(jobs=1, cache=True, refresh=True,
                             cache_dir=tmp_path)
        refresher.run([SPEC])
        assert refresher.counters()["executed"] == 1
        # entry is still (re)stored for the next non-refresh run
        follower = Executor(jobs=1, cache=True, cache_dir=tmp_path)
        follower.run([SPEC])
        assert follower.counters()["cache_hits"] == 1

    def test_duplicate_specs_computed_once(self, tmp_path):
        executor = Executor(jobs=1, cache=False, cache_dir=tmp_path)
        results = executor.run([SPEC, SPEC, SPEC])
        assert executor.counters()["executed"] == 1
        assert len(results) == 1


class TestDeterminismAcrossProcesses:
    """Same spec, same numbers: in-process vs pool vs cache."""

    def test_pool_matches_inline(self):
        inline = {spec: spec.run() for spec in SPECS}
        pooled = Executor(jobs=2, cache=False).run(SPECS)
        for spec in SPECS:
            assert dataclasses.asdict(pooled[spec]) == \
                dataclasses.asdict(inline[spec])

    def test_pool_carries_spans_as_inline(self):
        inline = OBSERVED.run()
        pooled = Executor(jobs=2, cache=False).run([OBSERVED, SPEC])
        assert pooled[OBSERVED].spans == inline.spans
        assert any(span.has_killer for span in pooled[OBSERVED].spans)
        assert all(type(span) is Span for span in pooled[OBSERVED].spans)

    def test_pool_with_custom_config(self):
        config = SimConfig(txn_overhead_cycles=10)
        spec = ExperimentSpec("list", "SI-TM", 2, 1, "test", config)
        pooled = Executor(jobs=2, cache=False).run([spec, SPEC])
        assert pooled[spec] == spec.run()

    def test_cached_result_field_identical(self, tmp_path):
        Executor(jobs=1, cache=True, cache_dir=tmp_path).run([SPEC])
        cached = Executor(jobs=1, cache=True,
                          cache_dir=tmp_path).run([SPEC])[SPEC]
        assert dataclasses.asdict(cached) == \
            dataclasses.asdict(SPEC.run())


class TestOrdering:
    def test_result_map_in_input_order(self, tmp_path):
        executor = Executor(jobs=1, cache=False, cache_dir=tmp_path)
        shuffled = [SPECS[2], SPECS[0], SPECS[1]]
        results = executor.run(shuffled)
        assert list(results) == shuffled

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            Executor(jobs=-1)

    def test_jobs_zero_means_cpu_count(self):
        assert Executor(jobs=0).jobs >= 1

    def test_serial_executor_defaults(self):
        executor = serial_executor()
        assert executor.jobs == 1
        assert executor.use_cache is False


@dataclasses.dataclass(frozen=True)
class _BoomSpec:
    """Minimal spec whose run always raises (inline quarantine path)."""

    exc: type = RuntimeError

    def run(self):
        raise self.exc("boom")

    def spec_hash(self):
        return "f" * 24

    def __str__(self):
        return "boom/spec"


class TestCrashTolerance:
    """A grid must never die of one bad cell (see ISSUE acceptance)."""

    def _crash_spec(self):
        return ExperimentSpec("array", "SI-TM", 2, 1, "test",
                              faults=FaultPlan(crash_at_begin=3))

    def test_run_failure_round_trips(self):
        failure = RunFailure(spec="x", spec_hash="0" * 24, kind="crash",
                             message="worker died", attempts=2)
        assert RunFailure.from_dict(failure.to_dict()) == failure
        assert failure.failed is True

    def test_results_have_no_failed_flag(self):
        assert not getattr(SPEC.run(), "failed", False)

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError):
            Executor(timeout=0)
        with pytest.raises(ValueError):
            Executor(timeout=-1.5)

    def test_worker_crash_mid_grid_is_quarantined(self, tmp_path):
        # one cell SIGKILLs its worker; the grid must complete around
        # it with a structured record, never an unhandled traceback
        crash = self._crash_spec()
        grid = [SPECS[0], crash, SPECS[1], SPECS[2]]
        executor = Executor(jobs=2, cache=True, cache_dir=tmp_path)
        results = executor.run(grid)
        failure = results[crash]
        assert isinstance(failure, RunFailure)
        assert failure.kind == "crash"
        assert failure.attempts == Executor.MAX_ATTEMPTS
        for spec in SPECS:
            assert not getattr(results[spec], "failed", False)
        assert executor.counters()["failures"] == 1
        # failures are never cached: only the three good cells persist
        assert len(list(tmp_path.glob("*.json"))) == 3

    def test_hung_worker_times_out(self):
        hang = ExperimentSpec(
            "array", "SI-TM", 2, 1, "test",
            faults=FaultPlan(hang_at_begin=2, hang_seconds=60.0))
        executor = Executor(jobs=2, cache=False, timeout=1.0)
        results = executor.run([SPECS[0], hang])
        assert isinstance(results[hang], RunFailure)
        assert results[hang].kind == "timeout"
        assert not getattr(results[SPECS[0]], "failed", False)

    def test_inline_exception_is_quarantined(self):
        boom = _BoomSpec()
        results = Executor(jobs=1, cache=False).run([boom])
        failure = results[boom]
        assert isinstance(failure, RunFailure)
        assert failure.kind == "error"
        assert "RuntimeError: boom" in failure.message

    def test_config_error_always_propagates(self):
        # a misconfigured spec is the caller's bug, not a fault
        with pytest.raises(ConfigError):
            Executor(jobs=1, cache=False).run([_BoomSpec(exc=ConfigError)])
