"""Telemetry through the harness: specs, executor cache, CLI, fuzzer.

Pins the executor contract for telemetry payloads: a metrics snapshot
must survive the canonical-JSON cache and the process boundary
byte-identically, and a telemetry spec must never collide with its
plain twin in the cache.
"""

import json

from repro.harness.cli import main
from repro.harness.executor import Executor
from repro.harness.experiments import trace_specs
from repro.harness.runner import run_once
from repro.harness.spec import ExperimentSpec

SPEC = dict(workload="rbtree", system="SI-TM", threads=4, seed=1,
            profile="test")


class TestSpec:
    def test_telemetry_off_hash_unchanged(self):
        """telemetry=False must not appear in the canonical dict, so
        every pre-telemetry cache key stays valid."""
        plain = ExperimentSpec(**SPEC)
        assert "telemetry" not in plain.to_dict()
        assert plain.to_dict() == ExperimentSpec.from_dict(
            plain.to_dict()).to_dict()

    def test_telemetry_distinct_cache_key(self):
        plain = ExperimentSpec(**SPEC)
        traced = ExperimentSpec(**SPEC, telemetry=True)
        assert plain.spec_hash() != traced.spec_hash()

    def test_round_trip_preserves_flag(self):
        traced = ExperimentSpec(**SPEC, telemetry=True)
        clone = ExperimentSpec.from_dict(traced.to_dict())
        assert clone.telemetry and clone == traced
        assert str(traced).endswith("/telemetry")


class TestRunOnce:
    def test_telemetry_does_not_perturb_the_simulation(self):
        bare = run_once(**SPEC)
        traced = run_once(**SPEC, telemetry=True)
        assert (bare.commits, bare.aborts, bare.makespan_cycles) == (
            traced.commits, traced.aborts, traced.makespan_cycles)
        assert bare.metrics is None and bare.spans is None

    def test_telemetry_payloads_populated(self):
        result = run_once(**SPEC, telemetry=True)
        assert result.spans and result.metrics
        assert len(result.spans) == result.commits + result.aborts
        commits = result.metrics["counters"].get(
            "txn_commits_total{system=SI-TM}")
        assert commits == result.commits

    def test_backoff_and_wait_always_surfaced(self):
        result = run_once(workload="rbtree", system="2PL", threads=4,
                          seed=1, profile="test")
        assert result.backoff_cycles >= 0
        assert result.commit_wait_cycles >= 0


class TestExecutorCache:
    def test_snapshot_byte_identical_through_cache_and_processes(self):
        spec = ExperimentSpec(**SPEC, telemetry=True)
        cold = Executor(jobs=2, cache=True).run([spec])[spec]
        warm_executor = Executor(jobs=1, cache=True)
        warm = warm_executor.run([spec])[spec]
        assert warm_executor.counters()["cache_hits"] == 1
        assert (json.dumps(cold.to_dict(), sort_keys=True)
                == json.dumps(warm.to_dict(), sort_keys=True))

    def test_plain_and_telemetry_results_kept_apart(self):
        plain = ExperimentSpec(**SPEC)
        traced = ExperimentSpec(**SPEC, telemetry=True)
        results = Executor(jobs=1, cache=True).run([plain, traced])
        assert results[plain].metrics is None
        assert results[traced].metrics is not None


class TestTraceSpecs:
    def test_figure_names_expand_to_workload_sets(self):
        specs = trace_specs("figure7", system="SI-TM", threads=4)
        assert len(specs) > 1
        assert all(s.telemetry and s.system == "SI-TM" for s in specs)

    def test_single_workload_accepted(self):
        (spec,) = trace_specs("rbtree")
        assert spec.workload == "rbtree"

    def test_unknown_experiment_rejected(self):
        import pytest

        from repro.common.errors import ConfigError
        with pytest.raises(ConfigError):
            trace_specs("figure99")


class TestCli:
    def test_trace_writes_perfetto_loadable_json(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["trace", "--experiment", "figure7", "--backend",
                     "sitm", "--workloads", "rbtree", "--profile", "test",
                     "--threads", "4", "--out", str(out),
                     "--no-cache"]) == 0
        doc = json.loads(out.read_text())
        events = doc["traceEvents"]
        assert doc["displayTimeUnit"] == "ms"
        procs = [e for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"]
        tracks = [e for e in events
                  if e["ph"] == "M" and e["name"] == "thread_name"]
        slices = [e for e in events if e["ph"] == "X"]
        assert procs and tracks and slices, (
            len(procs), len(tracks), len(slices))
        for e in slices:
            assert {"name", "cat", "ts", "dur", "pid", "tid",
                    "args"} <= set(e), e
            assert e["cat"] in ("commit", "abort", "open"), e
        assert "Chrome trace written" in capsys.readouterr().out

    def test_metrics_command_prints_reports(self, capsys):
        assert main(["metrics", "--experiment", "rbtree", "--backend",
                     "sitm", "--profile", "test", "--threads", "4",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Abort attribution" in out
        assert "Run metrics" in out
        assert "mvm_versions_installed" in out

    def test_blame_exports_a_conserving_graph_and_ledger(self, tmp_path,
                                                         capsys):
        """``blame`` on the pinned grid (rbtree, SI-TM, 4 threads): the
        DOT graph is whole, and the JSON ledger conserves — edge cycles
        sum to the wasted total, classes to the aborts."""
        dot, ledger = tmp_path / "conflicts.dot", tmp_path / "blame.json"
        assert main(["blame", "--experiment", "rbtree", "--backend",
                     "sitm", "--profile", "test", "--threads", "4",
                     "--top", "10", "--dot", str(dot),
                     "--json", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "killer" in out
        assert "conflict graph (DOT) written" in out
        assert "provenance report (JSON) written" in out
        merged = json.loads(ledger.read_text())["merged"]
        assert merged["schema_version"] == 1
        assert merged["aborts"] > 0, "pinned grid should abort"
        assert sum(e["wasted_cycles"] for e in merged["edges"]) \
            == merged["wasted_cycles"]
        assert sum(merged["by_class"].values()) == merged["aborts"]
        graph = dot.read_text()
        assert graph.startswith("digraph conflicts {")
        assert graph.rstrip().endswith("}")

    def test_backend_aliases_normalised(self, tmp_path):
        from repro.harness.cli import build_parser
        for alias, canon in (("sitm", "SI-TM"), ("2pl", "2PL"),
                             ("SSI", "SSI-TM"), ("logtm", "LogTM")):
            args = build_parser().parse_args(["trace", "--backend", alias])
            assert args.backend == canon


class TestFuzzSpanLog:
    def test_repro_persists_span_log_pointer(self, tmp_path, capsys):
        fuzz_dir = tmp_path / "fuzz"
        assert main(["fuzz", "--backend", "SI-TM", "--schedules", "4",
                     "--broken", "no-ww", "--no-cache",
                     "--fuzz-out", str(fuzz_dir)]) == 1
        (repro_path,) = fuzz_dir.glob("repro-*.json")
        payload = json.loads(repro_path.read_text())
        span_path = fuzz_dir / payload["span_log"]
        assert span_path.exists()
        rows = [json.loads(line)
                for line in span_path.read_text().splitlines()]
        assert rows and all(row["system"] == "SI-TM" for row in rows)

    def test_replay_re_emits_chrome_trace(self, tmp_path, capsys):
        fuzz_dir = tmp_path / "fuzz"
        main(["fuzz", "--backend", "SI-TM", "--schedules", "4",
              "--broken", "no-ww", "--no-cache",
              "--fuzz-out", str(fuzz_dir)])
        capsys.readouterr()
        (repro_path,) = fuzz_dir.glob("repro-*.json")
        trace_path = tmp_path / "replay.json"
        main(["fuzz", "--replay", str(repro_path), "--broken", "no-ww",
              "--trace-out", str(trace_path), "--no-cache"])
        doc = json.loads(trace_path.read_text())
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
        assert "span log:" in capsys.readouterr().out
