"""Cycle-attribution profiler: conservation, composition, heatmaps.

The load-bearing contract is cycle conservation — per-thread phase
totals sum *exactly* to the engine's final thread clocks for every
backend — plus the telemetry promise the rest of ``repro.obs`` makes:
profiling a run never perturbs it, alone or composed with the span
recorder in a :class:`~repro.obs.spans.MultiTracer`, as witnessed by
the oracle's recorded history staying byte-identical.
"""

import dataclasses
import json

import pytest

from repro.common.config import SimConfig
from repro.common.errors import SimulationError
from repro.common.rng import SplitRandom, derive_seed
from repro.harness.runner import run_once
from repro.obs import (CycleProfiler, MultiTracer, SpanRecorder,
                       collapsed_stacks, conflict_heatmap, phase_shares,
                       phase_table)
from repro.obs.profile import PHASES, SUB_PHASES
from repro.sim.engine import Engine
from repro.sim.machine import Machine
from repro.tm import SYSTEMS
from repro.workloads import REGISTRY

SPEC = dict(workload="rbtree", system="SI-TM", threads=4, seed=1,
            profile="test")
#: the contended cell the span-ledger and heatmap checks observe
LIST_CELL = dict(workload="list", threads=4, seed=2, profile="test",
                 telemetry=True, profiling=True)


@pytest.fixture(scope="module")
def shared():
    """``shared(fn, *args, **kwargs)`` is ``fn``'s result, computed once
    per distinct call for the whole module: the checks below only read
    a run, so they share it."""
    results = {}

    def call(fn, *args, **kwargs):
        key = (fn, args, tuple(sorted(kwargs.items())))
        if key not in results:
            results[key] = fn(*args, **kwargs)
        return results[key]
    return call


def _run_engine(system, tracer=None, workload="rbtree", threads=4, seed=5):
    """Drive one workload run directly through the engine."""
    config = SimConfig()
    if threads > config.machine.cores:
        config = config.replace(
            machine=dataclasses.replace(config.machine, cores=threads))
    machine = Machine(config)
    rng = SplitRandom(derive_seed(seed, "profile-test", workload, system))
    bench = REGISTRY.create(workload, profile="test")
    instance = bench.setup(machine, threads, rng.split("workload"))
    tm = SYSTEMS[system](machine, rng.split("tm"))
    engine = Engine(tm, instance.programs, tracer=tracer)
    return engine.run()


def _profiled_engine(system):
    """(profiler, stats) of one profiled engine run."""
    profiler = CycleProfiler()
    return profiler, _run_engine(system, tracer=profiler)


class TestConservation:
    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_phase_cycles_sum_to_thread_clocks(self, shared, system):
        """The invariant, checked for every backend: no cycle is lost
        or invented, and no sub-phase group exceeds its parent."""
        profiler, stats = shared(_profiled_engine, system)
        clocks = [t.cycles for t in stats.threads]
        profiler.check_conservation(clocks)  # raises on violation
        assert profiler.total_cycles() == sum(clocks)
        assert stats.total_commits > 0

    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_only_known_phases_charged(self, shared, system):
        profiler, _ = shared(_profiled_engine, system)
        snapshot = profiler.snapshot()
        for phases in snapshot["threads"].values():
            assert set(phases) <= set(PHASES)
            for phase, entry in phases.items():
                assert set(entry["sub"]) <= set(SUB_PHASES.get(phase, ()))

    def test_a_profiler_on_the_machine_alone_sees_every_cycle(self):
        """Without the tracer slot the engine still hands itself to the
        profiler, which folds in the per-operation cycles."""
        machine = Machine(SimConfig())
        profiler = CycleProfiler()
        machine.enable_profiling(profiler)
        rng = SplitRandom(derive_seed(5, "machine-profiler"))
        instance = REGISTRY.create("rbtree", profile="test").setup(
            machine, 4, rng.split("workload"))
        tm = SYSTEMS["SI-TM"](machine, rng.split("tm"))
        stats = Engine(tm, instance.programs).run()
        clocks = [t.cycles for t in stats.threads]
        profiler.check_conservation(clocks)
        assert profiler.total_cycles() == sum(clocks)
        assert all("read" in phases
                   for phases in profiler.snapshot()["threads"].values())

    def test_check_conservation_rejects_lost_cycles(self):
        profiler = CycleProfiler()
        profiler.account(0, "read", 10)
        with pytest.raises(SimulationError, match="conservation"):
            profiler.check_conservation([11])

    def test_check_conservation_rejects_sub_phase_overflow(self):
        profiler = CycleProfiler()
        profiler.account(0, "commit", 10)
        profiler.sub_account(0, "commit", "install", 12)
        with pytest.raises(SimulationError, match="overflow"):
            profiler.check_conservation([10])

    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_wasted_cycles_reconcile_with_span_ledger(self, shared, system):
        """Double-entry bookkeeping across observers: the profiler's
        per-thread wasted-cycle tally (clock at abort minus clock at
        begin) must equal the span ledger's per-victim-thread sum of
        abort-span durations, exactly, for every backend.  The harness
        enforces this via ``check_conservation(wasted_by_thread=...)``
        on every telemetry+profiling run — which is what this exercises
        end-to-end."""
        result = shared(run_once, **LIST_CELL, system=system)
        by_thread = {}
        for span in result.spans:
            if span.outcome == "abort":
                by_thread[span.thread_id] = (
                    by_thread.get(span.thread_id, 0) + span.duration)
        assert by_thread, f"{system}: contended run should abort"
        snapshot = result.phases
        assert snapshot["version"] == 2
        wasted = {int(tid): cycles
                  for tid, cycles in snapshot["wasted_cycles"].items()}
        assert wasted == by_thread

    def test_check_conservation_rejects_wasted_overflow(self):
        profiler = CycleProfiler()
        profiler.account(0, "read", 10)
        profiler._wasted[0] = 11  # more waste than the thread ran
        with pytest.raises(SimulationError, match="wasted-cycle"):
            profiler.check_conservation([10])

    def test_check_conservation_rejects_ledger_mismatch(self):
        profiler = CycleProfiler()
        profiler.account(0, "read", 10)
        profiler._wasted[0] = 4
        with pytest.raises(SimulationError, match="reconciliation"):
            profiler.check_conservation([10], wasted_by_thread={0: 5})
        profiler.check_conservation([10], wasted_by_thread={0: 4})

    def test_backend_specific_sub_phases_observed(self):
        """Each instrumented layer's attribution actually fires: SI-TM
        installs, LogTM undo walks, 2PL backoff."""
        expected = {"SI-TM": ("commit", "install"),
                    "LogTM": ("abort", "undo"),
                    "2PL": ("abort", "backoff")}
        for system, (parent, sub) in expected.items():
            profiler = CycleProfiler()
            _run_engine(system, tracer=profiler, workload="list",
                        threads=4, seed=2)
            snapshot = profiler.snapshot()
            seen = {s
                    for phases in snapshot["threads"].values()
                    for phase, entry in phases.items() if phase == parent
                    for s in entry["sub"]}
            assert sub in seen, (system, snapshot)


class TestNonPerturbation:
    def test_profiling_does_not_perturb_the_simulation(self, shared):
        bare = shared(run_once, **SPEC)
        profiled = shared(run_once, **SPEC, profiling=True)
        assert (bare.commits, bare.aborts, bare.makespan_cycles) == (
            profiled.commits, profiled.aborts, profiled.makespan_cycles)
        assert bare.phases is None and profiled.phases is not None

    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_fuzz_history_identical_under_profiler(self, system):
        """The oracle's witness: composing the profiler (via
        MultiTracer) into a fuzz run leaves the recorded history and
        final memory byte-identical."""
        from repro.oracle.fuzz import generate_schedule, run_schedule
        schedule = generate_schedule(0, 3)
        plain_history, plain_final = run_schedule(schedule, system)
        profiler = CycleProfiler()
        traced_history, traced_final = run_schedule(schedule, system,
                                                    tracer=profiler)
        assert traced_final == plain_final
        assert traced_history.to_dict() == plain_history.to_dict()
        assert profiler.total_cycles() > 0

    def test_spans_identical_with_and_without_profiler(self, shared):
        solo = shared(run_once, **SPEC, telemetry=True)
        both = shared(run_once, **SPEC, telemetry=True, profiling=True)
        assert solo.spans == both.spans
        assert solo.metrics == both.metrics


class TestMultiTracerComposition:
    def test_children_called_in_construction_order(self):
        calls = []

        class Probe:
            def __init__(self, name):
                self.name = name

            def on_abort(self, txn, cause):
                calls.append(self.name)

        MultiTracer(Probe("first"), Probe("second")).on_abort(None, None)
        assert calls == ["first", "second"]

    def test_recorder_and_profiler_agree_on_conflicts(self):
        """Composed SpanRecorder + CycleProfiler see the same aborts:
        span conflict_lines and the profiler's heatmap match."""
        recorder = SpanRecorder()
        profiler = CycleProfiler()
        _run_engine("SI-TM", tracer=MultiTracer(recorder, profiler),
                    workload="list", threads=4, seed=2)
        span_lines = [s.conflict_line for s in recorder.spans
                      if s.outcome == "abort"
                      and s.conflict_line is not None]
        heatmap = profiler.snapshot()["conflict_lines"]
        assert sum(count for causes in heatmap.values()
                   for count in causes.values()) == len(span_lines)
        for line in span_lines:
            assert str(line) in heatmap


class TestSnapshotAndExports:
    @pytest.fixture
    def snapshot(self, shared):
        return shared(run_once, **SPEC, profiling=True).phases

    def test_snapshot_json_round_trips_byte_identically(self, snapshot):
        encoded = json.dumps(snapshot, sort_keys=True)
        assert json.dumps(json.loads(encoded), sort_keys=True) == encoded
        again = run_once(**SPEC, profiling=True).phases
        assert json.dumps(again, sort_keys=True) == encoded

    def test_phase_shares_sum_to_one(self, snapshot):
        shares = phase_shares(snapshot)
        assert shares and abs(sum(shares.values()) - 1.0) < 1e-9
        assert phase_shares({"threads": {}}) == {}

    def test_collapsed_stacks_conserve_cycles(self, snapshot):
        stacks = collapsed_stacks(snapshot, root="run")
        total = 0
        for line in stacks.splitlines():
            stack, cycles = line.rsplit(" ", 1)
            assert stack.startswith("run;")
            total += int(cycles)
        grand = sum(entry["cycles"]
                    for phases in snapshot["threads"].values()
                    for entry in phases.values())
        assert total == grand

    def test_collapsed_stacks_per_thread_frames(self, snapshot):
        stacks = collapsed_stacks(snapshot, per_thread=True)
        assert ";thread-0;" in stacks

    def test_phase_table_reports_conserved_total(self, snapshot):
        table = phase_table(snapshot)
        grand = sum(entry["cycles"]
                    for phases in snapshot["threads"].values()
                    for entry in phases.values())
        assert f"total charged cycles: {grand}" in table
        assert "commit" in table


class TestConflictHeatmap:
    def test_heatmap_ranks_aborting_lines(self, shared):
        result = shared(run_once, **LIST_CELL, system="SI-TM")
        spans = result.spans
        report = conflict_heatmap(spans, result.phases)
        assert "Conflict heatmap" in report
        aborted = [s for s in spans if s.outcome == "abort"
                   and s.conflict_line is not None]
        if aborted:
            hottest = max(aborted,
                          key=lambda s: s.end_cycle - s.begin_cycle)
            assert f"0x{hottest.conflict_line:x}" in report

    def test_heatmap_on_clean_run(self, shared):
        result = shared(run_once, workload="array", system="SI-TM",
                        threads=1, seed=1, profile="test", telemetry=True,
                        profiling=True)
        assert "no aborts observed" in conflict_heatmap(
            result.spans, result.phases)


class TestHarnessIntegration:
    def test_profiling_spec_distinct_cache_key(self):
        from repro.harness.spec import ExperimentSpec
        plain = ExperimentSpec(**SPEC)
        profiled = ExperimentSpec(**SPEC, profiling=True)
        assert "profiling" not in plain.to_dict()
        assert plain.spec_hash() != profiled.spec_hash()
        clone = ExperimentSpec.from_dict(profiled.to_dict())
        assert clone.profiling and clone == profiled
        assert str(profiled).endswith("/profiling")

    def test_phases_survive_cache_and_process_boundary(self):
        from repro.harness.executor import Executor
        from repro.harness.spec import ExperimentSpec
        spec = ExperimentSpec(**SPEC, profiling=True)
        cold = Executor(jobs=2, cache=True).run([spec])[spec]
        warm_executor = Executor(jobs=1, cache=True)
        warm = warm_executor.run([spec])[spec]
        assert warm_executor.counters()["cache_hits"] == 1
        assert cold.phases is not None
        assert (json.dumps(cold.phases, sort_keys=True)
                == json.dumps(warm.phases, sort_keys=True))
