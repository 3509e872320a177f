"""Simulator workloads: transparency of the wrappers, and a smoke each."""

import json
import pathlib

import pytest

from perfbench import sim, tracing

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}

COUNTS = ("commits", "aborts", "makespan_cycles", "reads", "writes",
          "abort_causes", "mvm_stats", "verified")


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(sim, "PROFILE", "test")
    monkeypatch.setattr(sim, "THREADS", 4)
    monkeypatch.setattr(sim, "CELL_SEEDS", 1)
    monkeypatch.setattr(sim, "MIN_REPS", 1)


def patched():
    """Every patch point of the traced pass, as it currently stands."""
    import repro.harness.runner as runner
    import repro.obs as obs
    from repro.harness.executor import Executor
    from repro.harness.spec import ExperimentSpec
    return (runner.Machine, runner.Engine, runner.REGISTRY, runner.SYSTEMS,
            obs.collect_run_metrics, obs.record_provenance_metrics,
            ExperimentSpec.__dict__["run"], Executor.__dict__["run"])


def test_traced_cell_reports_what_run_once_reports():
    from repro.harness.runner import run_once
    from repro.harness.spec import ExperimentSpec
    plain = run_once("rbtree", "SI-TM", 4, 7, "test")
    spans = tracing.SpanTracer()
    counters = tracing.install_sim(spans)
    try:
        traced = ExperimentSpec("rbtree", "SI-TM", 4, 7, "test").run()
    finally:
        spans.uninstall()
    for field in COUNTS:
        assert getattr(traced, field) == getattr(plain, field), field
    # the wrappers really sat on the hot path, below the hoisting
    assert spans.calls("tm.read") == plain.reads
    assert spans.calls("tm.write") == plain.writes
    assert spans.calls("tm.commit") >= plain.commits
    assert spans.calls("mem.access") > 0
    assert spans.calls("mvm.snapshot_read") > 0
    assert counters.steps > plain.reads
    assert 0.0 < spans.self_time("sim.") < spans.busy("sim.run")


def test_untraced_pass_installs_no_wrappers(tiny, tmp_path):
    before = patched()
    out = sim.run("sim_bare", 3, 0.0, False, tmp_path, setup_repeats=1)
    assert patched() == before
    assert out["per_layer"] is None
    assert out["problems"] == [] and out["failed"] == 0
    assert set(out["gated"]) | {"setup_s", "peak_rss_mb"} == END_TO_END


@pytest.mark.parametrize("name", ["sim_bare", "sim_observed"])
def test_traced_smoke(name, tiny, tmp_path):
    before = patched()
    out = sim.run(name, 1, 0.0, True, tmp_path, setup_repeats=1)
    assert patched() == before, "traced pass left a wrapper behind"
    assert out["problems"] == [] and out["failed"] == 0
    assert out["attempted"] == 2 * len(sim.build_plan(name, 1).specs)
    layers = out["per_layer"]
    assert set(layers) <= PER_LAYER
    assert layers["sim.commits"] > 0 and layers["tm.read.calls"] > 0
    observed = name == "sim_observed"
    assert (layers["obs.hook.calls"] > 0) == observed
    # layer self times account for the traced wall
    explained = sum(layers[f"{layer}.self_s"] for layer in
                    ("harness", "workloads", "sim", "tm", "mem", "mvm",
                     "obs"))
    assert explained == pytest.approx(layers["trace.wall_s"], rel=0.02)
    assert layers["trace.overhead_ratio"] > 0
    assert not list(tmp_path.glob("cache-*")), "cache dirs left behind"


def test_a_plan_holds_the_grid_under_two_cell_seeds():
    specs = sim.build_plan("sim_bare", 5).specs
    assert len(specs) == 30 and len(set(specs)) == 30
    assert {spec.seed for spec in specs} == {6, 7}


def test_same_seed_same_inputs_other_seed_other_inputs(tiny):
    assert sim.build_plan("sim_bare", 5).specs == \
        sim.build_plan("sim_bare", 5).specs
    assert sim.build_plan("sim_bare", 5).specs != \
        sim.build_plan("sim_bare", 6).specs


def test_wrong_commit_count_is_a_failure(tiny, tmp_path):
    plan = sim.build_plan("sim_bare", 1)
    plan.planned["rbtree", 2] += 1
    run = sim.Pass(plan, tmp_path).run(0.0, "t", 1)
    assert run.failed == 3      # rbtree under SI-TM, 2PL and SONTM
    assert all("planned" in p for p in run.problems)
