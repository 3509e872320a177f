"""ExperimentSpec tests: canonical form, hashing, round trips, grids."""

import json

import pytest

from repro.common.config import MVMConfig, SimConfig, VersionCapPolicy
from repro.harness.spec import ExperimentSpec, grid, seed_specs


class TestCanonicalForm:
    def test_json_round_trip(self):
        spec = ExperimentSpec("rbtree", "SI-TM", 8, 3, "quick")
        recovered = ExperimentSpec.from_dict(
            json.loads(json.dumps(spec.to_dict())))
        assert recovered == spec

    def test_config_round_trip(self):
        config = SimConfig(mvm=MVMConfig(
            cap_policy=VersionCapPolicy.UNBOUNDED, census=True))
        spec = ExperimentSpec("list", "SI-TM", 4, 1, "test", config)
        recovered = ExperimentSpec.from_dict(
            json.loads(json.dumps(spec.to_dict())))
        assert recovered == spec
        assert recovered.config.mvm.census is True

    def test_default_config_stays_none(self):
        spec = ExperimentSpec("list", "2PL", 2, 1)
        assert spec.to_dict()["config"] is None
        assert ExperimentSpec.from_dict(spec.to_dict()).config is None

    def test_hashable_dict_key(self):
        a = ExperimentSpec("list", "2PL", 2, 1, "test")
        b = ExperimentSpec("list", "2PL", 2, 1, "test")
        assert {a: 1}[b] == 1


class TestFaultsOnSpecs:
    """``faults=None`` must be invisible: pre-existing spec hashes (and
    therefore every result-cache key) survive the introduction of fault
    injection."""

    def test_plain_spec_dict_omits_faults(self):
        spec = ExperimentSpec("list", "2PL", 2, 1, "test")
        assert "faults" not in spec.to_dict()
        assert "faults" not in json.loads(
            ExperimentSpec("list", "2PL", 2, 1, "test",
                           SimConfig()).canonical_json())["config"]

    def test_plain_spec_hash_is_pinned(self):
        # the literal pre-faults hash: if this moves, every cached
        # result and bench baseline silently mismatches — change it
        # only with a deliberate cache-busting commit
        spec = ExperimentSpec("list", "2PL", 2, 1, "test")
        assert spec.canonical_json() == (
            '{"config":null,"profile":"test","seed":1,"system":"2PL",'
            '"threads":2,"workload":"list"}')
        assert spec.spec_hash() == "408bb8a41bb83ee4f1d0e688"

    def test_faulted_spec_round_trips(self):
        from repro.faults import FaultPlan
        plan = FaultPlan(abort_rate=0.5, overflow_at_commits=(1, 3))
        spec = ExperimentSpec("list", "SI-TM", 2, 1, "test", faults=plan)
        recovered = ExperimentSpec.from_dict(
            json.loads(json.dumps(spec.to_dict())))
        assert recovered == spec
        assert recovered.faults.overflow_at_commits == (1, 3)
        assert "/faults" in str(spec)

    def test_faults_feed_the_hash(self):
        from repro.faults import FaultPlan
        plain = ExperimentSpec("list", "SI-TM", 2, 1, "test")
        faulted = ExperimentSpec("list", "SI-TM", 2, 1, "test",
                                 faults=FaultPlan(abort_rate=0.5))
        assert plain.spec_hash() != faulted.spec_hash()

    def test_faulted_spec_cache_round_trip(self, tmp_path):
        from repro.faults import FaultPlan
        from repro.harness.executor import ResultCache
        from repro.sim.retry import RetryPolicy
        config = SimConfig(retry=RetryPolicy(attempt_budget=3,
                                             stall_budget=8,
                                             starvation_age_cycles=20_000))
        spec = ExperimentSpec("list", "SI-TM", 2, 1, "test", config,
                              faults=FaultPlan(abort_rate=0.5))
        cache = ResultCache(tmp_path)
        result = spec.run()
        cache.store(spec, result)
        assert cache.load(spec) == result


class TestSpecHash:
    def test_stable_across_instances(self):
        a = ExperimentSpec("list", "2PL", 2, 1, "test")
        b = ExperimentSpec("list", "2PL", 2, 1, "test")
        assert a.spec_hash() == b.spec_hash()

    def test_every_field_matters(self):
        base = ExperimentSpec("list", "2PL", 2, 1, "test")
        variants = [
            ExperimentSpec("rbtree", "2PL", 2, 1, "test"),
            ExperimentSpec("list", "SI-TM", 2, 1, "test"),
            ExperimentSpec("list", "2PL", 4, 1, "test"),
            ExperimentSpec("list", "2PL", 2, 2, "test"),
            ExperimentSpec("list", "2PL", 2, 1, "quick"),
            ExperimentSpec("list", "2PL", 2, 1, "test",
                           SimConfig(compute_cycles=2)),
        ]
        hashes = {spec.spec_hash() for spec in variants}
        assert base.spec_hash() not in hashes
        assert len(hashes) == len(variants)

    def test_config_fingerprint_feeds_hash(self):
        default_config = ExperimentSpec("list", "2PL", 2, 1, "test",
                                        SimConfig())
        tweaked = ExperimentSpec("list", "2PL", 2, 1, "test",
                                 SimConfig(txn_overhead_cycles=5))
        assert default_config.spec_hash() != tweaked.spec_hash()


class TestRun:
    def test_run_matches_run_once(self):
        from repro.harness.runner import run_once

        spec = ExperimentSpec("rbtree", "SI-TM", 2, 1, "test")
        assert spec.run() == run_once("rbtree", "SI-TM", 2, 1, "test")


class TestGridHelpers:
    def test_seed_specs_consecutive(self):
        specs = seed_specs("list", "2PL", 2, "test", seeds=3, seed0=5)
        assert [s.seed for s in specs] == [5, 6, 7]
        assert all(s.workload == "list" for s in specs)

    def test_grid_shape_and_order(self):
        specs = grid(["a", "b"], ["2PL", "SI-TM"], (2, 4), "test", seeds=2)
        assert len(specs) == 2 * 2 * 2 * 2
        # row-major: workload outermost, seeds innermost
        assert specs[0] == ExperimentSpec("a", "2PL", 2, 1, "test")
        assert specs[1] == ExperimentSpec("a", "2PL", 2, 2, "test")
        assert specs[-1] == ExperimentSpec("b", "SI-TM", 4, 2, "test")

    def test_grid_deterministic(self):
        args = (["x"], ["2PL"], (2,), "test")
        assert grid(*args) == grid(*args)
