"""Chaos-campaign tests: every fault site fires, the report stays honest.

These run the real server, real sockets, and the real live monitor —
small seeded plans keep them fast while still covering disconnects,
slow-loris peers, shard stalls, forced crashes, admission floods, and
the ``no-fcw`` and ``per-shard-pin`` monitor self-tests.
"""

import dataclasses

import pytest

from repro.common.errors import ConfigError
from repro.store.chaos import CHAOS_SITES, ChaosPlan, run_chaos_campaign
from repro.store.session import StoreConfig


def small_config(**overrides) -> StoreConfig:
    defaults = dict(shards=2, seed=3, deadline_ms=4_000,
                    idle_timeout_ms=4_000)
    defaults.update(overrides)
    return StoreConfig(**defaults)


class TestPlan:
    def test_defaults_are_quiet(self):
        assert not ChaosPlan().active()

    def test_each_site_activates_the_plan(self):
        for overrides in (dict(disconnect_rate=0.5),
                          dict(slow_loris_sessions=1),
                          dict(stall_shard=0, stall_ms=10),
                          dict(crash_shard=0),
                          dict(flood_sessions=4)):
            assert ChaosPlan(**overrides).active()

    def test_round_trips_through_dict(self):
        plan = ChaosPlan(seed=9, disconnect_rate=0.25, crash_shard=1,
                         crash_after_txns=7, flood_sessions=3)
        assert ChaosPlan.from_dict(plan.to_dict()) == plan

    def test_from_dict_ignores_unknown_keys(self):
        assert ChaosPlan.from_dict({"seed": 5, "vintage": 2014}).seed == 5

    def test_validation_rejects_bad_fields(self):
        for overrides in (dict(sessions=0), dict(txns_per_session=0),
                          dict(keys=0), dict(write_fraction=1.5),
                          dict(disconnect_rate=-0.1),
                          dict(zipf_theta=-1.0),
                          dict(slow_loris_sessions=-1),
                          dict(stall_shard=-2), dict(stall_ms=-5),
                          dict(crash_after_txns=-1),
                          dict(flood_sessions=-1)):
            with pytest.raises(ConfigError):
                ChaosPlan(**overrides)

    def test_sites_table_is_well_formed(self):
        """The docs render this table; every site documents itself."""
        assert len(CHAOS_SITES) == 5
        names = [site["site"] for site in CHAOS_SITES]
        assert names == sorted(names) or len(set(names)) == 5
        for site in CHAOS_SITES:
            assert site["layer"]
            assert site["fields"]
            assert site["effect"]
            for field in site["fields"].split(", "):
                assert hasattr(ChaosPlan(), field)


class TestCampaigns:
    def test_quiet_campaign_is_clean(self):
        plan = ChaosPlan(seed=1, sessions=3, txns_per_session=8, keys=16)
        report = run_chaos_campaign(plan, small_config())
        assert report["ok"] is True
        assert report["violations"] == []
        assert report["commits"] > 0
        assert report["sessions_leaked"] == 0
        assert report["active_txns"] == 0
        assert report["pinned_txns"] == 0
        assert report["watermark_advanced"] is True
        assert report["probe_ok"] is True
        assert report["generations"] == [0, 0]
        assert report["rows_checked"] >= report["commits"]

    def test_all_sites_campaign_survives(self, tmp_path):
        plan = ChaosPlan(
            seed=2, sessions=4, txns_per_session=10, keys=24,
            disconnect_rate=0.15,
            slow_loris_sessions=1, slow_loris_delay_ms=100,
            stall_shard=1, stall_ms=30, stall_after_txns=4,
            crash_shard=0, crash_after_txns=8,
            flood_sessions=12)
        config = small_config(max_inflight=6)
        report = run_chaos_campaign(plan, config, out_dir=tmp_path)
        assert report["ok"] is True
        assert report["violations"] == []
        # each site left its fingerprint
        assert report["disconnects_injected"] > 0
        assert report["loris_dropped"] == 1
        assert report["shard_stalls"] > 0
        assert report["shard_crashes"] == 1
        assert report["generations"][0] == 1
        assert report["flood_shed"] > 0
        # and the service still drained cleanly
        assert report["sessions_leaked"] == 0
        assert report["active_txns"] == 0
        assert report["pinned_txns"] == 0
        assert report["probe_ok"] is True
        assert list(tmp_path.glob("store-violation-*")) == []

    def test_report_is_json_safe(self):
        import json

        plan = ChaosPlan(seed=4, sessions=2, txns_per_session=4, keys=8)
        report = run_chaos_campaign(plan, small_config())
        assert json.loads(json.dumps(report)) == report
        assert report["plan"] == plan.to_dict()
        assert report["config"]["shards"] == 2


class TestBrokenModes:
    def test_no_fcw_self_test_catches_the_violation(self, tmp_path):
        """Acceptance: the monitor must catch a disabled-FCW server."""
        plan = ChaosPlan(seed=5, sessions=2, txns_per_session=4, keys=8)
        report = run_chaos_campaign(plan, small_config(),
                                    broken="no-fcw", out_dir=tmp_path)
        assert report["broken"] == "no-fcw"
        assert report["monitor_caught"] is True
        assert report["ok"] is True
        assert any(v["rule"] == "first-committer-wins"
                   for v in report["violations"])
        assert report["violation_dumps"]
        assert list(tmp_path.glob("store-violation-*.jsonl"))

    def test_per_shard_pin_self_test_catches_the_fractured_read(
            self, tmp_path):
        """A shard that reads at its own first-touch frontier lets a
        commit land between a transaction's reads of two shards: the
        monitor must see the second read miss the one snapshot."""
        import json

        from repro.oracle.live import check_rows

        plan = ChaosPlan(seed=5, sessions=2, txns_per_session=4, keys=8)
        report = run_chaos_campaign(plan, small_config(),
                                    broken="per-shard-pin",
                                    out_dir=tmp_path)
        assert report["monitor_caught"] is True
        assert report["ok"] is True
        assert [v["rule"] for v in report["violations"]] == [
            "snapshot-read"]
        (dump,) = report["violation_dumps"]
        rows = [json.loads(line) for line in
                open(dump, encoding="utf-8").read().splitlines()]
        reader = next(r for r in rows if r["label"] == "fracture-t")
        assert {op[1] for op in reader["store"]["ops"]} == {0, 1}
        assert {v.rule for v in check_rows(rows, shards=2)} == {
            "snapshot-read"}

    def test_per_shard_pin_needs_two_shards(self):
        with pytest.raises(ConfigError, match="2 shards"):
            run_chaos_campaign(ChaosPlan(), small_config(shards=1),
                               broken="per-shard-pin")

    def test_unknown_broken_mode_is_config_error(self):
        with pytest.raises(ConfigError, match="broken"):
            run_chaos_campaign(ChaosPlan(), broken="no-clocks")

    def test_broken_mode_does_not_mutate_caller_config(self):
        config = small_config()
        run_chaos_campaign(
            ChaosPlan(seed=6, sessions=2, txns_per_session=2, keys=8),
            config, broken="no-fcw")
        assert config.validate_fcw is True
        assert dataclasses.asdict(config)["validate_fcw"] is True
