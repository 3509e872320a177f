"""Store workloads: a traced smoke each, and the read-back check."""

import asyncio
import json
import pathlib

import pytest

from perfbench import store

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(store, "WARMUP_TXNS", 20)


@pytest.mark.parametrize("name", ["store_read_mostly", "store_contended"])
def test_traced_smoke(name, tiny, tmp_path):
    from repro.store import protocol
    encode = protocol.encode_frame
    out = store.run(name, 2, 0.6, True, tmp_path, setup_repeats=1)
    assert protocol.encode_frame is encode
    assert out["problems"] == [] and out["failed"] == 0
    assert out["attempted"] > 50
    assert len(out["setup_samples"]) == 1
    layers = out["per_layer"]
    assert set(layers) <= PER_LAYER
    assert layers["store_protocol.frames"] > 0
    assert layers["oracle.feed_row.calls"] > 0
    assert layers["store_shard.cmds_per_txn"] > 1
    assert 0 < layers["store_server.residual_share"] < 1
    if name == "store_contended":
        assert out["info"]["abort_rate"][0] > 0
        assert layers["store_loadgen.attempts_per_txn"] > 1
        assert layers["mvm.install_many.calls"] > 0
    assert all(value > 0 for value in out["gated"].values())


def test_only_computing_time_is_host_normalised():
    stats = store.LoadStats()
    stats.wall_s, stats.idle_s = 10.0, 2.0
    stats.txn_s, stats.txn_backoff_s = [0.010, 0.002], [0.004, 0.0]
    stats.read_s, stats.commit_s = [0.002], [0.004]
    stats.to_nominal(0.5)
    assert stats.wall_s == pytest.approx(6.0)
    assert stats.txn_s == pytest.approx([0.007, 0.001])
    assert (stats.read_s, stats.commit_s) == ([0.001], [0.002])


def test_the_thread_idles_only_while_every_session_sleeps():
    async def scenario():
        stats = store.LoadStats()
        naps = store.Naps(2, stats)
        await naps.sleep(0.05)          # the other session computes
        assert stats.idle_s == 0.0
        await asyncio.gather(naps.sleep(0.05), naps.sleep(0.02))
        return stats.idle_s

    assert 0.015 < asyncio.run(scenario()) < 0.05


def test_read_back_rejects_a_value_nobody_committed(tiny):
    async def scenario():
        deployment = await store.Deployment(
            store.build_plan("store_contended", 4)).start()
        key = next(iter(deployment.plan.preload))
        deployment.acked[key] = {repr({"n": "never written"})}
        return await deployment.stop()

    problems = asyncio.run(scenario())
    assert len(problems) == 1 and "read-back" in problems[0]


def test_transaction_stream_repeats_for_a_seed():
    def first(seed):
        stream = store.transactions(
            store.build_plan("store_contended", seed), 0)
        return [next(stream) for _ in range(5)]

    assert first(9) == first(9)
    assert first(9) != first(10)
