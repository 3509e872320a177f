"""End-to-end server tests over the real asyncio wire path.

Every test stands up a :class:`StoreServer` on an ephemeral port,
drives it with the shared :class:`StoreClient`, and checks both the
structured responses and the server-side bookkeeping (session GC,
snapshot pins, watermarks, crash generations).
"""

import asyncio
import os
import sys

import pytest

import repro

from repro.oracle.live import LiveHistoryMonitor
from repro.store.loadgen import StoreClient, run_load
from repro.store.protocol import encode_frame, read_frame
from repro.store.server import StoreServer
from repro.store.session import StoreConfig, shard_of


def config(**overrides) -> StoreConfig:
    defaults = dict(shards=2, seed=7)
    defaults.update(overrides)
    return StoreConfig(**defaults)


def drive(scenario, cfg=None, monitor=None, record_path=None):
    """Run ``scenario(server, port)`` against a live server."""
    async def runner():
        server = StoreServer(cfg or config(), monitor=monitor,
                             record_path=record_path)
        port = await server.start()
        try:
            return await scenario(server, port)
        finally:
            await server.stop()

    return asyncio.run(runner())


async def settle_sessions(server, timeout=2.0):
    """Wait for disconnected sessions to be garbage-collected."""
    waited = 0.0
    while server.sessions and waited < timeout:
        await asyncio.sleep(0.005)
        waited += 0.005


#: what a request on a connection the server dropped fails with
LOST = (asyncio.IncompleteReadError, ConnectionError)


def keys_by_shard(shards=2, prefix="k"):
    """One key per shard: shard id -> key."""
    keys, counter = {}, 0
    while len(keys) < shards:
        key = f"{prefix}-{counter}"
        keys.setdefault(shard_of(key, shards), key)
        counter += 1
    return keys


def is_clean(server):
    """No open transaction or pin left."""
    return (server.open_txns == {}
            and all(s.pinned_transactions() == 0 for s in server.shards))


class TestTransactions:
    def test_commit_then_read_back(self):
        async def scenario(server, port):
            client = await StoreClient.connect(port)
            assert await client.begin(label="writer") == {"ok": True}
            assert (await client.write("alpha", {"n": 1}))["ok"]
            committed = await client.commit()   # carries the begin
            assert committed["ok"] and isinstance(committed["txn"], int)
            assert isinstance(committed["commit_ts"], int)
            await client.begin(label="reader")
            read = await client.read("alpha")
            assert read == {"ok": True, "value": {"n": 1},
                            "txn": committed["txn"] + 1}
            await client.commit()
            client.close()

        drive(scenario)

    def test_read_your_own_buffered_writes(self):
        async def scenario(server, port):
            client = await StoreClient.connect(port)
            await client.begin()
            await client.write("k", "draft")
            assert (await client.read("k"))["value"] == "draft"
            await client.write("k", "final")
            assert (await client.read("k"))["value"] == "final"
            await client.abort()
            # the abort discarded the buffer
            await client.begin()
            assert (await client.read("k"))["value"] is None
            await client.commit()
            client.close()

        drive(scenario)

    def test_missing_key_reads_null(self):
        async def scenario(server, port):
            client = await StoreClient.connect(port)
            await client.begin()
            assert (await client.read("never-written"))["value"] is None
            await client.commit()
            client.close()

        drive(scenario)

    def test_read_only_commit_is_fast_path(self):
        async def scenario(server, port):
            client = await StoreClient.connect(port)
            await client.begin()
            await client.read("x")
            committed = await client.commit()
            assert committed["ok"] and committed["read_only"]
            assert committed["commit_ts"] is None
            client.close()

        drive(scenario)

    def test_snapshot_isolation_across_concurrent_writer(self):
        """A pinned snapshot never sees a commit that happened after it."""
        async def scenario(server, port):
            setup = await StoreClient.connect(port)
            await setup.begin()
            await setup.write("si-key", "old")
            await setup.commit()
            reader = await StoreClient.connect(port)
            await reader.begin(label="reader")
            assert (await reader.read("si-key"))["value"] == "old"
            writer = await StoreClient.connect(port)
            await writer.begin(label="writer")
            await writer.write("si-key", "new")
            assert (await writer.commit())["ok"]
            # the reader's pinned snapshot still reads the old value
            assert (await reader.read("si-key"))["value"] == "old"
            await reader.commit()
            await setup.begin()
            assert (await setup.read("si-key"))["value"] == "new"
            await setup.commit()
            for client in (setup, reader, writer):
                client.close()

        drive(scenario)

    def test_first_committer_wins_aborts_second(self):
        async def scenario(server, port):
            a = await StoreClient.connect(port)
            b = await StoreClient.connect(port)
            await a.begin(label="a")
            await b.begin(label="b")
            await a.read("contested")
            await b.read("contested")
            await a.write("contested", "from-a")
            assert (await a.commit())["ok"]
            await b.write("contested", "from-b")
            failed = await b.commit()
            assert not failed["ok"]
            assert failed["error"] == "ABORTED"
            assert failed["cause"] == "write-write"
            assert failed["retry_after_ms"] >= 0
            # the winner's value is durable
            await a.begin()
            assert (await a.read("contested"))["value"] == "from-a"
            await a.commit()
            a.close()
            b.close()

        drive(scenario)


class TestOneSnapshot:
    """One store clock: a transaction reads every shard at one snapshot,
    and its commit takes the latest snapshot its reads still hold at."""

    @staticmethod
    def rows(path):
        import json
        return {row["label"]: row for row in map(
            json.loads, path.read_text(encoding="utf-8").splitlines())}

    def test_no_fractured_read_across_shards(self):
        """T reads shard 0, U commits on shards 0 and 1, T reads shard
        1: T sees neither of U's writes."""
        monitor = LiveHistoryMonitor(shards=2)

        async def scenario(server, port):
            keys = keys_by_shard(prefix="frac")
            t = await StoreClient.connect(port)
            u = await StoreClient.connect(port)
            await t.begin(label="t")
            assert (await t.read(keys[0]))["value"] is None
            await u.begin(label="u")
            for key in keys.values():
                await u.write(key, "from-u")
            assert (await u.commit())["ok"]
            assert (await t.read(keys[1]))["value"] is None
            assert (await t.commit())["ok"]
            assert is_clean(server)
            t.close()
            u.close()

        drive(scenario, monitor=monitor)
        assert monitor.violations == []

    @pytest.mark.parametrize("u_writes_ts_key", (True, False))
    def test_read_of_a_never_written_key_bounds_the_snapshot(
            self, tmp_path, u_writes_ts_key):
        """T reads the absent key ``k``; U then creates ``k``.  T's read
        still holds only below U's commit, so T is judged there."""
        monitor = LiveHistoryMonitor(shards=2)
        path = tmp_path / "rows.jsonl"

        async def scenario(server, port):
            t = await StoreClient.connect(port)
            u = await StoreClient.connect(port)
            await t.begin(label="t")
            assert (await t.read("k"))["value"] is None
            await t.write("w", "from-t")
            await u.begin(label="u")
            await u.write("k", "from-u")
            if u_writes_ts_key:
                await u.write("w", "from-u")
            assert (await u.commit())["ok"]
            reply = await t.commit()
            t.close()
            u.close()
            return reply

        reply = drive(scenario, monitor=monitor, record_path=path)
        assert monitor.violations == []
        rows = self.rows(path)
        if u_writes_ts_key:
            assert reply["cause"] == "write-write"
        else:
            assert reply["ok"]
            assert rows["t"]["start_ts"] < rows["u"]["commit_ts"]

    def test_a_coalesced_version_cannot_hide_a_write(self):
        """U2 starts before U1, U1 writes ``k`` and ``w``, U2 blind-writes
        ``k``: T, which read ``k`` before both, must still see that U1
        wrote ``w`` after its snapshot (a version list that coalesced
        U1's ``k`` into U2's would place T's snapshot past U1)."""
        monitor = LiveHistoryMonitor(shards=2)

        async def scenario(server, port):
            t, u1, u2 = [await StoreClient.connect(port) for _ in range(3)]
            await t.begin(label="t")
            assert (await t.read("k"))["value"] is None
            await u2.begin(label="u2")
            await u2.read("x")
            await u1.begin(label="u1")
            await u1.write("k", 1)
            await u1.write("w", 1)
            assert (await u1.commit())["ok"]
            await u2.write("k", 2)
            assert (await u2.commit())["ok"]
            await t.write("w", "from-t")
            reply = await t.commit()
            for client in (t, u1, u2):
                client.close()
            return reply

        assert drive(scenario, monitor=monitor)["cause"] == "write-write"
        assert monitor.violations == []

    @pytest.mark.parametrize("crash", (False, True))
    def test_an_untouched_shard_keeps_what_the_snapshot_reads(self, crash):
        """Version GC on a shard the transaction has not touched yet —
        after a crash of that shard, too — keeps the version its
        snapshot reads: the snapshot is registered on every shard at
        begin, and a crash leaves it registered."""
        monitor = LiveHistoryMonitor(shards=2)

        async def scenario(server, port):
            keys = keys_by_shard(prefix="gc")
            setup = await StoreClient.connect(port)
            await setup.begin()
            await setup.write(keys[1], "v1")
            assert (await setup.commit())["ok"]
            t = await StoreClient.connect(port)
            await t.begin(label="t")
            await t.read(keys[0])
            if crash:
                assert server.crash_shard(1) == []
            for value in ("v2", "v3"):
                await setup.begin()
                await setup.write(keys[1], value)
                assert (await setup.commit())["ok"]
            assert (await t.read(keys[1]))["value"] == "v1"
            assert (await t.commit())["ok"]
            assert is_clean(server)
            setup.close()
            t.close()

        drive(scenario, monitor=monitor)
        assert monitor.violations == []


class TestOneRequestInFlight:
    def test_a_second_request_is_refused_not_answered_wrongly(self):
        """A connection carries one request at a time: a second one,
        made before the first is answered, raises, and the first gets
        its own response."""
        async def scenario(server, port):
            client = await StoreClient.connect(port)
            await client.begin()
            await client.write("a", "A")
            await client.write("b", "B")
            assert (await client.commit())["ok"]
            await client.begin()
            first = asyncio.ensure_future(client.read("a"))
            second = asyncio.ensure_future(client.read("b"))
            done, _ = await asyncio.wait([first, second], timeout=2.0)
            assert done == {first, second}
            assert first.result()["value"] == "A"
            with pytest.raises(RuntimeError, match="in flight"):
                second.result()
            # the refused request sent nothing: the connection goes on
            assert (await client.read("b"))["value"] == "B"
            assert (await client.commit())["ok"]
            client.close()

        drive(scenario)


class TestStructuredErrors:
    def test_op_outside_txn_is_no_txn(self):
        async def scenario(server, port):
            client = await StoreClient.connect(port)
            for request in ({"op": "READ", "key": "k"},
                            {"op": "READ", "key": "k", "writes": [["k", 1]]},
                            {"op": "COMMIT"}, {"op": "ABORT"}):
                response = await client.request(**request)
                assert response["error"] == "NO_TXN"
            client.close()

        drive(scenario)

    def test_double_begin_is_txn_open(self):
        """A second ``begin()`` before any frame replaces the unsent one;
        a carried begin that meets an open transaction is ``TXN_OPEN``
        and leaves that transaction as it was."""
        async def scenario(server, port):
            client = await StoreClient.connect(port)
            await client.begin(label="unsent")
            await client.begin(label="sent")
            assert (await client.read("k"))["ok"]
            (txn,) = server.open_txns.values()
            assert txn.label == "sent" and len(txn.ops) == 1
            await client.begin()
            await client.write("k", 1)
            assert (await client.read("k"))["error"] == "TXN_OPEN"
            assert server.open_txns == {txn.uid: txn}
            assert len(txn.ops) == 1 and txn.writes == {}
            await client.abort()
            assert server.open_txns == {}
            client.close()

        drive(scenario)

    def test_bad_requests(self):
        async def scenario(server, port):
            client = await StoreClient.connect(port)
            assert (await client.request(op="EXPLODE"))["error"] == \
                "BAD_REQUEST"
            assert (await client.request(
                op="READ", key="k", begin={"deadline_ms": "soon"}))[
                    "error"] == "BAD_REQUEST"
            # bool is an int: ``true`` must not be taken for 1 ms
            assert (await client.request(
                op="READ", key="k", begin={"deadline_ms": True}))[
                    "error"] == "BAD_REQUEST"
            await client.begin()
            assert (await client.read(7))["error"] == "BAD_REQUEST"
            null_write = await client.request(op="READ", key="k",
                                              writes=[["k", None]])
            assert null_write["error"] == "BAD_REQUEST"
            assert "null is not a storable value" in null_write["detail"]
            await client.abort()
            client.close()

        drive(scenario)

    def test_rejected_begin_leaves_retry_state_alone(self):
        """A begin validates before it resets the session's stall streak
        and stamps its starvation age."""
        async def scenario(server, port):
            client = await StoreClient.connect(port)
            (session,) = server.sessions.values()
            session.retry.consecutive_stalls = 3
            session.retry.first_attempt_at = -5
            for bad in ("soon", 0, -1, 1.5, True, False, None):
                reply = await client.request(op="READ", key="k",
                                             begin={"deadline_ms": bad})
                assert reply["error"] == "BAD_REQUEST", bad
            assert session.txn is None and server.open_txns == {}
            assert session.retry.consecutive_stalls == 3
            assert session.retry.first_attempt_at == -5
            await client.begin(deadline_ms=50)
            assert session.retry.consecutive_stalls == 3  # nothing sent
            assert (await client.read("k"))["ok"]
            assert session.retry.consecutive_stalls == 0
            assert session.retry.first_attempt_at >= 0
            await client.abort()
            client.close()

        drive(scenario)

    def test_ping_reports_generations(self):
        async def scenario(server, port):
            client = await StoreClient.connect(port)
            pong = await client.ping()
            assert pong["ok"] and pong["generations"] == [0, 0]
            client.close()

        drive(scenario)


class TestCarriedWrites:
    """A write travels as the ``writes`` of the next READ or COMMIT: the
    server records it before that op, in call order, all or none."""

    def test_ill_formed_writes_record_nothing_and_keep_the_txn(self):
        async def scenario(server, port):
            client = await StoreClient.connect(port)
            await client.begin()
            await client.write("w0", 0)
            assert (await client.read("r0"))["ok"]
            (session,) = server.sessions.values()
            txn = session.txn
            ops, buffered = list(txn.ops), dict(txn.writes)
            for writes in ([["a", 1], ["b", None]],     # null value
                           [["a", 1], ["", 1]],         # empty key
                           [["a", 1], [7, 1]],          # non-string key
                           [["a", 1], ["b"]], [["a", 1], ["b", 1, 2]],
                           [["a", 1], "b"],             # non-pairs
                           {"a": 1}, "a", None):        # not a list
                for op in ({"op": "READ", "key": "r1"}, {"op": "COMMIT"}):
                    reply = await client.request(writes=writes, **op)
                    assert reply["error"] == "BAD_REQUEST", (writes, op)
                    assert session.txn is txn
                    assert txn.ops == ops and txn.writes == buffered
            assert (await client.commit())["ok"]
            client.close()

        drive(scenario)

    def test_writes_carried_into_a_doomed_txn_are_aborted(self):
        async def scenario(server, port):
            sid = shard_of("k", server.config.shards)
            client = await StoreClient.connect(port)
            for carrier in (lambda: client.read("k"), client.commit):
                await client.begin()
                await client.read("k")
                (txn,) = server.open_txns.values()
                server.crash_shard(sid)
                await client.write("k", 1)
                reply = await carrier()
                assert reply["error"] == "ABORTED"
                assert reply["cause"] == "shard-crashed"
                assert [op[0] for op in txn.ops] == ["r"]
                assert txn.writes == {} and is_clean(server)
            client.close()

        drive(scenario)

    def test_write_op_is_gone(self):
        async def scenario(server, port):
            client = await StoreClient.connect(port)
            await client.begin()
            assert (await client.read("r"))["ok"]
            (txn,) = server.open_txns.values()
            reply = await client.request(op="WRITE", key="k", value=1)
            assert reply["error"] == "BAD_REQUEST"
            assert len(txn.ops) == 1 and txn.writes == {}
            await client.abort()
            client.close()

        drive(scenario)

    def test_monitor_row_ops_are_the_call_order(self, tmp_path):
        import json

        path = tmp_path / "rows.jsonl"
        monitor = LiveHistoryMonitor(shards=2)
        calls = [("w", "a", 1), ("r", "b", None), ("w", "c", 2),
                  ("w", "a", 3), ("r", "a", 3), ("w", "d", 4)]

        async def scenario(server, port):
            client = await StoreClient.connect(port)
            await client.begin()
            for kind, key, value in calls:
                if kind == "w":
                    await client.write(key, value)
                else:
                    assert (await client.read(key))["value"] == value
            assert (await client.commit())["ok"]
            client.close()

        drive(scenario, monitor=monitor, record_path=path)
        (row,) = [json.loads(line) for line in path.read_text().splitlines()]
        assert [(kind, key, value) for kind, _, key, value
                in row["store"]["ops"]] == calls
        assert monitor.rows_seen == 1 and monitor.violations == []


class TestCarriedBegin:
    """A begin travels as the ``begin`` object of its transaction's first
    READ or COMMIT.  Refused, it answers that frame alone: it opens
    nothing, records none of the frame's ``writes`` and runs no op."""

    @pytest.mark.parametrize("begin, error", [
        ({"deadline_ms": "soon"}, "BAD_REQUEST"),
        (["label", "x"], "BAD_REQUEST"),
        ({}, "OVERLOADED"),
        ({"label": "again"}, "TXN_OPEN")],
        ids=["bad-deadline", "non-object", "past-max-inflight",
             "on-open-txn"])
    def test_refused_begin_answers_its_frame_alone(self, begin, error):
        async def scenario(server, port):
            client = await StoreClient.connect(port)
            assert (await client.ping())["ok"]
            (session,) = server.sessions.values()
            other = await StoreClient.connect(port)
            opener = {"OVERLOADED": other, "TXN_OPEN": client}.get(error)
            if opener is not None:              # max_inflight is 1
                await opener.begin()
                assert (await opener.read("open"))["ok"]
            open_txns = dict(server.open_txns)
            ops = [list(txn.ops) for txn in open_txns.values()]
            session.retry.consecutive_stalls = 3
            session.retry.first_attempt_at = -5
            for op in ({"op": "READ", "key": "k"}, {"op": "COMMIT"}):
                reply = await client.request(begin=begin,
                                             writes=[["k", 1]], **op)
                assert reply["error"] == error and "txn" not in reply
                assert server.open_txns == open_txns
                assert [txn.ops for txn in open_txns.values()] == ops
                assert all(txn.writes == {} for txn in open_txns.values())
            # nothing reset or stamped the retry state; an admission
            # shed counts toward starvation, as a shed always has
            assert session.retry.first_attempt_at == -5
            assert session.retry.consecutive_stalls == (
                5 if error == "OVERLOADED" else 3)
            for peer in (client, other):
                peer.close()

        drive(scenario, cfg=config(max_inflight=1))

    def test_begin_op_is_gone(self):
        async def scenario(server, port):
            client = await StoreClient.connect(port)
            reply = await client.request(op="BEGIN", label="old")
            assert reply["error"] == "BAD_REQUEST"
            assert server.open_txns == {}
            client.close()

        drive(scenario)


class TestRobustness:
    def test_admission_control_sheds_overloaded(self):
        async def scenario(server, port):
            a = await StoreClient.connect(port)
            b = await StoreClient.connect(port)
            await a.begin()
            assert (await a.read("a"))["ok"]
            await b.begin()
            shed = await b.read("b")            # the frame carrying the begin
            assert shed["error"] == "OVERLOADED" and "cause" not in shed
            assert shed["retry_after_ms"] >= 0
            await a.commit()
            # capacity freed: the shed session gets in now
            await b.begin()
            assert (await b.read("b"))["ok"]
            await b.abort()
            a.close()
            b.close()

        drive(scenario, cfg=config(max_inflight=1))

    def test_deadline_expiry_is_structured_timeout(self):
        async def scenario(server, port):
            client = await StoreClient.connect(port)
            await client.begin(deadline_ms=10)
            await asyncio.sleep(0.03)   # unsent: the deadline has not started
            assert (await client.read("k"))["ok"]
            await asyncio.sleep(0.03)
            expired = await client.read("k")
            assert expired["error"] == "TIMEOUT"
            # the transaction is gone; the session can begin anew
            assert (await client.read("k"))["error"] == "NO_TXN"
            await client.begin()
            assert (await client.read("k"))["ok"]
            await client.abort()
            client.close()

        drive(scenario)

    @pytest.mark.parametrize("op", ["read", "commit"])
    def test_a_frame_arriving_expired_counts_one_timeout(self, op):
        """A frame arriving after its transaction's deadline is one
        timeout, as an expiry in a shard wait is: one
        ``store_timeouts_total`` and one timeout abort."""
        async def scenario(server, port):
            client = await StoreClient.connect(port)
            await client.begin(deadline_ms=20)
            assert (await client.read("k"))["ok"]   # starts the deadline
            await client.write("k", 1)
            await asyncio.sleep(0.05)
            expired = await (client.commit() if op == "commit"
                             else client.read("k"))
            assert expired["error"] == "TIMEOUT"
            assert server.metrics.counter("store_timeouts_total") == 1
            assert server.metrics.counter("store_txn_aborts_total",
                                          cause="timeout") == 1
            assert is_clean(server)
            client.close()

        drive(scenario)

    def test_disconnect_aborts_and_unpins(self):
        async def scenario(server, port):
            client = await StoreClient.connect(port)
            await client.begin()
            await client.read("pin-me")  # opens the txn, pinning its snapshot
            await client.write("pin-me", 1)
            client.close()
            await settle_sessions(server)
            assert server.sessions == {}
            assert server.open_txns == {}
            assert all(s.pinned_transactions() == 0
                       for s in server.shards)

        drive(scenario)

    def test_crash_dooms_open_txns_but_keeps_published_data(self):
        async def scenario(server, port):
            writer = await StoreClient.connect(port)
            await writer.begin()
            await writer.write("crash-key", "survives")
            await writer.commit()
            sid = shard_of("crash-key", server.config.shards)

            victim = await StoreClient.connect(port)
            await victim.begin(label="victim")
            assert (await victim.read("crash-key"))["value"] == "survives"

            doomed = server.crash_shard(sid)
            assert [t.label for t in doomed] == ["victim"]
            failed = await victim.read("crash-key")
            assert not failed["ok"]
            assert failed["cause"] == "shard-crashed"
            assert (await victim.ping())["generations"][sid] == 1

            # a crash keeps committed data, and new transactions
            # proceed normally
            await victim.begin()
            assert (await victim.read("crash-key"))["value"] == "survives"
            await victim.write("crash-key", "again")
            assert (await victim.commit())["ok"]
            assert server.shards[sid].pinned_transactions() == 0
            writer.close()
            victim.close()

        drive(scenario)

    def test_commit_racing_crash_aborts_cleanly(self):
        """A prepare taken before a crash must not apply after it.

        The crash fires while the coordinator awaits the *second*
        shard's prepare, after the first shard gave its turn: the crash
        dooms the transaction pinned there, and the doom check in the
        apply step aborts the whole multi-shard commit instead of
        applying onto the restarted shard.
        """
        async def scenario(server, port):
            keys = keys_by_shard(prefix="race")
            client = await StoreClient.connect(port)
            await client.begin()
            for key in keys.values():
                await client.write(key, 1)
            second = server.shards[1]
            real_prepare = second._do_prepare

            def crash_then_prepare(command):
                server.crash_shard(0)
                return real_prepare(command)

            second._do_prepare = crash_then_prepare
            try:
                failed = await client.commit()
            finally:
                second._do_prepare = real_prepare
            assert not failed["ok"]
            assert failed["cause"] == "shard-crashed"
            # neither shard published anything
            await client.begin()
            for key in keys.values():
                assert (await client.read(key))["value"] is None
            await client.commit()
            assert is_clean(server)
            client.close()

        drive(scenario)


class TestIdleGuard:
    """The connection's read deadline: idle and stalled peers, not
    requests the server is busy serving."""

    def test_idle_session_is_dropped_and_its_txn_aborted(self):
        async def scenario(server, port):
            client = await StoreClient.connect(port)
            await client.begin()
            await client.read("pin-me")
            await asyncio.sleep(0.03)      # inside the budget: still up
            assert (await client.read("pin-me"))["ok"]
            await settle_sessions(server)  # silent for > 60 ms: dropped
            assert server.sessions == {} and server.open_txns == {}
            assert server.metrics.counter("store_txn_aborts_total",
                                          cause="disconnect") == 1
            assert all(s.pinned_transactions() == 0
                       for s in server.shards)
            with pytest.raises(LOST):                  # server hung up
                await client.ping()
            client.close()

        drive(scenario, cfg=config(idle_timeout_ms=60))

    def test_request_served_longer_than_idle_timeout_is_not_cut(self):
        """A stalled shard makes the READ take 150 ms against a 40 ms
        idle timeout; the deadline (2 s) governs, the guard stays out."""
        async def scenario(server, port):
            client = await StoreClient.connect(port)
            await client.begin()
            sid = shard_of("slow", server.config.shards)
            server.stall_shard(sid, 150)
            loop = asyncio.get_running_loop()
            started = loop.time()
            reply = await client.read("slow")
            assert reply["ok"] and reply["value"] is None
            assert loop.time() - started >= 0.14
            # and the next read gets a fresh budget, not the leftovers
            assert (await client.commit())["ok"]
            assert len(server.sessions) == 1
            client.close()

        drive(scenario, cfg=config(idle_timeout_ms=40))


class TestHopBudget:
    def test_read_round_trip_costs_no_task_and_no_timer(self):
        """Count what 200 READ round trips schedule on the loop.

        Client and server share the loop, so the counts cover both: the
        server answers inside ``buffer_updated`` and schedules nothing;
        the one ``call_soon`` per round trip is the client's response
        future waking the task that awaits it.  No ``Task``, no timer,
        no hop to a shard.  The bounds leave room for a stray handle,
        not for a second hop per request.
        """
        requests = 200

        async def scenario(server, port):
            client = await StoreClient.connect(port)
            await client.begin()
            for i in range(8):             # pin every shard first
                assert (await client.read(f"key-{i}"))["ok"]
            loop = asyncio.get_running_loop()
            counts = dict.fromkeys(("call_soon", "call_at", "create_task"),
                                   0)

            def counting(name):
                real = getattr(loop, name)

                def wrapper(*args, **kwargs):
                    counts[name] += 1
                    return real(*args, **kwargs)
                return wrapper

            for name in counts:
                setattr(loop, name, counting(name))
            try:
                for i in range(requests):
                    assert (await client.read(f"key-{i % 8}"))["ok"]
            finally:
                for name in counts:
                    delattr(loop, name)
            await client.commit()
            client.close()
            return counts

        counts = drive(scenario)
        assert counts["create_task"] == 0
        assert counts["call_at"] <= 2          # amortised: none per request
        assert counts["call_soon"] <= requests + 10

    def test_read_round_trip_runs_few_python_frames(self):
        """Count the Python frames of ``repro`` code that 200 READ round
        trips run, both ends together (a coroutine resumed counts again).

        About one frame per layer and end: the client's ``read``, the
        framing, the server's dispatch and READ, the shard's submit and
        body.  The bound fails a path that regrows a helper per layer.
        """
        requests = 200
        package = os.path.dirname(repro.__file__) + os.sep

        async def scenario(server, port):
            client = await StoreClient.connect(port)
            await client.begin()
            for i in range(8):             # pin every shard first
                assert (await client.read(f"key-{i}"))["ok"]
            frames = 0

            def profile(frame, event, arg):
                nonlocal frames
                if (event == "call"
                        and frame.f_code.co_filename.startswith(package)):
                    frames += 1

            sys.setprofile(profile)
            try:
                for i in range(requests):
                    assert (await client.read(f"key-{i % 8}"))["ok"]
            finally:
                sys.setprofile(None)
            await client.commit()
            client.close()
            return frames

        assert drive(scenario) <= 24 * requests


def count_frames(server):
    """The requests the server dispatches from now on, as parsed."""
    parsed = []
    dispatch = server._dispatch

    def counting(session, request, now):
        parsed.append(dict(request))
        return dispatch(session, request, now)

    server._dispatch = counting
    return parsed


class TestFrameBudget:
    def test_a_write_costs_no_frame(self):
        """The frames the server parses per transaction shape: one per
        READ and COMMIT, the first carrying the begin, and none per
        write or begin."""
        shapes = [("wrwr", 3), ("www", 1), ("r", 1 + 1), ("rrrrr", 5 + 1)]

        async def scenario(server, port):
            parsed = count_frames(server)
            client = await StoreClient.connect(port)
            frames = []
            for shape, _ in shapes:
                parsed.clear()
                assert (await client.begin())["ok"]
                for i, kind in enumerate(shape):
                    key = f"key-{i}"
                    reply = await (client.write(key, i) if kind == "w"
                                   else client.read(key))
                    assert reply["ok"]
                assert (await client.commit())["ok"]
                frames.append([(r["op"], "begin" in r,
                                len(r.get("writes", []))) for r in parsed])
            client.close()
            return frames

        frames = drive(scenario)
        assert [len(f) for f in frames] == [n for _, n in shapes]
        assert frames[0] == [("READ", True, 1), ("READ", False, 1),
                             ("COMMIT", False, 0)]
        assert frames[1] == [("COMMIT", True, 3)]
        assert [[begun for _, begun, _ in f] for f in frames[2:]] == [
            [True] + [False] * (n - 1) for _, n in shapes[2:]]

    def test_abort_of_an_unsent_begin_sends_no_frame(self):
        async def scenario(server, port):
            parsed = count_frames(server)
            client = await StoreClient.connect(port)
            await client.begin()
            await client.write("k", 1)
            assert await client.abort() == {"ok": True}
            assert parsed == []
            # the begin and the write went with it
            assert (await client.read("k"))["error"] == "NO_TXN"
            assert parsed == [{"op": "READ", "key": "k"}]
            client.close()

        drive(scenario)


class TestWaitingPath:
    """The requests ``buffer_updated`` cannot answer in place: a task
    carries them on, bounded by the transaction deadline."""

    def test_frames_pipelined_behind_a_stalled_read_keep_their_order(self):
        async def scenario(server, port):
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           port)
            writer.write(encode_frame({"op": "PING"}))
            assert (await read_frame(reader))["pong"]
            (session,) = server.sessions.values()
            server.stall_shard(shard_of("slow", server.config.shards), 100)
            writer.write(
                encode_frame({"op": "READ", "key": "slow", "begin": {}})
                + encode_frame({"op": "READ", "key": "slow",
                                "writes": [["slow", 1]]}))
            await asyncio.sleep(0.03)
            # the first READ opened the transaction and waits out the
            # stall, and the write carried behind it — which would
            # need no wait — has not been recorded
            assert session.txn.ops == [] and session.txn.writes == {}
            assert await read_frame(reader) == {
                "ok": True, "value": None, "txn": session.txn.uid}
            assert await read_frame(reader) == {"ok": True, "value": 1}
            assert [op[0] for op in session.txn.ops] == ["r", "w", "r"]
            writer.write(encode_frame({"op": "COMMIT"}))
            assert (await read_frame(reader))["ok"]
            writer.close()

        drive(scenario)

    def test_deadline_expiring_in_the_wait_leaves_nothing(self):
        """Shard 0 has given the commit its turn when shard 1's
        prepare waits on a stall that outlasts the deadline."""
        async def scenario(server, port):
            keys = keys_by_shard()
            client = await StoreClient.connect(port)
            await client.begin(deadline_ms=60)
            for key in keys.values():           # pin both shards in place
                await client.read(key)
                await client.write(key, 1)
            server.stall_shard(1, 250)
            loop = asyncio.get_running_loop()
            started = loop.time()
            reply = await client.commit()
            assert reply["error"] == "TIMEOUT"
            assert loop.time() - started < 0.2  # the deadline, not the stall
            assert is_clean(server)
            assert server.metrics.counter("store_txn_aborts_total",
                                          cause="timeout") == 1
            # the next transaction waits out the rest of the stall
            await client.begin()
            assert (await client.read(keys[1]))["value"] is None
            assert (await client.commit())["ok"]
            assert is_clean(server)
            client.close()

        drive(scenario)

    def test_disconnect_during_the_wait_cancels_it_and_aborts(self):
        async def scenario(server, port):
            client = await StoreClient.connect(port)
            await client.begin()
            await client.read("slow")           # a pin to leak
            server.stall_shard(shard_of("slow", server.config.shards), 300)
            loop = asyncio.get_running_loop()
            started = loop.time()
            pending = asyncio.ensure_future(client.read("slow"))
            await asyncio.sleep(0.02)
            client.close()
            await settle_sessions(server)
            assert loop.time() - started < 0.2  # not the stall's length
            assert server.sessions == {} and is_clean(server)
            assert server.metrics.counter("store_txn_aborts_total",
                                          cause="disconnect") == 1
            with pytest.raises(LOST):
                await pending
            with pytest.raises(LOST):           # and every later request
                await client.ping()

        drive(scenario)

    def test_crash_during_the_wait_is_shard_crashed(self):
        async def scenario(server, port):
            sid = shard_of("slow", server.config.shards)
            client = await StoreClient.connect(port)
            await client.begin()
            await client.read("slow")
            server.stall_shard(sid, 300)
            loop = asyncio.get_running_loop()
            started = loop.time()
            pending = asyncio.ensure_future(client.read("slow"))
            await asyncio.sleep(0.02)
            server.crash_shard(sid)
            reply = await pending
            assert reply["error"] == "ABORTED"
            assert reply["cause"] == "shard-crashed"
            assert loop.time() - started < 0.2
            assert is_clean(server)
            # the crash ended the stall: the shard answers in place
            await client.begin()
            assert (await client.read("slow"))["value"] is None
            assert loop.time() - started < 0.2
            assert (await client.commit())["ok"]
            client.close()

        drive(scenario)

    def test_golden_gate_wait_times_out_and_is_released(self):
        async def scenario(server, port):
            keys = [f"gate-{i}" for i in range(40)
                    if shard_of(f"gate-{i}", server.config.shards) == 0][:3]
            holder = await StoreClient.connect(port)
            (session,) = server.sessions.values()
            session.retry.attempts = server.config.retry.attempt_budget
            await holder.begin()
            # starving: its begin takes the token; shard 0 is its home
            begun = await holder.read(keys[0])
            assert server.golden_holder == begun["txn"]
            late = await StoreClient.connect(port)
            await late.begin(deadline_ms=60)
            await late.write(keys[1], 1)
            reply = await late.commit()
            assert reply["error"] == "TIMEOUT"
            assert "escalation" in reply["detail"]
            patient = await StoreClient.connect(port)
            await patient.begin()
            await patient.write(keys[2], 2)
            waiting = asyncio.ensure_future(patient.commit())
            await asyncio.sleep(0.03)
            assert not waiting.done()
            assert (await holder.commit())["ok"]
            assert (await waiting)["ok"]
            assert server.golden_holder is None and is_clean(server)
            for client in (holder, late, patient):
                client.close()

        drive(scenario)


class TestCommitInFlight:
    """Nothing waits on another transaction's commit protocol.

    Transaction X has read shard 1 (and, with ``reads_a``, the shard-0
    key it will write), then shard 1 is stalled, then X commits writes
    to shards 0 and 1: it prepares shard 0 in place and its shard 1
    prepare waits out the stall, so X is suspended mid-commit.  Shard
    0 must keep answering in place meanwhile.
    """

    STALL_MS = 400

    async def suspend_x(self, server, port, reads_a=False):
        keys = [f"inflight-{i}" for i in range(60)]
        a_keys = [k for k in keys if shard_of(k, 2) == 0]
        b_key = next(k for k in keys if shard_of(k, 2) == 1)
        setup = await StoreClient.connect(port)
        await setup.begin()
        await setup.write(a_keys[0], "old")
        assert (await setup.commit())["ok"]
        setup.close()
        x = await StoreClient.connect(port)
        await x.begin(label="x")
        await x.read(b_key)
        if reads_a:
            assert (await x.read(a_keys[0]))["value"] == "old"
        server.stall_shard(1, self.STALL_MS)
        await x.write(a_keys[0], "x")
        await x.write(b_key, "x")
        committing = asyncio.ensure_future(x.commit())
        # shard 0 gave its turn: the shard 1 prepare waits
        while not server.metrics.counter("store_stalled_requests_total",
                                         shard=1):
            await asyncio.sleep(0.001)
        return x, committing, a_keys

    def test_readers_are_answered_in_place_without_x(self):
        """70 readers: more starts than the Δ = 64 a commit-timestamp
        reservation held on shard 0 would leave room for."""
        async def scenario(server, port):
            x, committing, a_keys = await self.suspend_x(server, port)
            reader = await StoreClient.connect(port)
            for _ in range(70):
                await reader.begin()
                assert (await reader.read(a_keys[0]))["value"] == "old"
                assert (await reader.commit())["ok"]
            assert server.metrics.counter("store_stalled_requests_total",
                                          shard=0) == 0
            assert not committing.done()
            assert (await committing)["ok"]
            for client in (x, reader):
                client.close()

        drive(scenario)

    def test_disjoint_commit_is_answered_while_x_waits(self):
        async def scenario(server, port):
            x, committing, a_keys = await self.suspend_x(server, port)
            y = await StoreClient.connect(port)
            await y.begin(label="y")
            await y.write(a_keys[1], "y")
            assert (await y.commit())["ok"]
            assert not committing.done()
            assert (await committing)["ok"]
            assert is_clean(server)
            for client in (x, y):
                client.close()

        drive(scenario)

    def test_overlapping_writer_commits_and_x_aborts_at_apply(self):
        """Y writes the shard-0 key X read and writes while X waits: Y
        commits first, so X's snapshot stays below Y's commit and
        first-committer-wins aborts X when its apply step comes."""
        monitor = LiveHistoryMonitor(shards=2)

        async def scenario(server, port):
            x, committing, a_keys = await self.suspend_x(server, port,
                                                         reads_a=True)
            y = await StoreClient.connect(port)
            await y.begin(label="y")
            await y.write(a_keys[0], "y")
            assert (await y.commit())["ok"]
            failed = await committing
            assert failed["error"] == "ABORTED"
            assert failed["cause"] == "write-write"
            await y.begin()
            assert (await y.read(a_keys[0]))["value"] == "y"
            assert (await y.commit())["ok"]
            assert is_clean(server)
            for client in (x, y):
                client.close()

        drive(scenario, monitor=monitor)
        assert monitor.violations == []

    def test_overlapping_blind_writer_commits_after_y(self):
        """Y writes a shard-0 key X writes but never read: X's only read
        is still current at its apply step, so its snapshot moves past
        Y's commit and X commits after Y — valid SI."""
        monitor = LiveHistoryMonitor(shards=2)

        async def scenario(server, port):
            x, committing, a_keys = await self.suspend_x(server, port)
            y = await StoreClient.connect(port)
            await y.begin(label="y")
            await y.write(a_keys[0], "y")
            y_commit = await y.commit()
            assert y_commit["ok"]
            x_commit = await committing
            assert x_commit["ok"]
            assert x_commit["commit_ts"] > y_commit["commit_ts"]
            await y.begin()
            assert (await y.read(a_keys[0]))["value"] == "x"
            assert (await y.commit())["ok"]
            assert is_clean(server)
            for client in (x, y):
                client.close()

        drive(scenario, monitor=monitor)
        assert monitor.violations == []


class TestConfig:
    def test_from_dict_ignores_the_retired_commit_delta(self):
        legacy = dict(StoreConfig(shards=3).to_dict(), commit_delta=64)
        assert StoreConfig.from_dict(legacy) == StoreConfig(shards=3)


class TestObservability:
    def test_metrics_endpoint_serves_prometheus_text(self):
        async def scenario(server, port):
            metrics_port = await server.start_metrics()
            client = await StoreClient.connect(port)
            await client.begin()
            await client.write("m", 1)
            await client.commit()
            client.close()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", metrics_port)
            writer.write(b"GET /metrics HTTP/1.0\r\n\r\n")
            await writer.drain()
            raw = await reader.read()
            writer.close()
            text = raw.decode("utf-8")
            assert text.startswith("HTTP/1.0 200")
            assert "sitm_store_txn_commits_total" in text
            assert "sitm_store_shard_generation" in text

        drive(scenario)

    def test_monitor_sees_every_completed_txn(self):
        monitor = LiveHistoryMonitor(shards=2)

        async def scenario(server, port):
            stats = await run_load(port, sessions=2, txns_per_session=6,
                                   keys=8, seed=11)
            await settle_sessions(server)
            return stats

        stats = drive(scenario, monitor=monitor)
        assert stats["commits"] == 12
        assert monitor.rows_seen >= 12
        assert monitor.violations == []
        # every snapshot is released, so the watermark sits at the
        # publish frontier and nothing is left to check against
        assert monitor.retained() == 0

    def test_a_lone_sequential_client_leaves_idle_watermarks(self):
        """With nothing open, a shard's watermark is the store clock's
        present, and the monitor folds every row it was fed."""
        monitor = LiveHistoryMonitor(shards=2)

        async def scenario(server, port):
            client = await StoreClient.connect(port)
            keys = keys_by_shard(prefix="lone")
            for value in range(5):
                await client.begin()
                await client.read(keys[value % 2])
                for key in keys.values():
                    await client.write(key, value)
                assert (await client.commit())["ok"]
            client.close()
            await settle_sessions(server)
            assert all(shard.watermark == server.clock.now
                       for shard in server.shards)

        drive(scenario, monitor=monitor)
        assert monitor.rows_seen == 5
        assert monitor.retained() == 0

    def test_record_path_persists_replayable_rows(self, tmp_path):
        import json

        from repro.obs.export import validate_span_log
        from repro.oracle.live import check_rows

        path = tmp_path / "sessions.jsonl"

        async def scenario(server, port):
            await run_load(port, sessions=2, txns_per_session=4,
                           keys=8, seed=3)
            await settle_sessions(server)

        drive(scenario, record_path=path)
        text = path.read_text(encoding="utf-8")
        assert validate_span_log(text) == []
        rows = [json.loads(line) for line in text.splitlines()]
        assert len(rows) >= 8
        assert check_rows(rows, shards=2) == []


class TestLateWrapping:
    def test_wrappers_installed_on_a_built_server_see_every_command(
            self, monkeypatch):
        """perfbench's traced pass patches ``shard.submit``, the
        ``_do_*`` bodies, ``shard.apply`` and ``protocol.encode_frame``
        on a server that is already serving, so the request path has to
        look them up per call; ``submit`` has to hand back a future.  It
        wraps the monitor's ``feed_row`` and ``note_watermark`` too: one
        watermark per completed transaction, at any shard count."""
        from repro.store import protocol

        seen = {"submit": 0, "bodies": 0, "pins": 0, "apply": 0,
                "frames": 0, "requests": 0, "rows": 0, "watermarks": 0}

        def wrap(owner, attr, note):
            real = getattr(owner, attr)

            def wrapper(*args, **kwargs):
                result = real(*args, **kwargs)
                note(args, result)
                return result
            monkeypatch.setattr(owner, attr, wrapper)

        def note_submit(args, future):
            assert isinstance(future, asyncio.Future)
            seen["submit"] += 1

        def count(name):
            def note(args, result):
                seen[name] += 1
            return note

        async def scenario(server, port):
            wrap(protocol, "encode_frame", count("frames"))
            wrap(server, "_dispatch", count("requests"))
            for shard in server.shards:
                wrap(shard, "submit", note_submit)
                for body in ("_do_read", "_do_prepare"):
                    wrap(shard, body, count("bodies"))
                wrap(shard, "_do_snapshot", count("pins"))
                wrap(shard, "apply", count("apply"))
            wrap(server.monitor, "feed_row", count("rows"))
            wrap(server.monitor, "note_watermark", count("watermarks"))
            stats = await run_load(port, sessions=4, txns_per_session=50,
                                   keys=32, seed=5)
            await settle_sessions(server)
            return stats, sum(s.commits for s in server.shards)

        monitor = LiveHistoryMonitor(shards=2)
        stats, applies = drive(scenario, monitor=monitor)
        assert stats["commits"] == 200
        assert seen["watermarks"] == seen["rows"] >= 200
        assert monitor.violations == []
        # a clean load dooms and sheds nothing: each submitted command
        # reached exactly one body, and each begin registered its
        # snapshot in place on both shards
        assert seen["submit"] == seen["bodies"] > 200
        assert seen["pins"] >= 2 * 200
        assert seen["apply"] == applies > 0
        # the encoder sees both ends, a request and its response per
        # dispatched request; every attempt ends in a request of its own
        assert seen["frames"] == 2 * seen["requests"]
        assert seen["requests"] >= stats["attempts"]


class TestLoadGenerator:
    def test_closed_loop_zipf_run_is_clean(self):
        monitor = LiveHistoryMonitor(shards=2)

        async def scenario(server, port):
            stats = await run_load(port, sessions=4, txns_per_session=10,
                                   keys=16, zipf_theta=0.9, seed=5)
            await settle_sessions(server)
            return stats

        stats = drive(scenario, monitor=monitor)
        assert stats["commits"] == 40
        assert stats["throughput_txn_s"] > 0
        assert 0.0 <= stats["abort_rate"] < 1.0
        assert monitor.violations == []

    def test_admission_sheds_are_counted_as_shed_not_aborts(self):
        """Admission refuses a begin with an ``OVERLOADED`` that has no
        ``cause``: nothing was opened, so nothing was aborted."""
        async def scenario(server, port):
            return await run_load(port, sessions=2, txns_per_session=10,
                                  keys=8, seed=2)

        stats = drive(scenario, cfg=config(max_inflight=1))
        assert stats["shed"] > 0
        assert "overloaded" not in stats["aborts"]
        assert stats["total_aborts"] == sum(stats["aborts"].values())

    def test_latency_percentiles_are_advisory_only(self):
        from repro.store.loadgen import _percentile_ms

        async def scenario(server, port):
            return await run_load(port, sessions=2, txns_per_session=10,
                                  keys=8, seed=1)

        stats = drive(scenario)
        # a transaction's clock runs from its first BEGIN to the COMMIT
        # ack, so it is at least the four request round trips long
        assert 0 < stats["txn_p50_ms"] <= stats["txn_p99_ms"]
        assert stats["txn_p99_ms"] <= 1e3 * stats["wall_clock_s"]
        assert "latency_s" not in stats        # samples are not printed
        # per operation: one round trip each, so no longer than the
        # transaction they are part of at the same rank; a write is no
        # round trip of its own, so it has no timing
        for op in ("read", "commit"):
            assert 0 < stats[f"{op}_p50_ms"] <= stats[f"{op}_p99_ms"]
            assert stats[f"{op}_p99_ms"] <= stats["txn_p99_ms"]
        assert "write_p50_ms" not in stats
        # nearest rank: p50 of four samples is the second, p99 the last
        samples = [0.004, 0.001, 0.003, 0.002]
        assert _percentile_ms(samples, 50) == 2.0
        assert _percentile_ms(samples, 99) == 4.0
        assert _percentile_ms([], 50) == 0.0
