"""A shard runs every command where it arrives.

``Shard.submit`` executes a command before it returns and hands back
an already-resolved future; registering a snapshot (``_do_snapshot``)
is a plain call, never a command.  These tests drive a bare
:class:`Shard` (no server, no sockets).  Where a request waits — behind
an injected stall — is the server's business (``TestWaitingPath`` in
``test_store_server.py``).
"""

import asyncio

from repro.mvm.timestamps import GlobalClock
from repro.store.session import StoreConfig, Txn
from repro.store.shard import CONFLICT, OK, SHUTDOWN, TIMEOUT, Shard


def run(scenario):
    """Run ``scenario(shard, txn)`` under a loop; ``txn(uid)`` makes a
    transaction with a two-second deadline and a fresh snapshot."""
    async def runner():
        clock = GlobalClock()
        shard = Shard(0, StoreConfig(shards=1), clock)
        loop = asyncio.get_running_loop()

        def txn(uid, deadline_s=2.0):
            return Txn(uid=uid, session_id=uid, label=f"t{uid}",
                       deadline=loop.time() + deadline_s, begin_seq=uid,
                       start_ts=clock.next_start())

        try:
            return await scenario(shard, txn)
        finally:
            shard.stop()

    return asyncio.run(runner())


def commit(shard, txn, writes):
    """pin → prepare turn → validate → apply for ``writes``."""
    shard._do_snapshot(txn)
    assert shard.submit("prepare", txn).result() == (OK, None)
    assert shard.validate(writes, txn.start_ts)
    txn.commit_ts = shard.mvm.clock.begin_commit()
    shard.apply(txn, writes)
    shard.mvm.clock.finish_commit(txn.commit_ts)
    shard.release_snapshot(txn)


class TestInPlace:
    def test_idle_shard_answers_with_done_futures(self):
        async def scenario(shard, txn):
            commit(shard, txn(1), {"k": "v"})
            reader = txn(2)
            shard._do_snapshot(reader)
            read = shard.submit("read", reader, "k")
            assert read.done() and read.result() == (OK, "v")
            missing = shard.submit("read", reader, "never-written")
            assert missing.done() and missing.result() == (OK, None)
            prepare = shard.submit("prepare", reader)
            assert prepare.done() and prepare.result() == (OK, None)

        run(scenario)

    def test_validation_detects_write_write(self):
        """The prepare only takes the turn; validation finds the
        conflict and interns nothing (only an apply interns)."""
        async def scenario(shard, txn):
            loser = txn(1)
            shard._do_snapshot(loser)
            commit(shard, txn(2), {"k": "winner"})
            assert shard.submit("prepare", loser).result() == (OK, None)
            assert not shard.validate({"k": "loser", "fresh": 2},
                                      loser.start_ts)
            assert shard.stats()["keys"] == 1

        run(scenario)

    def test_doomed_txn_gets_conflict_and_its_doom_cause(self):
        async def scenario(shard, txn):
            doomed = txn(1)
            doomed.doom("shard-crashed")
            return shard.submit("read", doomed, "k").result()

        assert run(scenario) == (CONFLICT, "shard-crashed")

    def test_expired_txn_gets_timeout(self):
        async def scenario(shard, txn):
            return shard.submit("read", txn(1, deadline_s=-1.0),
                                "k").result()

        assert run(scenario) == (TIMEOUT, None)

    def test_a_stopped_shard_answers_shutdown(self):
        async def scenario(shard, txn):
            shard.stop()
            return shard.submit("read", txn(1), "k").result()

        assert run(scenario) == (SHUTDOWN, None)

    def test_watermark_is_the_oldest_snapshot_else_the_clock(self):
        async def scenario(shard, txn):
            assert shard.watermark == shard.mvm.clock.now
            open_txn = txn(1)
            shard._do_snapshot(open_txn)
            commit(shard, txn(2), {"k": "v"})
            assert shard.watermark == open_txn.start_ts
            shard.release_snapshot(open_txn)
            assert shard.watermark == shard.mvm.clock.now

        run(scenario)


class TestCrash:
    def test_crash_dooms_what_touched_the_shard_and_keeps_commits(self):
        """A crash loses volatile state only: it dooms the open
        transactions that read or wrote here, leaves every open
        snapshot registered and every committed version in place."""
        async def scenario(shard, txn):
            commit(shard, txn(1), {"k": "kept"})
            touched, untouched = txn(2), txn(3)
            for open_txn in (touched, untouched):
                shard._do_snapshot(open_txn)
            touched.read_keys[0] = {"k"}
            assert shard.crash_now([touched, untouched]) == [touched]
            assert (touched.doomed, untouched.doomed) == (
                "shard-crashed", None)
            assert shard.generation == 1
            assert shard.pinned_transactions() == 2
            assert shard.submit("read", untouched, "k").result() == (
                OK, "kept")

        run(scenario)
