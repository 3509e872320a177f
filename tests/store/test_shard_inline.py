"""Shard commands run in place or wait in the queue: same answers.

``Shard.submit`` executes a command before returning whenever nothing
is ahead of it and queues it otherwise; ``_execute`` is the one body
both paths share.  Registering a snapshot (``_do_snapshot``) is a plain
call, never a command.  These tests drive a bare :class:`Shard` (no server,
no sockets) down each path and pin that the statuses, the FIFO order,
the shedding and the crash/stop draining do not depend on which one a
command took.
"""

import asyncio

from repro.mvm.timestamps import GlobalClock
from repro.store.session import StoreConfig, Txn
from repro.store.shard import (CONFLICT, CRASHED, OK, OVERLOADED, SHUTDOWN,
                               TIMEOUT, Shard)


def run(scenario, **overrides):
    """Run ``scenario(shard, txn)`` under a loop; ``txn(uid)`` makes a
    transaction with a two-second deadline and a fresh snapshot."""
    async def runner():
        clock = GlobalClock()
        shard = Shard(0, StoreConfig(shards=1, **overrides), clock)
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


async def commit(shard, txn, writes):
    """pin → prepare turn → validate → apply for ``writes`` (in place)."""
    shard._do_snapshot(txn)
    assert (await shard.submit("prepare", txn)) == (OK, None)
    assert shard.validate(writes, txn.start_ts)
    txn.commit_ts = shard.mvm.clock.begin_commit()
    shard.apply(txn, writes)
    shard.mvm.clock.finish_commit(txn.commit_ts)
    shard.release_snapshot(txn)


class TestInPlace:
    def test_idle_shard_answers_with_done_futures(self):
        async def scenario(shard, txn):
            await commit(shard, txn(1), {"k": "v"})
            reader = txn(2)
            shard._do_snapshot(reader)
            read = shard.submit("read", reader, "k")
            assert read.done() and read.result() == (OK, "v")
            missing = shard.submit("read", reader, "never-written")
            assert missing.done() and missing.result() == (OK, None)
            prepare = shard.submit("prepare", reader)
            assert prepare.done() and prepare.result() == (OK, None)
            assert not shard._queue

        run(scenario)

    def test_validation_detects_write_write(self):
        """The prepare only takes the turn; validation finds the
        conflict and interns nothing (only an apply interns)."""
        async def scenario(shard, txn):
            loser = txn(1)
            shard._do_snapshot(loser)
            await commit(shard, txn(2), {"k": "winner"})
            assert shard.submit("prepare", loser).result() == (OK, None)
            assert not shard.validate({"k": "loser", "fresh": 2},
                                      loser.start_ts)
            assert shard.stats()["keys"] == 1

        run(scenario)


class TestSameChecksOnBothPaths:
    def both_paths(self, make_txn, expected):
        """Submit a read for ``make_txn(txn)`` in place and queued."""
        async def scenario(shard, txn):
            in_place = shard.submit("read", make_txn(txn(1)), "k")
            assert in_place.done()
            shard.inject_stall(1)
            queued = shard.submit("read", make_txn(txn(2)), "k")
            assert not queued.done()
            return in_place.result(), await queued

        first, second = run(scenario)
        assert first == second == expected

    def test_doomed_txn_gets_conflict_and_its_doom_cause(self):
        def doomed(txn):
            txn.doom("shard-crashed")
            return txn

        self.both_paths(doomed, (CONFLICT, "shard-crashed"))

    def test_expired_txn_gets_timeout(self):
        def expired(txn):
            txn.deadline -= 10.0
            return txn

        self.both_paths(expired, (TIMEOUT, None))


class TestQueueing:
    def test_backlog_keeps_fifo_order(self):
        """A command never overtakes one already waiting."""
        async def scenario(shard, txn):
            shard.inject_stall(5)
            reader = txn(1)
            shard._do_snapshot(reader)
            order = []
            futures = [shard.submit("prepare", reader)]
            futures += [shard.submit("read", reader, f"k{i}")
                        for i in range(3)]
            for index, future in enumerate(futures):
                assert not future.done()
                future.add_done_callback(
                    lambda _, index=index: order.append(index))
            results = await asyncio.gather(*futures)
            assert [status for status, _ in results] == [OK] * 4
            assert order == [0, 1, 2, 3]
            assert shard.stalls == 1
            # drained: the next command runs in place again
            assert shard.submit("read", reader, "k0").done()

        run(scenario)

    def test_full_queue_sheds_overloaded(self):
        async def scenario(shard, txn):
            shard.inject_stall(20)
            reader = txn(1)
            waiting = [shard.submit("read", reader, "k") for _ in range(3)]
            assert not any(f.done() for f in waiting)
            shed = shard.submit("read", reader, "k")
            assert shed.done() and shed.result() == (OVERLOADED, None)
            assert shard.shed == 1

        run(scenario, shard_queue_depth=3)

    def test_waiting_prepare_times_out_at_its_deadline(self):
        """A prepare queued behind a stall that outlasts its deadline
        is judged when the stall ends: it times out."""
        async def scenario(shard, txn):
            late = txn(1, deadline_s=0.03)
            shard._do_snapshot(late)
            shard.inject_stall(50)
            prepare = shard.submit("prepare", late)
            assert not prepare.done()
            assert (await prepare) == (TIMEOUT, None)

        run(scenario)


class TestDraining:
    def queued(self, shard, txn, count=3):
        shard.inject_stall(50)
        futures = [shard.submit("read", txn(i), "k") for i in range(count)]
        assert not any(f.done() for f in futures)
        return futures

    def test_crash_fails_everything_queued(self):
        async def scenario(shard, txn):
            futures = self.queued(shard, txn)
            shard.crash_now([])
            assert [f.result() for f in futures] == [(CRASHED, None)] * 3
            assert shard.generation == 1
            # the stall was served by the first queued command: the
            # next one runs in place
            late = txn(9)
            shard._do_snapshot(late)
            assert shard.submit("read", late, "k").result() == (OK, None)
            assert shard.stalls == 1

        run(scenario)

    def test_crash_during_a_stall_leaves_the_shard_serving(self):
        async def scenario(shard, txn):
            futures = self.queued(shard, txn)
            await asyncio.sleep(0.01)   # the stall is under way
            shard.crash_now([])
            assert all(f.done() for f in futures)
            await asyncio.sleep(0.06)   # the drain finds an empty queue
            late = txn(9)
            shard._do_snapshot(late)
            assert shard.submit("read", late, "k").done()

        run(scenario)

    def test_stop_fails_everything_queued_and_later_submits(self):
        async def scenario(shard, txn):
            futures = self.queued(shard, txn)
            shard.stop()
            assert [f.result() for f in futures] == [(SHUTDOWN, None)] * 3
            late = shard.submit("read", txn(9), "k")
            assert late.done() and late.result() == (SHUTDOWN, None)

        run(scenario)
