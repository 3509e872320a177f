"""Shard commands run in place or wait in the queue: same answers.

``Shard.submit`` executes a command before returning whenever nothing
is ahead of it and queues it otherwise; ``_execute`` is the one body
both paths share.  A snapshot pin (``_do_snapshot``) is a plain call,
never a command.  These tests drive a bare :class:`Shard` (no server,
no sockets) down each path and pin that the statuses, the FIFO order,
the shedding and the crash/stop draining do not depend on which one a
command took.
"""

import asyncio

from repro.store.session import StoreConfig, Txn
from repro.store.shard import (CONFLICT, CRASHED, OK, OVERLOADED, SHUTDOWN,
                               TIMEOUT, Shard)


def run(scenario, **overrides):
    """Run ``scenario(shard, txn)`` under a loop; ``txn(uid)`` makes a
    transaction with a two-second deadline."""
    async def runner():
        shard = Shard(0, StoreConfig(shards=1, **overrides))
        loop = asyncio.get_running_loop()

        def txn(uid, deadline_s=2.0):
            return Txn(uid=uid, session_id=uid, label=f"t{uid}",
                       deadline=loop.time() + deadline_s, begin_seq=uid)

        try:
            return await scenario(shard, txn)
        finally:
            await shard.stop()

    return asyncio.run(runner())


async def commit(shard, txn, writes):
    """pin → prepare → apply for ``writes`` (all in place)."""
    shard._do_snapshot(txn)
    assert (await shard.submit("prepare", txn, writes)) \
        == (OK, shard.generation)
    shard.apply(txn, writes)
    shard.release_snapshot(txn)


class TestInPlace:
    def test_idle_shard_answers_with_done_futures(self):
        async def scenario(shard, txn):
            shard.start()
            await commit(shard, txn(1), {"k": "v"})
            reader = txn(2)
            shard._do_snapshot(reader)
            read = shard.submit("read", reader, "k")
            assert read.done() and read.result() == (OK, "v")
            missing = shard.submit("read", reader, "never-written")
            assert missing.done() and missing.result() == (OK, None)
            prepare = shard.submit("prepare", reader, {"k": "w"})
            assert prepare.done() and prepare.result() == (OK, 0)
            assert not shard._queue

        run(scenario)

    def test_in_place_prepare_detects_write_write(self):
        async def scenario(shard, txn):
            shard.start()
            loser = txn(1)
            shard._do_snapshot(loser)
            await commit(shard, txn(2), {"k": "winner"})
            prepare = shard.submit("prepare", loser, {"k": "loser"})
            assert prepare.done()
            assert prepare.result() == (CONFLICT, "write-write")

        run(scenario)


class TestSameChecksOnBothPaths:
    def both_paths(self, make_txn, expected):
        """Submit a read for ``make_txn(txn)`` in place and queued."""
        async def scenario(shard, txn):
            shard.start()
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

    def test_read_without_a_pin_is_crashed(self):
        self.both_paths(lambda txn: txn, (CRASHED, None))


class TestQueueing:
    def test_not_started_shard_queues_then_serves_fifo(self):
        async def scenario(shard, txn):
            reader = txn(1)
            shard._do_snapshot(reader)
            read = shard.submit("read", reader, "k")
            prepare = shard.submit("prepare", reader, {"k": "v"})
            assert not read.done() and not prepare.done()
            assert len(shard._queue) == 2
            shard.start()
            assert (await prepare) == (OK, 0)
            # served in order: the read ahead of the prepare is done too
            assert read.result() == (OK, None)

        run(scenario)

    def test_backlog_keeps_fifo_order(self):
        """A command never overtakes one already waiting."""
        async def scenario(shard, txn):
            shard.start()
            shard.inject_stall(5)
            reader = txn(1)
            shard._do_snapshot(reader)
            order = []
            futures = [shard.submit("prepare", reader, {"k0": 1})]
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
            shard.start()
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
        is judged when the stall ends: it times out, taking no lock."""
        async def scenario(shard, txn):
            shard.start()
            late = txn(1, deadline_s=0.03)
            shard._do_snapshot(late)
            shard.inject_stall(50)
            prepare = shard.submit("prepare", late, {"b": 2})
            assert not prepare.done()
            assert (await prepare) == (TIMEOUT, None)
            assert not shard._locks

        run(scenario)


class TestDraining:
    def queued(self, shard, txn, count=3):
        shard.inject_stall(50)
        futures = [shard.submit("read", txn(i), "k") for i in range(count)]
        assert not any(f.done() for f in futures)
        return futures

    def test_crash_fails_everything_queued(self):
        async def scenario(shard, txn):
            shard.start()
            futures = self.queued(shard, txn)
            shard.crash_now([])
            assert [f.result() for f in futures] == [(CRASHED, None)] * 3
            assert shard.generation == 1
            # the stall is still owed to the next command; the task
            # survives having had its queue emptied and serves it
            late = txn(9)
            shard._do_snapshot(late)
            assert (await shard.submit("read", late, "k")) == (OK, None)
            assert shard.stalls == 1

        run(scenario)

    def test_crash_during_a_stall_leaves_the_task_running(self):
        async def scenario(shard, txn):
            shard.start()
            futures = self.queued(shard, txn)
            await asyncio.sleep(0.01)   # the task is now asleep
            shard.crash_now([])
            assert all(f.done() for f in futures)
            await asyncio.sleep(0.06)   # wakes to an empty queue
            assert not shard._task.done()
            late = txn(9)
            shard._do_snapshot(late)
            assert shard.submit("read", late, "k").done()

        run(scenario)

    def test_stop_fails_everything_queued_and_later_submits(self):
        async def scenario(shard, txn):
            shard.start()
            futures = self.queued(shard, txn)
            await shard.stop()
            assert [f.result() for f in futures] == [(SHUTDOWN, None)] * 3
            late = shard.submit("read", txn(9), "k")
            assert late.done() and late.result() == (SHUTDOWN, None)

        run(scenario)
