"""One store shard: a plain object over an `MVMController`.

Every shard's :class:`~repro.mvm.controller.MVMController` (one key per
line, ``words_per_line=1``) runs on the server's one
:class:`~repro.mvm.timestamps.GlobalClock`, so a timestamp means the
same moment on every shard.  The version cap is unbounded (the recovery
checkpoint pins history, and a pinned checkpoint under the ABORT_WRITER
cap is exactly the livelock footgun :mod:`repro.mvm.checkpoint` warns
about), and versions do not coalesce: a version's timestamp is the
commit that wrote it, which is what the coordinator's commit-time
snapshot choice (:meth:`Shard.oldest_version_after`) reads.

Concurrency model: **the single-threaded event loop serializes all
mutation**; nothing a shard does contains an ``await``.  Registering a
transaction's snapshot (:meth:`Shard._do_snapshot`) is a plain call,
made on every shard at the frame that carries the begin, so version GC
and every shard's watermark respect the snapshot before the
transaction first touches the shard.  A ``read`` or ``prepare`` command
runs in place, inside :meth:`Shard.submit`, when nothing is queued
ahead of it: its body returns ``(status, data)`` and ``submit`` hands
that back on an already-resolved future, with no command object made.
The bounded command queue is where commands *wait* — behind an
injected stall, or the backlog behind one — in FIFO order, as
``(kind, txn, payload, future)`` tuples drained by one ``call_later``
timer; both paths run the one body, :meth:`Shard._execute`, and judge
the deadline against one clock read.  A full queue sheds the command
with a structured ``overloaded`` status — never silent queueing.  A
``prepare`` only takes the commit's turn: the coordinator decides the
commit in one synchronous step that calls :meth:`Shard.validate`
(first-committer-wins) and then :meth:`Shard.apply` on every written
shard at the one commit timestamp it drew, so no commit is ever in
flight across an ``await``, a snapshot never has to wait for one, and
no reader anywhere can observe a half-applied cross-shard commit.

Crash/recovery (:meth:`Shard.crash_now`): the shard holds a recovery
checkpoint pinned at the *publish frontier* — advanced to every commit
it applies, inside the atomic apply.  A forced crash bumps the
generation counter, fails queued commands with ``shard-crashed``,
dooms every open transaction that read or wrote the shard, and rolls
the MVM back to the checkpoint with every open snapshot re-registered
afterwards, so a transaction that has not touched the shard still
reads it at its snapshot.  A shard refuses a doomed transaction's
commands, and the coordinator checks the doom again before it applies.
"""

from __future__ import annotations

import asyncio
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from collections import deque

from repro.common.config import MVMConfig, VersionCapPolicy
from repro.mem.address import AddressMap
from repro.mvm.checkpoint import CheckpointManager
from repro.mvm.controller import MVMController
from repro.mvm.timestamps import GlobalClock
from repro.store.session import StoreConfig, Txn

__all__ = ["Shard"]

#: statuses a shard command future can resolve to
OK, CONFLICT, OVERLOADED, TIMEOUT, CRASHED, SHUTDOWN = (
    "ok", "conflict", "overloaded", "timeout", "shard-crashed", "shutdown")


class Shard:
    """One slice of the key space, over one controller on the store clock."""

    def __init__(self, shard_id: int, config: StoreConfig,
                 clock: GlobalClock):
        self.shard_id = shard_id
        self.config = config
        self.mvm = MVMController(
            MVMConfig(cap_policy=VersionCapPolicy.UNBOUNDED,
                      coalescing=False),
            AddressMap(words_per_line=1), clock=clock)
        #: key -> line interning (one key per line, words_per_line=1)
        self.keys: Dict[str, int] = {}
        #: bumped by every crash (reported, e.g. by PING)
        self.generation = 0
        self.checkpoints = CheckpointManager.for_controller(self.mvm)
        #: pinned at the publish frontier (advanced inside every apply)
        self.recovery = self.checkpoints.create()
        #: commands waiting their turn: ``(kind, txn, payload, future)``
        self._queue: Deque[tuple] = deque()
        self._closed = False
        #: chaos: milliseconds the next queued command waits
        self._stall_ms = 0.0
        #: the timer that drains the queue (None: nothing is waiting)
        self._drain: Optional[asyncio.TimerHandle] = None
        # counters (scraped into the server's metrics registry)
        self.commits = 0
        self.shed = 0
        self.crashes = 0
        self.stalls = 0

    def stop(self) -> None:
        """Refuse further commands; queued ones get SHUTDOWN."""
        self._closed = True
        if self._drain is not None:
            self._drain.cancel()
            self._drain = None
        self._fail_queued(SHUTDOWN)

    def _fail_queued(self, status: str) -> None:
        """Answer every waiting command ``status`` (unless its caller
        gave up)."""
        while self._queue:
            future = self._queue.popleft()[3]
            if not future.done():
                future.set_result((status, None))

    # ------------------------------------------------------------------
    # submission (coordinator side)

    def submit(self, kind: str, txn: Txn, payload: object = None,
               now: Optional[float] = None) -> "asyncio.Future":
        """Run a command, in place if nothing is ahead of it.

        ``now`` is the loop time the caller read for the request (read
        here when not given).  The returned future is already resolved
        unless the command has to wait (backlog, pending stall); a full
        queue sheds it as ``overloaded``.
        """
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        if self._closed:
            future.set_result((SHUTDOWN, None))
        elif not self._queue and not self._stall_ms:
            # nothing is ahead of it
            future.set_result(self._execute(
                kind, txn, payload, loop.time() if now is None else now))
        elif len(self._queue) >= self.config.shard_queue_depth:
            self.shed += 1
            future.set_result((OVERLOADED, None))
        else:
            self._queue.append((kind, txn, payload, future))
            if self._drain is None:
                self._arm_drain()
        return future

    # ------------------------------------------------------------------
    # the drain timer (where commands wait their turn)

    def _arm_drain(self) -> None:
        """Serve the owed stall: drain the queue when it has passed."""
        delay, self._stall_ms = self._stall_ms, 0.0
        self.stalls += 1
        self._drain = asyncio.get_running_loop().call_later(
            delay / 1000.0, self._drain_queue)

    def _drain_queue(self) -> None:
        """Run the queue in FIFO order, until it is empty or a stall
        injected since is owed."""
        self._drain = None
        now = asyncio.get_running_loop().time()
        while self._queue:
            if self._stall_ms:
                self._arm_drain()
                return
            kind, txn, payload, future = self._queue.popleft()
            if not future.done():  # its caller may have given up
                future.set_result(self._execute(kind, txn, payload, now))

    def _execute(self, kind: str, txn: Txn, payload: object,
                 now: float) -> Tuple[str, object]:
        """Run one command at loop time ``now``, whichever path it took
        here: its ``(status, data)``.  Expired means nothing of the
        deadline is left (``now >= deadline``), as at the server."""
        if txn.doomed is not None:
            return (CONFLICT, txn.doomed)
        if now >= txn.deadline:
            return (TIMEOUT, None)
        if kind == "read":
            return self._do_read(txn, payload)
        if kind == "prepare":
            return self._do_prepare(txn)
        return (CONFLICT, f"unknown command {kind}")  # pragma: no cover

    def _do_snapshot(self, txn: Txn) -> None:
        """Register ``txn``'s snapshot here: GC keeps what it reads."""
        self.mvm.active.add(txn.start_ts)

    def _do_read(self, txn: Txn, key: str) -> Tuple[str, object]:
        line = self.keys.get(key)
        if line is None:
            return (OK, None)
        data = self.mvm.snapshot_read(line, txn.start_ts)
        return (OK, data[0] if data is not None else None)

    def _do_prepare(self, txn: Txn) -> Tuple[str, object]:
        """Phase 1 of commit: the commit's turn in this shard's order."""
        return (OK, None)

    # ------------------------------------------------------------------
    # synchronous coordinator-side phases (atomic: no awaits)

    def oldest_version_after(self, keys: Iterable[str],
                             timestamp: int) -> Optional[int]:
        """Oldest version timestamp above ``timestamp`` among ``keys``
        (``None``: none of them was written since)."""
        return self.mvm.oldest_version_after(
            [line for line in map(self.keys.get, keys) if line is not None],
            timestamp)

    def validate(self, writes: Dict[str, object], snapshot: int) -> bool:
        """First-committer-wins: no line in ``writes`` has a version
        newer than ``snapshot``.  A key no commit wrote is not
        interned, and cannot conflict."""
        if not self.config.validate_fcw:
            return True
        lines = [line for line in map(self.keys.get, writes)
                 if line is not None]
        return self.mvm.validate_many(lines, snapshot) is None

    def apply(self, txn: Txn, writes: Dict[str, object]) -> None:
        """Phase 2 of commit: install at ``txn.commit_ts``, advance
        recovery.

        Runs synchronously from the coordinator, which drew the commit
        timestamp after every written shard validated — with no
        ``await`` between the doom check, the validations and the last
        shard's apply, the whole multi-shard commit is one atomic step
        of the event loop.
        """
        keys = self.keys  # interned here only: one line per key
        items = [(keys.setdefault(key, len(keys)), (value,))
                 for key, value in sorted(writes.items())]
        self.mvm.install_many(txn.commit_ts, items,
                              installer=(txn.uid, txn.label))
        self.recovery = self.checkpoints.advance(self.recovery,
                                                 txn.commit_ts)
        self.commits += 1

    def release_snapshot(self, txn: Txn) -> None:
        """Unregister a finished transaction's snapshot."""
        self.mvm.active.remove(txn.start_ts)

    # ------------------------------------------------------------------
    # chaos hooks

    def inject_stall(self, ms: float) -> None:
        """Queue the next command behind a ``ms`` wait."""
        self._stall_ms += ms

    def crash_now(self, open_txns: List[Txn]) -> List[Txn]:
        """Forced crash + restart from the recovery checkpoint.

        Synchronous and atomic: bumps the generation, fails queued
        commands, dooms every open transaction that read or wrote here,
        and truncates the MVM back to the publish frontier.  Every open
        snapshot is registered on every shard; rollback wants none, so
        they are unregistered around it and registered again — doomed
        ones too, released when their transaction ends.  Returns the
        transactions doomed.
        """
        self.generation += 1
        self.crashes += 1
        self._fail_queued(CRASHED)
        doomed = [txn for txn in open_txns
                  if self.shard_id in txn.touched_shards]
        for txn in doomed:
            txn.doom("shard-crashed")
        for txn in open_txns:
            self.mvm.active.remove(txn.start_ts)
        self.checkpoints.rollback(self.recovery)
        for txn in open_txns:
            self.mvm.active.add(txn.start_ts)
        return doomed

    # ------------------------------------------------------------------
    # introspection

    @property
    def watermark(self) -> Optional[int]:
        """Oldest pinned snapshot (bounds what version GC must keep)."""
        return self.mvm.active.oldest()

    def pinned_transactions(self) -> int:
        """Active-table entries beyond the recovery checkpoint's pin."""
        return len(self.mvm.active) - self.checkpoints.live_count

    def stats(self) -> dict:
        """Shard counters for the metrics registry."""
        return {
            "commits": self.commits,
            "shed": self.shed,
            "crashes": self.crashes,
            "stalls": self.stalls,
            "generation": self.generation,
            "keys": len(self.keys),
            "queue_depth": len(self._queue),
            "pinned_transactions": self.pinned_transactions(),
            "watermark": self.watermark,
        }
