"""One store shard: a single-writer task over an `MVMController`.

Each shard is an independent snapshot-isolation domain — its own
:class:`~repro.mvm.timestamps.GlobalClock`, its own
:class:`~repro.mvm.controller.MVMController` (one key per line,
``words_per_line=1``, unbounded version cap — the recovery checkpoint
pins history, and a pinned checkpoint under the ABORT_WRITER cap is
exactly the livelock footgun :mod:`repro.mvm.checkpoint` warns about).

Concurrency model: **the single-threaded event loop serializes all
mutation**; nothing a shard does contains an ``await``.  A snapshot pin
(:meth:`Shard._do_snapshot`) is a plain call.  A ``read`` or
``prepare`` command runs in place, inside :meth:`Shard.submit`, when
nothing is queued ahead of it; the bounded command queue and its
single-writer task are where commands *wait* — behind an injected
stall, or the backlog behind one, or until the task starts — in FIFO
order.  A full queue sheds the command with a structured
``overloaded`` status — never silent queueing.  The commit *apply*
phase is a synchronous method the coordinator calls with no
intervening ``await``: it draws the commit timestamp, installs and
publishes in one step, so no commit is ever in flight across an
``await``, a snapshot never has to wait for one, and a multi-shard
apply is atomic — no reader anywhere can observe a half-applied
cross-shard commit.

Crash/recovery (:meth:`Shard.crash_now`): the shard holds a recovery
checkpoint pinned at the *publish frontier* — advanced to every
committed end timestamp inside the atomic apply.  A forced crash bumps
the generation counter, fails queued commands with ``shard-crashed``,
drops prepare locks, dooms and unpins every transaction with state on
the shard, and rolls the MVM back to the checkpoint.  Prepares are
tagged with the generation so a coordinator racing a crash detects the
mismatch and aborts instead of applying onto the recovered state.
"""

from __future__ import annotations

import asyncio
from typing import Deque, Dict, Iterable, List, Optional

from collections import deque

from repro.common.config import MVMConfig, VersionCapPolicy
from repro.mem.address import AddressMap
from repro.mvm.checkpoint import CheckpointManager
from repro.mvm.controller import MVMController
from repro.store.session import StoreConfig, Txn

__all__ = ["Shard", "ShardCommand"]

#: statuses a shard command future can resolve to
OK, CONFLICT, OVERLOADED, TIMEOUT, CRASHED, SHUTDOWN = (
    "ok", "conflict", "overloaded", "timeout", "shard-crashed", "shutdown")


class ShardCommand:
    """One queued shard operation, resolved through a future."""

    __slots__ = ("kind", "txn", "payload", "future")

    def __init__(self, kind: str, txn: Txn, payload: object,
                 future: "asyncio.Future"):
        self.kind = kind
        self.txn = txn
        self.payload = payload
        self.future = future

    def resolve(self, status: str, data: object = None) -> None:
        """Resolve the caller's future unless it already gave up."""
        if not self.future.done():
            self.future.set_result((status, data))


class Shard:
    """A single-writer snapshot-isolation domain over one controller."""

    def __init__(self, shard_id: int, config: StoreConfig):
        self.shard_id = shard_id
        self.config = config
        self.mvm = MVMController(
            MVMConfig(cap_policy=VersionCapPolicy.UNBOUNDED),
            AddressMap(words_per_line=1))
        #: key -> line interning (one key per line, words_per_line=1)
        self.keys: Dict[str, int] = {}
        #: bumped by every crash; prepares carry it for race detection
        self.generation = 0
        self.checkpoints = CheckpointManager.for_controller(self.mvm)
        #: pinned at the publish frontier (advanced inside every apply)
        self.recovery = self.checkpoints.create()
        self._queue: Deque[ShardCommand] = deque()
        self._wakeup = asyncio.Event()
        self._closed = False
        #: line -> txn uid holding the prepare lock
        self._locks: Dict[int, int] = {}
        #: chaos: milliseconds the task sleeps before its next command
        self._stall_ms = 0.0
        self._task: Optional[asyncio.Task] = None
        # counters (scraped into the server's metrics registry)
        self.commits = 0
        self.shed = 0
        self.crashes = 0
        self.stalls = 0

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> None:
        """Spawn the single-writer command task."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        """Drain and stop the command task; queued commands get SHUTDOWN."""
        self._closed = True
        while self._queue:
            self._queue.popleft().resolve(SHUTDOWN)
        self._wakeup.set()
        if self._task is not None:
            await self._task
            self._task = None

    # ------------------------------------------------------------------
    # submission (coordinator side)

    def submit(self, kind: str, txn: Txn,
               payload: object = None) -> "asyncio.Future":
        """Run a command, in place if nothing is ahead of it.

        The returned future is already resolved unless the command has
        to wait (backlog, pending stall, shard not started); a full
        queue sheds it as ``overloaded``.
        """
        future = asyncio.get_running_loop().create_future()
        command = ShardCommand(kind, txn, payload, future)
        if self._closed:
            command.resolve(SHUTDOWN)
        elif self._task is not None and not self._queue \
                and not self._stall_ms:
            self._execute(command)  # nothing is ahead of it
        elif len(self._queue) >= self.config.shard_queue_depth:
            self.shed += 1
            command.resolve(OVERLOADED)
        else:
            self._queue.append(command)
            self._wakeup.set()
        return future

    def line_for(self, key: str) -> int:
        """Intern ``key`` to its line identifier."""
        line = self.keys.get(key)
        if line is None:
            line = self.keys[key] = len(self.keys)
        return line

    # ------------------------------------------------------------------
    # the single-writer loop (where commands wait their turn)

    async def _run(self) -> None:
        while True:
            if not self._queue:
                if self._closed:
                    return
                self._wakeup.clear()
                await self._wakeup.wait()
            elif self._stall_ms:
                delay, self._stall_ms = self._stall_ms, 0.0
                self.stalls += 1
                await asyncio.sleep(delay / 1000.0)
            else:
                self._execute(self._queue.popleft())

    def _execute(self, command: ShardCommand) -> None:
        """Run one command now, whichever path it took here."""
        if command.future.done():
            return
        if command.txn.doomed is not None:
            command.resolve(CONFLICT, command.txn.doomed)
        elif asyncio.get_running_loop().time() > command.txn.deadline:
            command.resolve(TIMEOUT)
        elif command.kind == "read":
            self._do_read(command)
        elif command.kind == "prepare":
            self._do_prepare(command)
        else:  # pragma: no cover - commands are created in-package
            command.resolve(CONFLICT, f"unknown command {command.kind}")

    def _do_snapshot(self, txn: Txn) -> None:
        """Pin ``txn``'s snapshot here: no commit is ever in flight
        outside :meth:`apply`, so a start timestamp is always free."""
        start_ts = self.mvm.clock.next_start()
        self.mvm.active.add(start_ts)
        txn.snapshots[self.shard_id] = (start_ts, self.generation)

    def _do_read(self, command: ShardCommand) -> None:
        key = command.payload
        pin = command.txn.snapshots.get(self.shard_id)
        if pin is None or pin[1] != self.generation:
            command.resolve(CRASHED)
            return
        line = self.keys.get(key)
        if line is None:
            command.resolve(OK, None)
            return
        data = self.mvm.snapshot_read(line, pin[0])
        command.resolve(OK, data[0] if data is not None else None)

    def _do_prepare(self, command: ShardCommand) -> None:
        """Phase 1 of commit: lock lines, validate first-committer-wins.

        Resolves with the shard generation, which the coordinator checks
        again before it applies.
        """
        txn = command.txn
        writes: Dict[str, object] = command.payload
        pin = txn.snapshots.get(self.shard_id)
        if pin is None or pin[1] != self.generation:
            command.resolve(CRASHED)
            return
        lines = sorted(self.line_for(key) for key in writes)
        for line in lines:
            holder = self._locks.get(line)
            if holder is not None and holder != txn.uid:
                command.resolve(CONFLICT, "write-write")
                return
        if self.config.validate_fcw:
            conflict = self.mvm.validate_many(lines, pin[0])
            if conflict is not None:
                command.resolve(CONFLICT, "write-write")
                return
        for line in lines:
            self._locks[line] = txn.uid
        command.resolve(OK, self.generation)

    # ------------------------------------------------------------------
    # synchronous coordinator-side phases (atomic: no awaits)

    def apply(self, txn: Txn, writes: Dict[str, object]) -> None:
        """Phase 2 of commit: draw end_ts, install, publish, advance
        recovery.

        Runs synchronously from the coordinator after every touched
        shard prepared — with no ``await`` between the generation checks
        and the last shard's apply, the whole multi-shard publish is one
        atomic step of the event loop, and each shard's commit
        timestamps rise in apply order.
        """
        end_ts = self.mvm.clock.begin_commit()
        items = [(self.line_for(key), (value,))
                 for key, value in sorted(writes.items())]
        self.mvm.install_many(end_ts, items,
                              installer=(txn.uid, txn.label))
        self.mvm.clock.finish_commit(end_ts)
        self.release_locks(txn)
        self.recovery = self.checkpoints.advance(self.recovery, end_ts)
        self.commits += 1
        txn.commit_ts[self.shard_id] = end_ts

    def release_locks(self, txn: Txn) -> None:
        """Drop the line locks ``txn``'s prepare took (idempotent)."""
        for line in [ln for ln, holder in self._locks.items()
                     if holder == txn.uid]:
            del self._locks[line]

    def release_snapshot(self, txn: Txn) -> None:
        """Unpin a transaction's snapshot unless a crash already did."""
        pin = txn.snapshots.pop(self.shard_id, None)
        if pin is not None and pin[1] == self.generation:
            self.mvm.active.remove(pin[0])

    # ------------------------------------------------------------------
    # chaos hooks

    def inject_stall(self, ms: float) -> None:
        """Queue the next command behind a ``ms`` sleep of the task."""
        self._stall_ms += ms

    def crash_now(self, open_txns: Iterable[Txn]) -> List[Txn]:
        """Forced crash + restart from the recovery checkpoint.

        Synchronous and atomic: bumps the generation (outstanding
        prepares become detectably stale), fails queued commands, drops
        prepare locks, dooms/unpins every open transaction with state
        here, and truncates the MVM back to the publish frontier.
        Returns the transactions doomed.
        """
        self.generation += 1
        self.crashes += 1
        while self._queue:
            self._queue.popleft().resolve(CRASHED)
        self._locks.clear()
        doomed = []
        for txn in open_txns:
            pin = txn.snapshots.pop(self.shard_id, None)
            if pin is not None and pin[1] == self.generation - 1:
                self.mvm.active.remove(pin[0])
            if pin is not None or any(
                    shard == self.shard_id for shard, _ in txn.writes):
                txn.doom("shard-crashed")
                doomed.append(txn)
        self.checkpoints.rollback(self.recovery)
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
