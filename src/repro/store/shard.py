"""One store shard: a plain object over an `MVMController`.

Every shard's :class:`~repro.mvm.controller.MVMController` (one key per
line, ``words_per_line=1``) runs on the server's one
:class:`~repro.mvm.timestamps.GlobalClock`, so a timestamp means the
same moment on every shard.  The version cap is unbounded (an open
snapshot pins history, and a pin under the ABORT_WRITER cap is exactly
the livelock footgun :mod:`repro.mvm.checkpoint` warns about), and
versions do not coalesce: a version's timestamp is the commit that
wrote it, which is what the coordinator's commit-time snapshot choice
(:meth:`Shard.oldest_version_after`) reads.

Concurrency model: **the single-threaded event loop serializes all
mutation**, and nothing a shard does waits.  Registering a
transaction's snapshot (:meth:`Shard._do_snapshot`) is a plain call,
made on every shard at the frame that carries the begin, so version GC
and every shard's watermark respect the snapshot before the
transaction first touches the shard.  A ``read`` or ``prepare`` runs
where it arrives, inside :meth:`Shard.submit`: its body returns
``(status, data)``.  A ``prepare`` only takes the commit's turn: the
coordinator decides the commit in one synchronous step that calls
:meth:`Shard.validate` (first-committer-wins) and then
:meth:`Shard.apply` on every written shard at the one commit timestamp
it drew, so no commit is ever in flight across an ``await``, and no
reader anywhere can observe a half-applied cross-shard commit.  Where a
request has to wait — behind an injected stall — the server holds it
before it reaches the shard.

A forced crash (:meth:`Shard.crash_now`) loses volatile state and keeps
committed state: it bumps the generation counter and dooms every open
transaction that read or wrote the shard.  Every commit applied in one
atomic step, so there is no half-applied residue to roll back.  A shard
refuses a doomed transaction's commands, and the coordinator checks the
doom again before it applies.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Iterable, List, Optional, Tuple

from repro.common.config import MVMConfig, VersionCapPolicy
from repro.mem.address import AddressMap
from repro.mvm.controller import MVMController
from repro.mvm.timestamps import GlobalClock
from repro.store.session import StoreConfig, Txn

__all__ = ["Shard"]

#: statuses a shard command can answer with
OK, CONFLICT, TIMEOUT, CRASHED, SHUTDOWN = (
    "ok", "conflict", "timeout", "shard-crashed", "shutdown")


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
        self._closed = False
        # counters (scraped into the server's metrics registry)
        self.commits = 0
        #: always 0, nothing sheds a command: perfbench's ledger reads it
        #: (ROADMAP item 0 retires it)
        self.shed = 0
        self.crashes = 0

    def stop(self) -> None:
        """Refuse further commands with SHUTDOWN."""
        self._closed = True

    # ------------------------------------------------------------------
    # commands (coordinator side)
    #
    # ``submit``, its future and the ``_do_*`` bodies it calls are the
    # seams perfbench's traced pass wraps, looked up per call (ROADMAP
    # item 0 retires them): a command is a plain call underneath.

    def submit(self, kind: str, txn: Txn, payload: object = None,
               now: Optional[float] = None) -> "asyncio.Future":
        """Run a command where it arrives: its ``(status, data)`` on an
        already-resolved future.

        ``now`` is the loop time the caller read for the request (read
        here when not given).
        """
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        future.set_result(self._execute(
            kind, txn, payload, loop.time() if now is None else now))
        return future

    def _execute(self, kind: str, txn: Txn, payload: object,
                 now: float) -> Tuple[str, object]:
        """Run one command at loop time ``now``: its ``(status, data)``.
        Expired means nothing of the deadline is left
        (``now >= deadline``), as at the server."""
        if self._closed:
            return (SHUTDOWN, None)
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
        """Phase 2 of commit: install at ``txn.commit_ts``.

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
        self.commits += 1

    def release_snapshot(self, txn: Txn) -> None:
        """Unregister a finished transaction's snapshot."""
        self.mvm.active.remove(txn.start_ts)

    # ------------------------------------------------------------------
    # chaos hook

    def crash_now(self, open_txns: List[Txn]) -> List[Txn]:
        """Forced crash + restart: bump the generation and doom every
        open transaction that read or wrote here; returns them.

        Committed state survives as it is.  Open snapshots stay
        registered: a doomed transaction releases its own when it ends,
        and one that has not touched the shard still reads it at its
        snapshot.
        """
        self.generation += 1
        self.crashes += 1
        doomed = [txn for txn in open_txns
                  if self.shard_id in txn.touched_shards]
        for txn in doomed:
            txn.doom("shard-crashed")
        return doomed

    # ------------------------------------------------------------------
    # introspection

    @property
    def watermark(self) -> int:
        """No later transaction starts below this: the oldest open
        snapshot, else the store clock's present (bounds what version
        GC must keep)."""
        oldest = self.mvm.active.oldest()
        return self.mvm.clock.now if oldest is None else oldest

    def pinned_transactions(self) -> int:
        """Open snapshots registered here."""
        return len(self.mvm.active)

    def stats(self) -> dict:
        """Shard counters for the metrics registry."""
        return {
            "commits": self.commits,
            "shed": self.shed,
            "crashes": self.crashes,
            "generation": self.generation,
            "keys": len(self.keys),
            "pinned_transactions": self.pinned_transactions(),
            "watermark": self.watermark,
        }
