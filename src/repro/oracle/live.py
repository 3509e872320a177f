"""Live SI monitoring: stream store sessions through the oracle checker.

The offline oracle (:mod:`repro.oracle.checker`) consumes complete
:class:`~repro.sim.history.History` objects recorded by the engine.
The live store cannot wait for "the end of the run" — it streams one
**session row** per completed transaction (the same span-schema-
compatible JSONL it persists as corpus artifacts), and
:class:`LiveHistoryMonitor` turns that stream into checkable per-shard
histories:

* each shard is an independent SI domain, so the monitor maintains one
  window of transaction records *per shard*, keyed by the per-shard
  ``start_ts``/``commit_ts`` the row carries;
* string keys are interned to integer addresses and JSON values to
  integer value ids (canonical ``json.dumps`` form; a missing key reads
  as 0, matching the checker's ``initial`` default), so exact value
  replay works over arbitrary JSON payloads;
* every ``check()`` rebuilds each shard's window as a ``History`` and
  runs the standard snapshot checks — abort causes, timestamp
  coherence, snapshot-read value replay, first-committer-wins, and the
  SI-theorem cycle check;
* **watermark folding** bounds memory: once the server reports that no
  future transaction can start below timestamp ``W`` on a shard
  (:meth:`note_watermark`, fed from the shard's oldest pinned
  snapshot), committed writers with ``commit_ts <= W`` are folded into
  the window's initial image in commit order and dropped, and checked
  aborts/read-only commits are dropped immediately — so an always-on
  monitor retains only the overlap frontier, not the whole run.

Violations are deduplicated, kept on :attr:`violations`, and — when a
dump directory is configured — dumped as a replayable JSONL artifact of
the retained rows (``sitm-store check`` replays them offline, and the
golden corpus under ``tests/corpus/store/`` pins the format).
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import StoreError
from repro.oracle.checker import Violation, check_history
from repro.sim.history import (ABORT, BEGIN, COMMIT, READ, WRITE,
                               History, HistoryEvent, TxnRecord)

__all__ = ["LiveHistoryMonitor", "STORE_ABORT_CAUSES", "check_rows"]

#: canonical form of a JSON value; ``json.dumps(value, sort_keys=True)``
#: without building a ``JSONEncoder`` per operation
_canonical = json.JSONEncoder(sort_keys=True).encode

#: abort causes the store declares legal in its histories
STORE_ABORT_CAUSES = ("disconnect", "explicit", "overloaded",
                      "shard-crashed", "timeout", "write-write")


class _ShardWindow:
    """One shard's retained transactions plus its folded initial image."""

    __slots__ = ("txns", "raw", "initial", "watermark")

    def __init__(self) -> None:
        #: retained (record, committed_writer) pairs in arrival order
        self.txns: List[TxnRecord] = []
        #: uid -> raw row (for violation dumps / replay artifacts)
        self.raw: Dict[int, dict] = {}
        self.initial: Dict[int, int] = {}
        self.watermark: Optional[int] = None


class LiveHistoryMonitor:
    """Streams completed store transactions through the SI checker."""

    def __init__(self, shards: int, dump_dir: Optional[object] = None,
                 check_every: int = 64, si_cycle_check: bool = True):
        if shards < 1:
            raise StoreError("monitor needs at least one shard")
        self.shards = shards
        self.check_every = max(1, check_every)
        self.si_cycle_check = si_cycle_check
        self.dump_dir = pathlib.Path(dump_dir) if dump_dir else None
        self._windows = [_ShardWindow() for _ in range(shards)]
        self._addrs: Dict[str, int] = {}
        #: canonical JSON -> value id, for the values a window still
        #: references (:meth:`_forget_values`); ids are never reused
        self._value_ids: Dict[str, int] = {}
        self._last_value_id = 0
        self.rows_seen = 0
        self.checks_run = 0
        self.violations: List[Violation] = []
        self._seen_violations: set = set()
        self.dumps: List[pathlib.Path] = []

    # ------------------------------------------------------------------
    # interning

    def _addr_of(self, key: str) -> int:
        addr = self._addrs.get(key)
        if addr is None:
            addr = self._addrs[key] = len(self._addrs) + 1
        return addr

    def _value_id(self, value: object) -> int:
        """Intern a JSON value; ``None`` is the never-written value 0."""
        if value is None:
            return 0
        canonical = _canonical(value)
        vid = self._value_ids.get(canonical)
        if vid is None:
            self._last_value_id += 1
            vid = self._value_ids[canonical] = self._last_value_id
        return vid

    def _forget_values(self) -> None:
        """Drop interned values no retained record or image refers to.

        A value that comes back later gets a fresh id, which equals no
        id still in a window — as its evicted id would not have.
        """
        live = set()
        for window in self._windows:
            live.update(window.initial.values())
            for record in window.txns:
                live.update(vid for _, vid, _ in record.reads)
                live.update(vid for _, vid, _ in record.writes)
        self._value_ids = {canonical: vid for canonical, vid
                           in self._value_ids.items() if vid in live}

    # ------------------------------------------------------------------
    # ingest

    def feed_row(self, row: dict) -> List[Violation]:
        """Ingest one completed transaction's session row.

        Returns the *new* violations surfaced by any check this row
        triggered (empty on quiet rows).  Malformed rows raise
        :class:`~repro.common.errors.StoreError` — the monitor is the
        correctness instrument, so it refuses garbage loudly.
        """
        store = row.get("store")
        if not isinstance(store, dict):
            raise StoreError("session row has no 'store' section")
        outcome = row.get("outcome")
        if outcome not in ("commit", "abort"):
            raise StoreError(f"session row outcome {outcome!r} is not "
                             "a completed transaction")
        uid = row["uid"]
        shard_meta: Dict[str, dict] = store.get("shards", {})
        ops: Sequence = store.get("ops", ())
        per_shard_ops: Dict[int, List[Tuple[str, int, int, int]]] = {}
        for position, op in enumerate(ops):
            kind, shard_id, key, value = op
            if kind == "w" and value is None:
                raise StoreError(
                    f"txn {uid} wrote null to {key!r}; null is the "
                    "never-written sentinel, not a storable value")
            per_shard_ops.setdefault(int(shard_id), []).append(
                (kind, self._addr_of(key), self._value_id(value),
                 position))
        touched = set(per_shard_ops) | {int(s) for s in shard_meta}
        for shard_id in sorted(touched):
            if not 0 <= shard_id < self.shards:
                raise StoreError(f"txn {uid} names unknown shard "
                                 f"{shard_id}")
            meta = shard_meta.get(str(shard_id), {})
            record = TxnRecord(
                uid=uid, thread_id=row["thread"], label=row["label"],
                begin_index=-1,  # assigned when the window is built
                start_ts=meta.get("start_ts"),
                commit_ts=meta.get("commit_ts"),
                abort_cause=row.get("cause") if outcome == "abort"
                else None)
            if outcome == "commit":
                record.commit_index = -1
            # the op position rides in the index slot so the rebuilt
            # history can interleave reads and writes in true op order
            # (read-your-own-write replay depends on it)
            for kind, addr, vid, position in per_shard_ops.get(
                    shard_id, ()):
                if kind == "r":
                    record.reads.append((addr, vid, position))
                else:
                    record.writes.append((addr, vid, position))
            window = self._windows[shard_id]
            window.txns.append(record)
            window.raw[uid] = row
        self.rows_seen += 1
        if self.rows_seen % self.check_every == 0:
            return self.check()
        return []

    def note_watermark(self, shard_id: int, watermark: Optional[int]
                       ) -> None:
        """Record that no future txn can start below ``watermark``.

        The server feeds each shard's oldest pinned snapshot (open
        transactions plus the recovery checkpoint at the publish
        frontier); shard clocks are monotonic, so every later begin
        gets a strictly larger start timestamp.
        """
        if watermark is not None:
            self._windows[shard_id].watermark = watermark

    # ------------------------------------------------------------------
    # checking

    def _build_history(self, window: _ShardWindow) -> History:
        """Materialise a window as a checkable per-shard History.

        Events are synthesized in arrival (completion) order with
        sequential indices; op order within a transaction is preserved,
        which is all the value-replay and cycle checks need.
        """
        history = History(system="sitm-store", isolation="snapshot",
                          abort_causes=STORE_ABORT_CAUSES,
                          initial=dict(window.initial))
        for record in window.txns:
            rebuilt = TxnRecord(
                uid=record.uid, thread_id=record.thread_id,
                label=record.label,
                begin_index=len(history.events),
                start_ts=record.start_ts, commit_ts=record.commit_ts,
                abort_cause=record.abort_cause)
            history.events.append(HistoryEvent(
                len(history.events), BEGIN, record.uid,
                record.thread_id, record.label))
            ordered = sorted(
                [(position, READ, addr, vid)
                 for addr, vid, position in record.reads]
                + [(position, WRITE, addr, vid)
                   for addr, vid, position in record.writes])
            for _, kind, addr, vid in ordered:
                index = len(history.events)
                history.events.append(HistoryEvent(
                    index, kind, record.uid, record.thread_id,
                    record.label, addr, vid))
                if kind is READ:
                    rebuilt.reads.append((addr, vid, index))
                else:
                    rebuilt.writes.append((addr, vid, index))
            closing = COMMIT if record.committed else ABORT
            index = len(history.events)
            history.events.append(HistoryEvent(
                index, closing, record.uid, record.thread_id,
                record.label))
            if record.committed:
                rebuilt.commit_index = index
            history.transactions[record.uid] = rebuilt
        return history

    def check(self) -> List[Violation]:
        """Check every shard window now; fold and return new violations."""
        self.checks_run += 1
        fresh: List[Violation] = []
        for shard_id, window in enumerate(self._windows):
            if not window.txns:
                continue
            history = self._build_history(window)
            found = check_history(history)
            if not self.si_cycle_check:
                found = [v for v in found if v.rule != "si-cycle"]
            new_here: List[Violation] = []
            for violation in found:
                dedup = (violation.rule, violation.txns, violation.addr)
                if dedup in self._seen_violations:
                    continue
                self._seen_violations.add(dedup)
                self.violations.append(violation)
                new_here.append(violation)
            if new_here:
                self._dump(shard_id, window, new_here)
                fresh.extend(new_here)
            self._fold(window)
        self._forget_values()
        return fresh

    def _fold(self, window: _ShardWindow) -> None:
        """Drop checked rows that can no longer constrain the future.

        Aborts and read-only commits drop immediately (their replay is
        done and they constrain nothing later).  A committed writer
        folds into the initial image only when **both** hold:

        * ``commit_ts <= watermark`` — no future transaction's snapshot
          can predate it, and
        * ``commit_ts <=`` every *remaining* record's ``start_ts`` — no
          retained transaction's replay still needs the pre-write value
          (folding collapses versions, so a writer inside a retained
          transaction's snapshot window must stay).

        What survives is exactly the overlap frontier.
        """
        watermark = window.watermark
        writers = [r for r in window.txns
                   if r.committed and r.commit_ts is not None]
        folded: set = set()
        if watermark is not None:
            # stage 1: once the watermark passes a writer's commit_ts,
            # no future transaction can overlap it — every replay and
            # cycle check involving its reads has already run, so the
            # reads are stripped and stop blocking folds (this is what
            # keeps retention bounded under continuous overlap chains)
            for record in writers:
                if record.reads and record.commit_ts <= watermark:
                    record.reads = []
            # stage 2: fold in commit order while no remaining record
            # still replays a snapshot older than the writer's commit
            ordered = sorted(writers, key=lambda r: r.commit_ts)
            for index, record in enumerate(ordered):
                if record.commit_ts > watermark:
                    break
                later = [r.start_ts for r in ordered[index + 1:]
                         if r.reads and r.start_ts is not None]
                if later and record.commit_ts > min(later):
                    break  # a live replay still needs pre-fold values
                for addr, vid, _ in record.writes:
                    window.initial[addr] = vid
                folded.add(id(record))
        window.txns = [r for r in writers if id(r) not in folded]
        keep = {r.uid for r in window.txns}
        window.raw = {uid: row for uid, row in window.raw.items()
                      if uid in keep}

    def retained(self) -> int:
        """Transactions currently retained across all shard windows."""
        return sum(len(w.txns) for w in self._windows)

    # ------------------------------------------------------------------
    # violation artifacts

    def _dump(self, shard_id: int, window: _ShardWindow,
              violations: List[Violation]) -> None:
        if self.dump_dir is None:
            return
        self.dump_dir.mkdir(parents=True, exist_ok=True)
        path = (self.dump_dir
                / f"store-violation-{len(self.dumps):03d}.jsonl")
        rows = sorted(window.raw.values(),
                      key=lambda r: r.get("end_cycle") or 0)
        with path.open("w", encoding="utf-8") as handle:
            for row in rows:
                handle.write(json.dumps(row, sort_keys=True) + "\n")
        summary = path.with_suffix(".violations.json")
        summary.write_text(json.dumps(
            {"shard": shard_id,
             "violations": [v.to_dict() for v in violations]},
            indent=2, sort_keys=True) + "\n", encoding="utf-8")
        self.dumps.append(path)


def check_rows(rows: Sequence[dict], shards: int,
               si_cycle_check: bool = True) -> List[Violation]:
    """Replay session rows through a fresh monitor; return violations.

    The offline half of the live monitor: ``sitm-store check`` and the
    corpus replay test feed persisted JSONL rows through exactly the
    ingest/check path the live server uses, so live-path regressions are
    caught without a running server.
    """
    monitor = LiveHistoryMonitor(shards=shards,
                                 si_cycle_check=si_cycle_check)
    for row in rows:
        monitor.feed_row(row)
    monitor.check()
    return monitor.violations
