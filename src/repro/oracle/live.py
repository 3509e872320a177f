"""Live SI monitoring: check each store transaction once, as it arrives.

The offline oracle (:mod:`repro.oracle.checker`) consumes a complete
:class:`~repro.sim.history.History`.  The live store cannot wait for
"the end of the run" — it streams one **session row** per completed
transaction (the span-schema-compatible JSONL it also persists), and
:class:`LiveHistoryMonitor` checks that row, when it is fed, against a
small index of the one store history (the store's shards share one
clock and one snapshot, so a row carries one ``start_ts`` and one
``commit_ts``, and a read that missed that snapshot on any shard is a
wrong read of the history):

* the **image** (``addr -> value`` at the watermark), the **retained
  versions** of each address and their **writers**, in commit order;
* a row is checked for abort-cause legality and timestamp coherence;
  every read is replayed in op order (own earlier write, else the
  newest retained version with ``commit_ts <= start_ts``, else the
  image); every written address is tested for first-committer-wins
  against the retained versions of that address — the offline
  checker's rules, which the differential test in
  ``tests/store/test_live_oracle.py`` holds this module to;
* **the arrival invariant** makes one pass enough: the server draws a
  commit's timestamp, applies it and feeds its row in one step of the
  event loop (``StoreServer._do_commit``, phase 2), so no snapshot is
  ever taken with a commit half-published, and every version a
  transaction can see and every overlapping writer that committed
  first is fed before its own row.  It is not trusted: a version
  arriving with ``commit_ts <=`` the ``start_ts`` of a retained writer
  re-replays that writer's reads of the address;
* values compare by identity (the server feeds the objects it stored),
  else by canonical JSON; nothing is interned;
* **watermark folding** bounds memory: once no future transaction can
  start below ``W`` (:meth:`note_watermark`), writers with
  ``commit_ts <= W`` fold into the image — nothing later can overlap
  them or read beneath them.  Aborts, read-only commits and writers
  without a commit timestamp are never retained.

There is no cycle rule: a row stream carries no order but the
timestamps replay already uses, so Adya's G1c surfaces as
``snapshot-read`` (``tests/corpus/store/g1c_pair.jsonl``).  Violations
are deduplicated, kept on :attr:`violations`, and — with a dump
directory — written as a replayable JSONL artifact of the offending row
plus the retained writers (``sitm-store check`` replays it).  Rows of
older logs also carry a per-shard copy of their timestamps
(``store.shards``); it is ignored.
"""

from __future__ import annotations

import json
import pathlib
from bisect import bisect_right
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.common.errors import StoreError
from repro.oracle.checker import Violation

__all__ = ["LiveHistoryMonitor", "STORE_ABORT_CAUSES", "check_rows"]

#: canonical form of a JSON value; ``json.dumps(value, sort_keys=True)``
#: without building a ``JSONEncoder`` per call
_canonical = json.JSONEncoder(sort_keys=True).encode

#: abort causes the store declares legal in its histories
STORE_ABORT_CAUSES = ("disconnect", "explicit", "shard-crashed",
                      "timeout", "write-write")

_INF = float("inf")

#: one operation of a row: (kind, addr, value, op position)
_Op = Tuple[str, int, object, int]
#: one retained version: (commit_ts, uid, value, start_ts, label)
_Version = Tuple[int, int, object, Optional[int], str]


def _differ(a: object, b: object) -> bool:
    """Two JSON values differ (``None`` is the never-written value)."""
    return a is not b and _canonical(a) != _canonical(b)


class _Writer(NamedTuple):
    """A retained committed writer."""

    commit_ts: int
    start_ts: Optional[int]
    uid: int
    label: str
    ops: List[_Op]
    #: addr -> the value its commit published there
    final: Dict[int, object]
    row: dict


class LiveHistoryMonitor:
    """Checks each completed store transaction against the SI rules."""

    def __init__(self, shards: int, dump_dir: Optional[object] = None):
        if shards < 1:
            raise StoreError("monitor needs at least one shard")
        #: the shard ids an op may name
        self.shards = shards
        self.dump_dir = pathlib.Path(dump_dir) if dump_dir else None
        self._addrs: Dict[str, int] = {}
        #: addr -> newest value committed at or below the watermark
        self._image: Dict[int, object] = {}
        #: addr -> versions above the watermark, in commit order
        self._versions: Dict[int, List[_Version]] = {}
        #: the writers of those versions, in commit order
        self._writers: List[_Writer] = []
        self._watermark = -1
        #: highest start_ts a retained writer has carried; a version
        #: that arrives at or below it may be late for one of them
        self._newest_start = -1
        self.rows_seen = 0
        self.violations: List[Violation] = []
        self._seen_violations: set = set()
        #: how many of :attr:`violations` :meth:`check` has handed out
        self._checked = 0
        self.dumps: List[pathlib.Path] = []

    # ------------------------------------------------------------------
    # ingest

    def feed_row(self, row: dict) -> List[Violation]:
        """Check one completed transaction's session row.

        Returns the *new* violations this row surfaced (empty on quiet
        rows).  Malformed rows raise
        :class:`~repro.common.errors.StoreError` before the index is
        touched — the monitor is the correctness instrument, so it
        refuses garbage loudly and whole.
        """
        store = row.get("store")
        if not isinstance(store, dict):
            raise StoreError("session row has no 'store' section")
        outcome = row.get("outcome")
        if outcome not in ("commit", "abort"):
            raise StoreError(f"session row outcome {outcome!r} is not "
                             "a completed transaction")
        uid = row["uid"]
        label = row["label"]
        addrs, shard_ids = self._addrs, range(self.shards)
        ops: List[_Op] = []
        for position, (kind, shard_id, key, value) in enumerate(
                store.get("ops", ())):
            if kind == "w" and value is None:
                raise StoreError(
                    f"txn {uid} wrote null to {key!r}; null is the "
                    "never-written sentinel, not a storable value")
            if shard_id not in shard_ids:
                raise StoreError(f"txn {uid} names unknown shard "
                                 f"{shard_id!r}")
            addr = addrs.get(key)
            if addr is None:
                addr = addrs[key] = len(addrs) + 1
            ops.append((kind, addr, value, position))
        self.rows_seen += 1
        cause = row.get("cause")
        if outcome == "commit":
            found = self._check_commit(row, uid, label, row.get("start_ts"),
                                       row.get("commit_ts"), ops)
        elif cause not in STORE_ABORT_CAUSES:
            found = [Violation(
                "abort-cause", f"{label} (uid {uid}) aborted with "
                f"undeclared cause {cause!r}", (uid,))]
        else:
            return []
        return self._report(row, found) if found else []

    def note_watermark(self, watermark: Optional[int]) -> None:
        """Record that no future txn can start below ``watermark``.

        The server feeds the store's watermark: its oldest open
        snapshot, else the store clock's present.  The store clock is
        monotonic, so every later begin gets a start timestamp at or
        above it.  When it advances,
        writers with ``commit_ts <= watermark`` fold into the image in
        commit order: no later row can overlap them, and every later
        snapshot sees the newest of them unless a retained version is
        newer still.
        """
        if watermark is None or watermark <= self._watermark:
            return
        self._watermark = watermark
        image, versions = self._image, self._versions
        folded = 0
        for writer in self._writers:
            if writer.commit_ts > watermark:
                break
            folded += 1
            for addr, value in writer.final.items():
                image[addr] = value
                entries = versions.get(addr)
                if entries is not None:
                    del entries[:bisect_right(entries, (watermark, _INF))]
                    if not entries:
                        del versions[addr]
        del self._writers[:folded]

    # ------------------------------------------------------------------
    # the rules (``repro.oracle.checker``'s, one transaction at a time)

    def _check_commit(self, row: dict, uid: int, label: str,
                      start_ts: Optional[int], commit_ts: Optional[int],
                      ops: List[_Op]) -> List[Violation]:
        """Timestamps, replay and first-committer-wins for one row."""
        found: List[Violation] = []
        final = {addr: value for kind, addr, value, _ in ops
                 if kind == "w"}
        incoherent = None
        if start_ts is None:
            incoherent = "has no start timestamp"
        elif final and commit_ts is None:
            incoherent = "wrote but has no commit timestamp"
        elif commit_ts is not None and commit_ts <= start_ts:
            incoherent = f"commit_ts {commit_ts} <= start_ts {start_ts}"
        if incoherent:
            found.append(Violation(
                "timestamps", f"committed {label} (uid {uid}) "
                f"{incoherent}", (uid,)))
        if not final or commit_ts is None:
            if start_ts is not None:
                found += self._replay(uid, label, start_ts, ops)
            return found
        # publish first: the checker lets a transaction whose commit_ts
        # is not above its start_ts see its own versions, and flags it
        for addr, value in final.items():
            entries = self._versions.setdefault(addr, [])
            at = bisect_right(entries, (commit_ts, uid))
            entries.insert(at, (commit_ts, uid, value, start_ts, label))
            if start_ts is not None and len(entries) > 1:
                found += _first_committer_wins(addr, entries, at)
        if start_ts is not None:
            found += self._replay(uid, label, start_ts, ops)
        if commit_ts <= self._newest_start:
            # published into the past of a retained writer: what that
            # writer read there was replayed without this version
            for writer in self._writers:
                if (writer.start_ts is not None
                        and writer.start_ts >= commit_ts):
                    found += self._replay(
                        writer.uid, writer.label, writer.start_ts,
                        writer.ops, only=final)
        if start_ts is not None and start_ts > self._newest_start:
            self._newest_start = start_ts
        writers = self._writers
        writers.append(_Writer(commit_ts, start_ts, uid, label, ops,
                               final, row))
        if len(writers) > 1 and writers[-2].commit_ts > commit_ts:
            writers.sort(key=lambda writer: writer.commit_ts)
        return found

    def _replay(self, uid: int, label: str, start_ts: int, ops: List[_Op],
                only: Optional[Dict[int, object]] = None
                ) -> List[Violation]:
        """Exact value replay of a transaction's reads at its snapshot."""
        found = []
        own: Dict[int, object] = {}
        versions, image = self._versions, self._image
        for kind, addr, value, position in ops:
            if kind == "w":
                own[addr] = value
                continue
            if only is not None and addr not in only:
                continue
            writer: Optional[int] = None
            if addr in own:
                expected, writer = own[addr], uid
            else:
                entries = versions.get(addr)
                at = (bisect_right(entries, (start_ts, _INF))
                      if entries else 0)
                if at:
                    _, writer, expected, _, _ = entries[at - 1]
                else:
                    expected = image.get(addr)
            if _differ(value, expected):
                found.append(Violation(
                    "snapshot-read",
                    f"{label} (uid {uid}, start_ts {start_ts}) read "
                    f"{_canonical(value)} at op {position} but its "
                    f"snapshot holds {_canonical(expected)} (from "
                    f"{'the folded image' if writer is None else f'uid {writer}'})",
                    (uid,), addr))
        return found

    # ------------------------------------------------------------------
    # findings

    def _report(self, row: dict, found: List[Violation]
                ) -> List[Violation]:
        """Keep, and dump, the findings not reported before."""
        fresh = []
        for violation in found:
            dedup = (violation.rule, violation.txns, violation.addr)
            if dedup not in self._seen_violations:
                self._seen_violations.add(dedup)
                fresh.append(violation)
        if fresh:
            self.violations += fresh
            self._dump(row, fresh)
        return fresh

    def check(self) -> List[Violation]:
        """The violations found since the previous call.

        Every row is fully checked when it is fed, so nothing is left
        to run here: a caller that polls gets each finding once.
        """
        fresh = self.violations[self._checked:]
        self._checked = len(self.violations)
        return fresh

    def retained(self) -> int:
        """Committed writers currently retained."""
        return len(self._writers)

    def _dump(self, row: dict, violations: List[Violation]) -> None:
        if self.dump_dir is None:
            return
        self.dump_dir.mkdir(parents=True, exist_ok=True)
        path = (self.dump_dir
                / f"store-violation-{len(self.dumps):03d}.jsonl")
        rows = [writer.row for writer in self._writers
                if writer.row is not row] + [row]
        rows.sort(key=lambda r: r.get("end_cycle") or 0)
        with path.open("w", encoding="utf-8") as handle:
            for retained in rows:
                handle.write(json.dumps(retained, sort_keys=True) + "\n")
        summary = path.with_suffix(".violations.json")
        summary.write_text(json.dumps(
            {"violations": [v.to_dict() for v in violations]},
            indent=2, sort_keys=True) + "\n", encoding="utf-8")
        self.dumps.append(path)


def _first_committer_wins(addr: int, entries: List[_Version], at: int
                          ) -> List[Violation]:
    """Test the version at ``entries[at]`` against the others there.

    Two committed writers overlap iff each began before the other
    committed; writers of the *same value* are tolerated (a silent
    store is unobservable either way).  ``txns`` names the earlier
    committer first, as :func:`repro.oracle.checker.check_history` does.
    """
    commit_ts, _, value, start_ts, _ = entries[at]
    found = []
    for position, other in enumerate(entries):
        if (position != at and other[3] is not None
                and other[3] < commit_ts and start_ts < other[0]
                and _differ(other[2], value)):
            a, b = sorted((other, entries[at]), key=lambda v: v[:2])
            found.append(Violation(
                "first-committer-wins",
                f"overlapping writers both committed: {a[4]} (uid "
                f"{a[1]}, [{a[3]},{a[0]}]) wrote {_canonical(a[2])}, "
                f"{b[4]} (uid {b[1]}, [{b[3]},{b[0]}]) wrote "
                f"{_canonical(b[2])}", (a[1], b[1]), addr))
    return found


def check_rows(rows: Sequence[dict], shards: int) -> List[Violation]:
    """Replay session rows through a fresh monitor; return violations.

    The offline half of the live monitor: ``sitm-store check`` and the
    corpus replay test feed persisted JSONL rows through exactly the
    path the live server uses, so live-path regressions are caught
    without a running server.
    """
    monitor = LiveHistoryMonitor(shards=shards)
    for row in rows:
        monitor.feed_row(row)
    return monitor.violations
