"""Per-line version lists (section 3, Figure 3).

A :class:`VersionList` holds the committed versions of one cache line,
oldest first, each a ``(timestamp, data)`` pair where ``data`` is the tuple
of word values of the whole line.  The list supports the three mechanisms
of section 3.1:

* **snapshot reads** — the most current version older than a transaction's
  start timestamp;
* **garbage collection on write** — versions older than the newest version
  that the oldest active transaction can see are deleted;
* **version coalescing** (Figure 4) — a new version *overwrites* the newest
  one when no active transaction started between their timestamps, bounding
  live versions by the number of concurrent transactions.

The version cap (default 4) is enforced here with the configured
:class:`~repro.common.config.VersionCapPolicy`.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Tuple

from repro.common.config import MVMConfig, VersionCapPolicy
from repro.common.errors import MVMError
from repro.mvm.timestamps import ActiveTransactionTable

LineData = Tuple[int, ...]


class CapExceeded(Exception):
    """Installing this version would exceed the cap under ABORT_WRITER."""

    #: set by :meth:`repro.mvm.controller.MVMController.install_many` to
    #: the line whose install hit the cap, so TM COMMIT can report the
    #: conflict line without re-deriving it
    line: Optional[int] = None


class SnapshotTooOld(Exception):
    """No version old enough survives (DROP_OLDEST policy, section 3.1)."""


class VersionList:
    """Committed versions of one line, ordered by ascending timestamp."""

    __slots__ = ("_timestamps", "_data", "_installers", "_base_dropped")

    def __init__(self) -> None:
        # MVMController's per-access reads (plain_read, snapshot_read's
        # newest-visible case) index these two lists directly
        self._timestamps: List[int] = []
        self._data: List[LineData] = []
        # Parallel to ``_timestamps``: the opaque identity of the
        # transaction that installed each version (``None`` for
        # non-transactional writes).  Conflict provenance reads it back
        # through :meth:`newest_installer` so first-committer-wins
        # validation can name the committer that doomed a victim.
        self._installers: List[Optional[object]] = []
        # The *implicit base version*: before the first transactional
        # version, the line's pre-transactional content (zeros, or data
        # written in place) is readable by arbitrarily old snapshots.  It
        # stops being available once GC or the DROP_OLDEST policy discards
        # history below the surviving versions.
        self._base_dropped = False

    def __len__(self) -> int:
        return len(self._timestamps)

    @property
    def timestamps(self) -> Tuple[int, ...]:
        """All version timestamps, oldest first."""
        return tuple(self._timestamps)

    def newest_timestamp(self) -> Optional[int]:
        """Timestamp of the most recent committed version."""
        return self._timestamps[-1] if self._timestamps else None

    def newest_data(self) -> Optional[LineData]:
        """Data of the most recent committed version."""
        return self._data[-1] if self._data else None

    def newest_installer(self) -> Optional[object]:
        """Identity passed to :meth:`install` for the newest version."""
        return self._installers[-1] if self._installers else None

    def read_at(self, start_ts: int) -> Tuple[Optional[LineData], int]:
        """Snapshot read: newest version with ``timestamp <= start_ts``.

        Returns ``(data, depth)`` where ``depth`` is 1 for the newest
        version, 2 for the second newest, ... (the Table 2 census metric).
        Returns ``(None, 0)`` when the line has no version visible to the
        snapshot; raises :class:`SnapshotTooOld` when versions exist but
        all are newer than the snapshot (possible under DROP_OLDEST).
        """
        if not self._timestamps:
            return None, 0
        idx = bisect.bisect_right(self._timestamps, start_ts) - 1
        if idx < 0:
            if self._base_dropped:
                raise SnapshotTooOld(
                    f"oldest version {self._timestamps[0]} is newer than "
                    f"snapshot {start_ts} and the base version is gone")
            # implicit base version: the pre-transactional line content
            return None, len(self._timestamps) + 1
        depth = len(self._timestamps) - idx
        return self._data[idx], depth

    def overwrite_in_place(self, data: LineData) -> None:
        """Non-transactional write: modify the most current version in place.

        Section 3: "Non-transactional writes modify the most current version
        in place."  On a line with no versions, this installs version 0.
        """
        if self._data:
            self._data[-1] = data
        else:
            self._timestamps.append(0)
            self._data.append(data)
            self._installers.append(None)

    def collect_garbage(self, oldest_active: Optional[int]) -> int:
        """Drop versions invisible to every active transaction.

        Keeps the newest version whose timestamp is <= ``oldest_active``
        (the oldest snapshot still needs it) and everything newer.  Returns
        the number of versions deleted.
        """
        if oldest_active is None:
            # No active transactions: only the newest version matters.
            dropped = len(self._timestamps) - 1
            if dropped > 0:
                del self._timestamps[:dropped]
                del self._data[:dropped]
                del self._installers[:dropped]
                self._base_dropped = True
                return dropped
            self._base_dropped = self._base_dropped or bool(self._timestamps)
            return 0
        idx = bisect.bisect_right(self._timestamps, oldest_active) - 1
        if idx > 0:
            del self._timestamps[:idx]
            del self._data[:idx]
            del self._installers[:idx]
            self._base_dropped = True
            return idx
        if idx == 0:
            # a version at or below the oldest snapshot exists; the
            # implicit base can never be read again
            self._base_dropped = True
        return 0

    def install(self, end_ts: int, data: LineData, config: MVMConfig,
                active: ActiveTransactionTable,
                installer: Optional[object] = None) -> Tuple[bool, int]:
        """Install a committed version with timestamp ``end_ts``.

        Applies GC-on-write then coalescing, then enforces the version cap.
        Returns ``(coalesced, dropped)``: whether the new version overwrote
        the previous newest (Figure 4), and how many obsolete versions GC
        deleted.  Raises :class:`CapExceeded` under the ABORT_WRITER policy
        when the line is already at the cap and cannot coalesce.
        ``installer`` is an opaque identity stored alongside the version
        and reported by :meth:`newest_installer`.
        """
        newest = self.newest_timestamp()
        if newest is not None and end_ts <= newest:
            raise MVMError(
                f"version timestamps must increase: {end_ts} <= {newest}")
        dropped = self.collect_garbage(active.oldest())
        if (config.coalescing and self._timestamps
                and not active.any_started_in(self._timestamps[-1], end_ts)):
            self._timestamps[-1] = end_ts
            self._data[-1] = data
            self._installers[-1] = installer
            return True, dropped
        if (config.cap_policy is not VersionCapPolicy.UNBOUNDED
                and len(self._timestamps) >= config.max_versions):
            if config.cap_policy is VersionCapPolicy.ABORT_WRITER:
                raise CapExceeded(
                    f"line already holds {len(self._timestamps)} versions")
            # DROP_OLDEST: discard the oldest version to make room.
            self._timestamps.pop(0)
            self._data.pop(0)
            self._installers.pop(0)
            self._base_dropped = True
            dropped += 1
        self._timestamps.append(end_ts)
        self._data.append(data)
        self._installers.append(installer)
        return False, dropped

    def truncate_after(self, timestamp: int) -> int:
        """Discard every version newer than ``timestamp`` (rollback).

        Used by checkpoint rollback (section 3.3): the versions at or
        below the checkpoint's timestamp *are* the restored state.
        Returns the number of versions discarded.
        """
        idx = bisect.bisect_right(self._timestamps, timestamp)
        dropped = len(self._timestamps) - idx
        if dropped:
            del self._timestamps[idx:]
            del self._data[idx:]
            del self._installers[idx:]
        return dropped

    def remove_version(self, end_ts: int) -> None:
        """Roll back a version installed by an aborting commit (section 4.2).

        SI-TM validation is itself transactional: a committer optimistically
        installs versions and, on detecting a write-write conflict, removes
        the versions it created.
        """
        idx = bisect.bisect_left(self._timestamps, end_ts)
        if idx >= len(self._timestamps) or self._timestamps[idx] != end_ts:
            raise MVMError(f"no version with timestamp {end_ts} to remove")
        self._timestamps.pop(idx)
        self._data.pop(idx)
        self._installers.pop(idx)
