"""The multiversioned memory controller (sections 3 and 4.2).

:class:`MVMController` owns the version lists for every line in the MVM
region and implements the controller-side halves of the transactional
actions:

* ``snapshot_read`` — return the most current version older than the
  calling transaction's start timestamp (TM READ);
* ``validate_line`` / ``install_line`` / ``rollback_line`` — commit-time
  timestamp-based write-write conflict detection and optimistic version
  installation with rollback (TM COMMIT);
* ``plain_read`` / ``plain_write`` — non-transactional accesses, which see
  and update the most current version in place;
* garbage collection and version coalescing, delegated to
  :class:`~repro.mvm.version_list.VersionList` using the oldest-active
  priority queue of :class:`~repro.mvm.timestamps.ActiveTransactionTable`;
* transient (uncommitted, evicted) line storage keyed by temporary owner
  IDs — the paper reserves the N largest timestamps as temporary IDs so
  uncommitted evicted lines stay private to their transaction;
* the version-depth census of Appendix A and the word-granularity
  conflict filter of section 4.2.

The controller is purely *functional* state; all timing (indirection-lookup
latency, translation cache) is charged by the TM systems through the cache
model, keeping mechanism and cost model separate.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import attrgetter
from typing import Dict, Iterable, Optional, Tuple

from repro.common.config import MVMConfig
from repro.common.errors import MVMError
from repro.mem.address import AddressMap
from repro.mem.backing import BackingStore
from repro.mvm.census import VersionCensus
from repro.mvm.dedup import DedupIndex
from repro.mvm.timestamps import ActiveTransactionTable, GlobalClock
from repro.mvm.version_list import (
    CapExceeded,
    LineData,
    SnapshotTooOld,
    VersionList,
)

__all__ = ["MVMController", "CapExceeded", "SnapshotTooOld"]

#: a version list's timestamps, one per committed version
_timestamps_of = attrgetter("_timestamps")


class MVMController:
    """Version management for the multiversioned memory region."""

    def __init__(self, config: MVMConfig, address_map: AddressMap,
                 clock: Optional[GlobalClock] = None):
        self.config = config
        self.address_map = address_map
        self.clock = clock or GlobalClock(delta=config.commit_delta)
        self.active = ActiveTransactionTable()
        self._lines: Dict[int, VersionList] = {}
        #: uncommitted lines evicted from private caches, (line, owner) -> data
        self._transient: Dict[Tuple[int, int], LineData] = {}
        self.census = VersionCensus() if config.census else None
        #: cumulative dedup-opportunity census over installed version data
        self.dedup = (DedupIndex(address_map.words_per_line)
                      if config.dedup else None)
        #: bundles (groups of ``bundle_lines`` lines) already materialised
        #: by a first copy-on-write (section 3.2 bundling)
        self._materialised_bundles: set = set()
        #: telemetry registry or None (the default); when attached, every
        #: install feeds the version-list occupancy histogram — the
        #: distribution behind the section 4.4 coalescing discussion
        self.metrics = None
        #: cycle profiler or None (the default); when attached, every
        #: install/coalesce/GC is recorded per line for the conflict
        #: heatmap (is coalescing absorbing the hot lines?)
        self.profiler = None
        #: fault injector or None (the default); when attached, installs
        #: consult it for a version-cap squeeze and report GC/coalesce
        #: events so it can accrue GC pauses
        self.faults = None
        # counters
        self.bundle_copies = 0
        self.versions_installed = 0
        self.versions_coalesced = 0
        self.versions_collected = 0
        self.ww_conflicts_detected = 0
        self.ww_conflicts_filtered = 0

    # ------------------------------------------------------------------
    # version-list access

    def _list_of(self, line: int) -> VersionList:
        vlist = self._lines.get(line)
        if vlist is None:
            vlist = self._lines[line] = VersionList()
        return vlist

    def versions_of(self, line: int) -> Tuple[int, ...]:
        """Timestamps of the committed versions of ``line`` (oldest first)."""
        vlist = self._lines.get(line)
        return vlist.timestamps if vlist else ()

    def live_version_count(self, line: int) -> int:
        """Number of committed versions currently retained for ``line``."""
        vlist = self._lines.get(line)
        return len(vlist) if vlist else 0

    def max_live_versions(self) -> int:
        """Largest version count across all lines (coalescing diagnostics).

        One C-level pass, no Python frame per line: the telemetry
        sampler calls this at every window close.
        """
        return max(map(len, map(_timestamps_of, self._lines.values())),
                   default=0)

    def newest_installer(self, line: int) -> Optional[object]:
        """Identity of the transaction that installed ``line``'s newest
        version, or ``None`` (non-transactional write, or identity not
        recorded).  Conflict provenance: after ``validate_many`` reports
        a write-write conflict, this names the first committer that won.
        """
        vlist = self._lines.get(line)
        return vlist.newest_installer() if vlist is not None else None

    # ------------------------------------------------------------------
    # transactional reads

    def snapshot_read(self, line: int, start_ts: int) -> Optional[LineData]:
        """TM READ: the most current version older than ``start_ts``.

        Returns ``None`` for a never-written line (zero line).  Raises
        :class:`SnapshotTooOld` when the snapshot's version was discarded
        (only possible under the DROP_OLDEST cap policy).
        """
        vlist = self._lines.get(line)
        if vlist is None:
            return None
        stamps = vlist._timestamps
        if stamps and stamps[-1] <= start_ts:
            # newest-visible, the dominant case (most snapshots are
            # younger than the newest version): depth 1, no bisect
            if self.census is not None:
                self.census.record(1)
            return vlist._data[-1]
        data, depth = vlist.read_at(start_ts)
        if self.census is not None and depth:
            self.census.record(depth)
        return data

    def oldest_version_after(self, lines, timestamp: int) -> Optional[int]:
        """Oldest committed version timestamp above ``timestamp`` over
        ``lines``, or ``None``: a snapshot read of them at ``timestamp``
        returns the same versions at every timestamp below that."""
        get = self._lines.get
        oldest = None
        for line in lines:
            vlist = get(line)
            newest = vlist.newest_timestamp() if vlist is not None else None
            if newest is None or newest <= timestamp:
                continue
            stamps = vlist.timestamps
            first = stamps[bisect_right(stamps, timestamp)]
            if oldest is None or first < oldest:
                oldest = first
        return oldest

    # ------------------------------------------------------------------
    # commit protocol

    def validate_line(self, line: int, start_ts: int) -> bool:
        """Write-write check: has ``line`` a version newer than ``start_ts``?

        True means a concurrent, already-committed transaction wrote the
        line after this transaction's snapshot — a write-write conflict.
        """
        vlist = self._lines.get(line)
        if vlist is None:
            return False
        newest = vlist.newest_timestamp()
        conflict = newest is not None and newest > start_ts
        if conflict:
            self.ww_conflicts_detected += 1
        return conflict

    def words_conflict(self, line: int, start_ts: int,
                       written_words: Dict[int, int]) -> bool:
        """Word-granularity refinement of a line-level conflict (section 4.2).

        Compares both the concurrent committed version and the committing
        write set against the snapshot version: if the sets of *actually
        changed* words are disjoint (false sharing) or the committing
        writes are silent stores, the conflict is dismissed and the counts
        as filtered.
        """
        vlist = self._lines.get(line)
        if vlist is None:
            return False
        return self._words_conflict(vlist, start_ts, written_words)

    def _words_conflict(self, vlist: VersionList, start_ts: int,
                        written_words: Dict[int, int]) -> bool:
        """Word filter on an already-probed version list (no dict probe)."""
        newest = vlist.newest_data()
        try:
            snapshot, _ = vlist.read_at(start_ts)
        except SnapshotTooOld:
            return True
        if snapshot is None:
            snapshot = tuple([0] * self.address_map.words_per_line)
        assert newest is not None
        their_changed = {i for i, (a, b) in enumerate(zip(snapshot, newest))
                         if a != b}
        our_changed = {w for w, v in written_words.items()
                       if snapshot[w] != v}
        if their_changed & our_changed:
            return True
        self.ww_conflicts_filtered += 1
        return False

    def validate_many(self, lines, start_ts: int,
                      written_words: Optional[Dict[int, Dict[int, int]]] = None,
                      ) -> Optional[int]:
        """Batched write-write validation: first conflicting line, or None.

        One ``_lines`` probe per line for the whole validation set (the
        per-line path probes once in ``validate_line`` and again in
        ``words_conflict``).  ``written_words`` — when the word-granularity
        filter is enabled — maps each *written* line to its
        ``{word_index: value}`` dict; a line-level conflict on such a line
        is dismissed (and counted as filtered) when the changed word sets
        are disjoint.  Counter semantics match the per-line path exactly:
        every conflicting line bumps ``ww_conflicts_detected``, dismissed
        ones bump ``ww_conflicts_filtered``, and validation stops at the
        first conflict that stands.
        """
        get = self._lines.get
        for line in lines:
            vlist = get(line)
            if vlist is None:
                continue
            newest = vlist.newest_timestamp()
            if newest is None or newest <= start_ts:
                continue
            self.ww_conflicts_detected += 1
            if written_words is not None:
                written = written_words.get(line)
                if written is not None and not self._words_conflict(
                        vlist, start_ts, written):
                    continue
            return line
        return None

    def install_line(self, line: int, end_ts: int, data: LineData,
                     installer: Optional[object] = None) -> None:
        """Install a committed version of ``line`` at ``end_ts``.

        Raises :class:`CapExceeded` under the ABORT_WRITER policy; the
        caller (TM COMMIT) turns that into a VERSION_OVERFLOW abort and
        rolls back any versions it already installed.  ``installer`` is
        the opaque identity reported back by :meth:`newest_installer`.
        """
        config = self.config
        if self.faults is not None:
            config = self.faults.squeeze(config)
        vlist = self._list_of(line)
        coalesced, dropped = vlist.install(
            end_ts, data, config, self.active, installer)
        if self.faults is not None:
            self.faults.note_gc_event(int(coalesced), dropped)
        if self.dedup is not None:
            self.dedup.add(data)
        self.versions_installed += 1
        if coalesced:
            self.versions_coalesced += 1
        self.versions_collected += dropped
        if self.profiler is not None:
            self.profiler.mvm_event("install", line)
            if coalesced:
                self.profiler.mvm_event("coalesce", line)
            if dropped:
                self.profiler.mvm_event("gc", line, dropped)
        if self.metrics is not None:
            # occupancy *after* this install (and its GC/coalescing):
            # what the hardware would actually have to store
            self.metrics.observe("mvm_version_list_length",
                                 len(vlist._timestamps))

    def newest_many(self, lines) -> Dict[int, Optional[LineData]]:
        """Newest committed data per line, one probe pass (commit merge).

        TM COMMIT merges each written line's buffered words onto the
        newest version.  Batching the lookups before the installs is
        safe: a commit installs each line at most once, and installing
        one line never changes another line's newest data.
        """
        get = self._lines.get
        out: Dict[int, Optional[LineData]] = {}
        for line in lines:
            vlist = get(line)
            out[line] = vlist.newest_data() if vlist is not None else None
        return out

    def install_many(self, end_ts: int, items, on_installed=None,
                     installer: Optional[object] = None) -> None:
        """Install a whole write set at ``end_ts`` through one MVM call.

        ``items`` is a sequence of ``(line, data)`` pairs in install
        order.  Per line the semantics are identical to
        :meth:`install_line` — fault squeeze, GC-on-write, coalescing,
        counters, profiler/metrics events all fire per line, in order —
        and ``on_installed(line, data)`` (the TM system's cycle-charging
        and invalidation hook) runs after each line exactly where the
        old per-line commit loop charged it.  That preserves the
        interleaving the ABORT_WRITER policy makes observable: a
        mid-commit :class:`CapExceeded` leaves the cache/coherence
        effects of the already-installed prefix in place.  On
        ``CapExceeded`` every installed line is rolled back and the
        exception is re-raised with ``.line`` set to the failing line.
        """
        faults = self.faults
        dedup = self.dedup
        profiler = self.profiler
        metrics = self.metrics
        base_config = self.config
        lines_map = self._lines
        active = self.active
        installed = []
        line = None
        try:
            for line, data in items:
                config = (base_config if faults is None
                          else faults.squeeze(base_config))
                vlist = lines_map.get(line)
                if vlist is None:
                    vlist = lines_map[line] = VersionList()
                coalesced, dropped = vlist.install(
                    end_ts, data, config, active, installer)
                if faults is not None:
                    faults.note_gc_event(int(coalesced), dropped)
                if dedup is not None:
                    dedup.add(data)
                self.versions_installed += 1
                if coalesced:
                    self.versions_coalesced += 1
                self.versions_collected += dropped
                if profiler is not None:
                    profiler.mvm_event("install", line)
                    if coalesced:
                        profiler.mvm_event("coalesce", line)
                    if dropped:
                        profiler.mvm_event("gc", line, dropped)
                if metrics is not None:
                    self.metrics.observe("mvm_version_list_length",
                                         len(vlist._timestamps))
                installed.append(line)
                if on_installed is not None:
                    on_installed(line, data)
        except CapExceeded as exc:
            for rollback in installed:
                self.rollback_line(rollback, end_ts)
            exc.line = line
            raise

    def bundle_copy_lines(self, line: int) -> int:
        """Extra lines copied when ``line``'s bundle first materialises.

        Section 3.2: bundling ``bundle_lines`` lines per version-list entry
        divides metadata overhead but "requires copying an entire bundle on
        the first write".  Returns how many *additional* line copies this
        write incurs (0 once the bundle is materialised, and always 0 for
        unbundled configurations).
        """
        if self.config.bundle_lines <= 1:
            return 0
        bundle = line // self.config.bundle_lines
        if bundle in self._materialised_bundles:
            return 0
        self._materialised_bundles.add(bundle)
        self.bundle_copies += 1
        return self.config.bundle_lines - 1

    def rollback_line(self, line: int, end_ts: int) -> None:
        """Remove the version an aborting committer installed (section 4.2)."""
        vlist = self._lines.get(line)
        if vlist is None:
            raise MVMError(f"rollback of line {line} with no versions")
        vlist.remove_version(end_ts)
        self.versions_installed -= 1

    # ------------------------------------------------------------------
    # non-transactional accesses (section 3)

    def plain_read(self, line: int) -> Optional[LineData]:
        """Non-transactional read: the newest version."""
        vlist = self._lines.get(line)
        if vlist is None:
            return None
        data = vlist._data
        return data[-1] if data else None

    def plain_write(self, line: int, data: LineData) -> None:
        """Non-transactional write: modify the most current version in place."""
        self._list_of(line).overwrite_in_place(data)

    # ------------------------------------------------------------------
    # transient (evicted uncommitted) lines — section 4.2 temporary IDs

    def store_transient(self, line: int, owner: int, data: LineData) -> None:
        """Buffer an uncommitted line evicted from ``owner``'s private cache."""
        self._transient[(line, owner)] = data

    def load_transient(self, line: int, owner: int) -> Optional[LineData]:
        """Fetch an evicted uncommitted line, visible only to its owner."""
        return self._transient.get((line, owner))

    def drop_transients(self, owner: int, lines: Iterable[int]) -> None:
        """Discard a transaction's transient lines on commit or abort."""
        for line in lines:
            self._transient.pop((line, owner), None)

    # ------------------------------------------------------------------
    # maintenance

    def truncate_after(self, timestamp: int) -> int:
        """Roll every line back to its newest version at ``timestamp``.

        Checkpoint rollback (section 3.3).  Lines whose versions are all
        newer than ``timestamp`` fall back to their implicit base (the
        pre-transactional state) when it still exists.  Returns versions
        discarded.
        """
        dropped = 0
        empty_lines = []
        for line, vlist in self._lines.items():
            dropped += vlist.truncate_after(timestamp)
            if len(vlist) == 0:
                empty_lines.append(line)
        for line in empty_lines:
            del self._lines[line]
        self.versions_installed = max(0, self.versions_installed - dropped)
        return dropped

    def collect_all(self) -> int:
        """Background sweep: GC every line against the oldest active snapshot.

        The paper GCs on write; a background sweep is the natural software
        analogue for long idle phases.  Returns versions deleted.
        """
        oldest = self.active.oldest()
        dropped = 0
        for vlist in self._lines.values():
            dropped += vlist.collect_garbage(oldest)
        self.versions_collected += dropped
        return dropped

    def flush_all_versions(self, backing: BackingStore) -> None:
        """Timestamp-overflow handler: persist newest versions, drop history.

        All active transactions must already have been aborted.  Each
        line's newest data survives as a fresh timestamp-0 base version
        (so every later snapshot still reads it); a copy also goes to the
        backing store as a checkpoint.  History and the clock reset
        (section 4.1's software interrupt).
        """
        if len(self.active):
            raise MVMError("cannot reset with active transactions")
        survivors: Dict[int, VersionList] = {}
        for line, vlist in self._lines.items():
            data = vlist.newest_data()
            if data is None:
                continue
            backing.store_line(self.address_map.words_of_line(line), data)
            fresh = VersionList()
            fresh.overwrite_in_place(data)
            survivors[line] = fresh
        self._lines = survivors
        self._transient.clear()
        self.clock.reset_after_overflow()

    def stats(self) -> dict:
        """Controller counters for reports."""
        return {
            "versions_installed": self.versions_installed,
            "versions_coalesced": self.versions_coalesced,
            "versions_collected": self.versions_collected,
            "ww_conflicts_detected": self.ww_conflicts_detected,
            "ww_conflicts_filtered": self.ww_conflicts_filtered,
            "max_live_versions": self.max_live_versions(),
            "start_stalls": self.clock.start_stalls,
        }
