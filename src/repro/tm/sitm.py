"""SI-TM: snapshot-isolation transactional memory (section 4).

The paper's contribution.  Transactions read from a logical snapshot taken
at TM BEGIN (a start timestamp into the multiversioned memory), buffer
writes privately, and validate **only write-write conflicts** at commit by
comparing the newest committed version timestamp of each written line with
the start timestamp.  Consequences implemented here, following section 4:

* **TM BEGIN** — one atomic increment of the global timestamp counter;
  stalls only when Δ+1 transactions start during an in-flight commit.
* **TM READ** — served from the write buffer or from the snapshot via the
  MVM; *invisible readers*: no coherence traffic, no read-set tracking.
  Reads of MVM lines that miss the private caches pay the indirection-layer
  lookup, mitigated by the translation (X-Late) cache of Figure 5.
* **TM WRITE** — buffered, line marked transactional, no broadcasts.
  Unbounded: the write set spills to versioned memory rather than aborting.
* **TM COMMIT** — read-only transactions commit with zero overhead.
  Writers obtain an end timestamp via the Δ-protocol, validate their write
  set against version-list timestamps (timestamp-based conflict detection:
  one comparison against the whole committed history), install new
  versions (with GC-on-write and coalescing inside the MVM), and invalidate
  other cores' stale copies.  The optional word-granularity filter
  dismisses false-sharing and silent-store conflicts (section 4.2).
* **Aborts** are only: write-write conflicts, version-cap overflow
  (section 3.1's policy), and snapshot-too-old under the DROP_OLDEST
  policy.  No backoff is needed — committed work is never undone by a
  concurrent reader, so lazy validation guarantees progress.

**Promoted reads** (section 5.1) join the validation set but install no
versions, exactly as the write-skew tool requires.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.common.config import CacheConfig
from repro.common.errors import (
    AbortCause,
    TimestampOverflowError,
    TMError,
    TransactionAborted,
)
from repro.common.rng import SplitRandom
from repro.mem.address import MVM_REGION_BASE
from repro.mem.cache import SetAssociativeCache
from repro.mvm.version_list import CapExceeded, SnapshotTooOld
from repro.sim.machine import Machine
from repro.tm.api import IsolationLevel, TMSystem, Txn


class SnapshotIsolationTM(TMSystem):
    """SI-TM: aborts on write-write conflicts only."""

    name = "SI-TM"
    isolation = IsolationLevel.SNAPSHOT
    ABORT_CAUSES = frozenset({
        AbortCause.WRITE_WRITE, AbortCause.VERSION_OVERFLOW,
        AbortCause.SNAPSHOT_TOO_OLD, AbortCause.TIMESTAMP_OVERFLOW,
        AbortCause.WRITE_CAPACITY, AbortCause.VERSION_CAPACITY,
        AbortCause.EXPLICIT})
    #: an injected false positive looks like a first-committer-wins
    #: write-write conflict (the only conflict SI-TM detects)
    SPURIOUS_ABORT_CAUSE = AbortCause.WRITE_WRITE
    #: version-list entries per metadata line (section 3.2: eight per line)
    ENTRIES_PER_METADATA_LINE = 8
    #: extra cycles for MVM controller version compare + line allocation
    MVM_CONTROL_CYCLES = 2
    #: oracle test hook: setting this False (on an instance) disables
    #: commit-time write-write validation, deliberately breaking snapshot
    #: isolation so the checker's detection path can be exercised
    ww_validation = True

    def __init__(self, machine: Machine, rng: SplitRandom):
        super().__init__(machine, rng)
        self.mvm = machine.mvm
        # X-Late translation cache (Figure 5): a small cache of version-list
        # lines probed in parallel with the L2 to hide indirection latency.
        self.xlate = SetAssociativeCache(
            CacheConfig(size_bytes=16 * 1024, associativity=4,
                        latency_cycles=0),
            name="xlate")
        #: set when the global timestamp counter overflowed; begins stall
        #: until the last doomed transaction drains and the MVM resets
        self._overflow_pending = False
        self.timestamp_overflows = 0
        # hoisted hot-path state on top of TMSystem's (``_wpl``,
        # ``_l1_lat``, ``_access``, ``_backing_load``)
        self._l2_lat = machine.config.machine.l2.latency_cycles
        self._access_tracked = machine.caches.access_tracked
        self._snapshot_read = machine.mvm.snapshot_read

    def uses_backoff(self) -> bool:
        """SI-TM needs no backoff: lazy commits guarantee progress."""
        return False

    # ------------------------------------------------------------------

    def begin(self, thread_id: int, label: str,
              attempt: int) -> Tuple[Optional[Txn], int]:
        cycles = self.config.txn_overhead_cycles
        if self._overflow_pending and not self._drain_overflow():
            return None, cycles
        try:
            start_ts = self.machine.clock.next_start()
        except TimestampOverflowError:
            self._raise_overflow_interrupt()
            return None, cycles
        if start_ts is None:
            # Δ-protocol stall: an in-flight commit exhausted its headroom.
            return None, cycles
        txn = Txn(thread_id, label, attempt)
        txn.start_ts = start_ts
        txn.epoch = self.machine.clock.epoch
        self.mvm.active.add(start_ts)
        self._register(txn)
        return txn, cycles

    def _indirection_cycles(self, line: int) -> int:
        """Latency of the version-list lookup for an L2-missing access.

        One metadata line serves ENTRIES_PER_METADATA_LINE consecutive
        data lines; a hit in the translation cache hides the lookup
        entirely (probed in parallel with L2, section 3.2).
        """
        metadata_line = line // self.ENTRIES_PER_METADATA_LINE
        if self.xlate.lookup(metadata_line):
            return 0
        self.xlate.fill(metadata_line)
        return self.machine.caches.shared_access(metadata_line)

    def read(self, txn: Txn, addr: int, promote: bool = False,
             ) -> Tuple[int, int]:
        # this is the hottest method in the simulator (one call per
        # simulated load); line/word math and the MVM-region test are
        # inlined and the per-access collaborators pre-bound in __init__
        wpl = self._wpl
        line = addr // wpl
        is_mvm = addr >= MVM_REGION_BASE
        if promote and is_mvm:
            # promotion = commit-time validation against version
            # timestamps; conventional addresses have none (thread-private
            # or immutable data), so promotion is a no-op there
            txn.promoted_lines.add(line)
        buffered = txn.write_buffer.get(addr)
        if buffered is not None:
            return buffered, self._l1_lat
        cycles = self._access(txn.thread_id, line)
        if not is_mvm:
            return self._backing_load(addr), cycles
        if cycles > self._l2_lat:
            # L2 miss: the access reaches the MVM controller and pays the
            # indirection lookup unless the translation cache hides it.
            cycles += self._indirection_cycles(line)
            cycles += self.MVM_CONTROL_CYCLES
        try:
            data = self._snapshot_read(line, txn.start_ts)
        except SnapshotTooOld:
            txn.conflict_line = line
            raise TransactionAborted(
                AbortCause.SNAPSHOT_TOO_OLD,
                f"line {line:#x} has no version <= {txn.start_ts}")
        if data is None:
            return 0, cycles
        return data[addr % wpl], cycles

    def write(self, txn: Txn, addr: int, value: int) -> int:
        if addr < MVM_REGION_BASE:
            # Only multiversioned memory carries version timestamps, so
            # write-write conflicts on conventional addresses would go
            # undetected — silent lost updates.  The paper requires
            # transactionally written data to be mvmalloc'd (section 4.4);
            # fail loudly instead of corrupting.
            raise TMError(
                f"SI-TM transactional write to conventional address "
                f"{addr:#x}; transactional data must be allocated with "
                f"mvmalloc() (section 4.4)")
        line = addr // self._wpl
        if line not in txn.write_lines:
            txn.write_lines.add(line)
            if self._capacity_bounded:
                self._charge_write_capacity(txn, line)
        txn.write_buffer[addr] = value
        if self._capacity_bounded:
            self._charge_version_capacity(txn, line, len(txn.write_buffer))
        # Lazy detection: no coherence messages (section 4.2); the line is
        # simply marked transactionally written in the L1 (write-allocate).
        cycles, evicted = self._access_tracked(txn.thread_id, line)
        if evicted is not None and evicted in txn.write_lines:
            # an uncommitted transactionally-written line left the private
            # caches: the MVM stores it under a temporary ID, visible only
            # to this transaction — this is how SI-TM avoids version-buffer
            # overflow aborts (sections 4.2/4.3)
            self.mvm.store_transient(evicted, txn.thread_id,
                                     self.machine.line_data(evicted))
            cycles += self.machine.caches.shared_access(evicted)
        return cycles

    # ------------------------------------------------------------------

    def _validate(self, txn: Txn) -> None:
        """Timestamp-based write-write validation (section 4.2).

        Delegates to the MVM's batched ``validate_many`` so the whole
        validation set is checked in one controller call (one version-list
        probe per line).  When the word-granularity filter is on, the
        written words are grouped per line eagerly — only write lines get
        an entry, so promoted-read conflicts are never filtered, exactly
        as in the per-line path.
        """
        if not self.ww_validation:
            return
        written_words = None
        if self.config.tm.word_grain_commit_filter and txn.write_lines:
            wpl = self._wpl
            written_words = {}
            for addr, value in txn.write_buffer.items():
                written_words.setdefault(addr // wpl, {})[addr % wpl] = value
        conflict = self.mvm.validate_many(
            sorted(txn.validation_lines()), txn.start_ts, written_words)
        if conflict is not None:
            txn.conflict_line = conflict
            # first committer wins: the killer is whoever installed the
            # conflicting line's newest version after our snapshot
            txn.record_killer(self.mvm.newest_installer(conflict))
            raise TransactionAborted(
                AbortCause.WRITE_WRITE, f"line {conflict:#x}")

    def commit(self, txn: Txn, now: int) -> int:
        if txn.is_read_only:
            # Read-only transactions commit with zero overhead: no end
            # timestamp, no checks (section 4.2).
            self._release(txn)
            return 0
        cycles = self.config.txn_overhead_cycles
        try:
            end_ts = self.machine.clock.begin_commit()
        except TimestampOverflowError:
            # the counter cannot mint an end timestamp: overflow interrupt
            self._raise_overflow_interrupt()
            self._release(txn)
            raise TransactionAborted(AbortCause.TIMESTAMP_OVERFLOW)
        try:
            self._validate(txn)
        except TransactionAborted:
            self.machine.clock.abandon_commit(end_ts)
            self._release(txn)
            raise
        # Release our snapshot before installing so coalescing considers
        # only *other* transactions' start timestamps.
        self._remove_start(txn)
        # the write path rejects conventional addresses, so every written
        # line is multiversioned
        mvm_lines = sorted(txn.write_lines)
        # Merge the buffered words onto each line's newest version, all
        # lookups in one controller call: a commit installs each line at
        # most once, so one line's install can't change another's base.
        wpl = self._wpl
        bases = self.mvm.newest_many(mvm_lines)
        merged = {}
        for addr, value in txn.write_buffer.items():
            merged.setdefault(addr // wpl, {})[addr] = value
        items = []
        for line in mvm_lines:
            base = bases[line]
            words = list(base) if base is not None else [0] * wpl
            base_addr = line * wpl
            for addr, value in merged[line].items():
                words[addr - base_addr] = value
            items.append((line, tuple(words)))
        install_cycles = 0
        shared_access = self.machine.caches.shared_access
        invalidate = self.machine.caches.invalidate_everywhere
        bundle_copy_lines = self.mvm.bundle_copy_lines
        writeback = self.WRITEBACK_CYCLES
        tid = txn.thread_id

        def charge(line: int, data: tuple) -> None:
            # per-line commit cost, run by install_many after each install
            # so the cache/coherence effects interleave with the installs
            # exactly as the old per-line loop did (observable when a
            # mid-commit CapExceeded leaves the prefix's effects in place)
            nonlocal install_cycles
            install_cycles += (shared_access(line) + writeback
                               + self.MVM_CONTROL_CYCLES
                               # bundled configurations copy the whole
                               # bundle on its first write (section 3.2's
                               # capacity/write trade-off)
                               + bundle_copy_lines(line) * writeback)
            invalidate(line, except_core=tid)

        try:
            self.mvm.install_many(
                end_ts, items, on_installed=charge,
                installer=(tid, txn.uid, txn.label, end_ts))
        except CapExceeded as exc:
            # Optimistic commit is itself transactional: install_many
            # already undid our versions; release the reservation.
            self.machine.clock.abandon_commit(end_ts)
            self._release(txn)
            txn.conflict_line = exc.line
            raise TransactionAborted(AbortCause.VERSION_OVERFLOW)
        cycles += install_cycles
        faults = self.machine.faults
        if faults is not None:
            # injected GC pause: reclamation work this commit's installs
            # triggered (coalesce/collect events) runs slow
            pause = faults.drain_gc_pause()
            if pause:
                cycles += pause
                fault_profiler = self.machine.profiler
                if fault_profiler is not None:
                    fault_profiler.sub_account(txn.thread_id, "commit",
                                               "fault_gc_pause", pause)
        self.machine.clock.finish_commit(end_ts)
        txn.commit_ts = end_ts
        metrics = self.machine.metrics
        if metrics is not None:
            # write-set size per committing writer: the version-install
            # burst each commit puts on the MVM controller
            metrics.observe("tm_commit_install_lines", len(mvm_lines),
                            system=self.name)
        profiler = self.machine.profiler
        if profiler is not None:
            profiler.sub_account(txn.thread_id, "commit", "install",
                                 install_cycles)
        self._release(txn)
        return cycles

    # ------------------------------------------------------------------

    def _raise_overflow_interrupt(self) -> None:
        """Section 4.1: on counter overflow, abort all active transactions
        and trap to software; the software handler (here ``_drain_overflow``)
        resets the counter once the last victim has drained."""
        self.timestamp_overflows += 1
        self._overflow_pending = True
        for other in list(self.active_txns.values()):
            other.doom(AbortCause.TIMESTAMP_OVERFLOW)

    def _drain_overflow(self) -> bool:
        """Complete the overflow interrupt once no transaction is active.

        Persists the newest committed versions to the backing store,
        discards version history, and restarts the counter from zero.
        Returns True when normal operation may resume.
        """
        if self.active_txns or len(self.mvm.active):
            return False
        self.mvm.flush_all_versions(self.machine.backing)
        self.xlate.flush()
        self._overflow_pending = False
        return True

    def _remove_start(self, txn: Txn) -> None:
        if not txn.start_removed and txn.start_ts is not None:
            self.mvm.active.remove(txn.start_ts)
            txn.start_removed = True

    def _release(self, txn: Txn) -> None:
        self._remove_start(txn)
        self.mvm.drop_transients(txn.thread_id, txn.write_lines)
        self._deregister(txn)

    def abort(self, txn: Txn, cause: AbortCause) -> int:
        # Commit-path aborts already released; make cleanup idempotent.
        if txn.thread_id in self.active_txns \
                and self.active_txns[txn.thread_id] is txn:
            self._release(txn)
        else:
            self._remove_start(txn)
        # No undo log to walk: previous versions still exist (section 4.3).
        return self.config.txn_overhead_cycles + self._backoff_cycles(txn)
