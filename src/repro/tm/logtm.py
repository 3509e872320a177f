"""A LogTM-style eager/eager baseline (discussed in section 4.3).

LogTM performs **eager version management** — transactional stores update
memory in place, logging the old value in a thread-local undo log — and
**eager conflict detection** where the *requester stalls* (NACK) instead
of anyone aborting, falling back to aborting the requester when stalling
risks deadlock.  The paper contrasts it with SI-TM: "while this approach
enables fast commits, transaction abort is complex and needs to be
handled by software. Also, while abort is handled in software the
requesting transaction has to wait."

Faithfully modelled consequences:

* **commits are cheap** — discard the undo log, no write-back walk (the
  data is already in place) and no commit token;
* **aborts are expensive** — walk the undo log backwards restoring every
  word (per-entry memory cost), while conflicting requesters keep
  stalling against the dying transaction until rollback completes;
* **conflicts stall rather than kill** — a requester retries the same
  operation after a NACK; after ``MAX_STALLS`` consecutive NACKs it
  aborts *itself* (conservative deadlock avoidance, standing in for
  LogTM's timestamp-based possible-cycle detection).

Not part of the paper's evaluated systems (its 2PL baseline uses lazy
versioning, section 6.1); provided because section 4.3 argues against
exactly this design point, and the asymmetry is measurable here:
``benchmarks/test_ext_eager_versioning.py``.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.common.errors import AbortCause, TransactionAborted
from repro.common.rng import SplitRandom
from repro.sim.machine import Machine
from repro.tm.api import IsolationLevel, StallRequested, TMSystem, Txn


class EagerLogTM(TMSystem):
    """Eager version management + NACK-based eager conflict detection."""

    name = "LogTM"
    isolation = IsolationLevel.CONFLICT_SERIALIZABLE
    ABORT_CAUSES = frozenset({
        AbortCause.READ_WRITE, AbortCause.WRITE_WRITE,
        AbortCause.VERSION_BUFFER_OVERFLOW, AbortCause.READ_CAPACITY,
        AbortCause.WRITE_CAPACITY, AbortCause.VERSION_CAPACITY,
        AbortCause.EXPLICIT})
    #: an injected false positive looks like a deadlock-avoidance
    #: self-abort after repeated NACKs
    SPURIOUS_ABORT_CAUSE = AbortCause.READ_WRITE
    #: cycles charged per NACK round trip
    NACK_CYCLES = 24
    #: consecutive NACKs before the requester aborts itself
    MAX_STALLS = 8
    #: cycles per undo-log entry restored during abort (software rollback)
    UNDO_CYCLES = 12

    def __init__(self, machine: Machine, rng: SplitRandom):
        super().__init__(machine, rng)
        self.stalls_issued = 0
        self.undo_entries_restored = 0

    # ------------------------------------------------------------------

    def begin(self, thread_id: int, label: str,
              attempt: int) -> Tuple[Optional[Txn], int]:
        txn = Txn(thread_id, label, attempt)
        self._register(txn)
        return txn, self.config.txn_overhead_cycles

    def _conflicting_owner(self, txn: Txn, line: int,
                           for_write: bool) -> Optional[Txn]:
        if not for_write:
            # a read conflicts with writers only: one directory probe
            # (writes NACK on any other owner, so a line has one writer)
            writers = self._line_writers.get(line)
            if writers is not None:
                for other in writers.values():
                    if other is not txn:
                        return other
            return None
        for other in self.others(txn):
            if line in other.write_lines or line in other.read_lines:
                return other
        return None

    def _nack(self, txn: Txn, line: int,
              owner: Optional[Txn] = None) -> None:
        """Stall the requester; abort it after too many consecutive NACKs.

        ``owner`` is the transaction holding the line — on a
        deadlock-avoidance self-abort it is the killer the requester
        backed off from.
        """
        txn.consecutive_stalls += 1
        self.stalls_issued += 1
        metrics = self.machine.metrics
        if metrics is not None:
            metrics.observe("tm_nack_stall_cycles", self.NACK_CYCLES,
                            system=self.name)
        if txn.consecutive_stalls > self.MAX_STALLS:
            txn.conflict_line = line
            if owner is not None:
                txn.record_killer(owner.identity())
            raise TransactionAborted(
                AbortCause.READ_WRITE, "possible deadlock: requester aborts")
        raise StallRequested(self.NACK_CYCLES)

    def read(self, txn: Txn, addr: int, promote: bool = False,
             ) -> Tuple[int, int]:
        line = addr // self._wpl
        if line not in txn.read_lines and line not in txn.write_lines:
            owner = self._conflicting_owner(txn, line, for_write=False)
            if owner is not None:
                self._nack(txn, line, owner)
        txn.consecutive_stalls = 0
        cycles = self._access(txn.thread_id, line)
        if line not in txn.read_lines:
            cycles += self._broadcast_cost
            txn.read_lines.add(line)
            if self._capacity_bounded:
                self._charge_read_capacity(txn, line)
        # eager versioning: memory always holds this txn's own writes
        return self._newest_word(addr, line), cycles

    def write(self, txn: Txn, addr: int, value: int) -> int:
        line = self.amap.line_of(addr)
        if line not in txn.write_lines:
            owner = self._conflicting_owner(txn, line, for_write=True)
            if owner is not None:
                self._nack(txn, line, owner)
        txn.consecutive_stalls = 0
        cycles = self.machine.caches.access(txn.thread_id, line)
        if line not in txn.write_lines:
            cycles += self._broadcast_cost
            self.machine.caches.invalidate_everywhere(
                line, except_core=txn.thread_id)
            self._track_write(txn, line)
            self._check_version_buffer(txn)
            if self._capacity_bounded:
                self._charge_write_capacity(txn, line)
        # in-place update with undo logging
        txn.undo_log.append((addr, self._newest_word(addr, line)))
        if self._capacity_bounded:
            self._charge_version_capacity(txn, line, len(txn.undo_log))
        self.machine.plain_store(addr, value)
        return cycles

    def commit(self, txn: Txn, now: int) -> int:
        if txn.doomed is not None:
            raise TransactionAborted(txn.doomed)
        # fast commit: data is already in place; just drop the log
        txn.undo_log.clear()
        self._deregister(txn)
        return self.config.txn_overhead_cycles

    def abort(self, txn: Txn, cause: AbortCause) -> int:
        # software rollback: restore the undo log in reverse order
        cycles = self.config.txn_overhead_cycles
        undo_cycles = 0
        for addr, old_value in reversed(txn.undo_log):
            self.machine.plain_store(addr, old_value)
            undo_cycles += self.UNDO_CYCLES
            self.undo_entries_restored += 1
        cycles += undo_cycles
        profiler = self.machine.profiler
        if profiler is not None:
            profiler.sub_account(txn.thread_id, "abort", "undo",
                                 undo_cycles)
        txn.undo_log.clear()
        self._deregister(txn)
        return cycles + self._backoff_cycles(txn)
