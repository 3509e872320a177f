"""The 2-phase-locking baseline (section 6.1).

A state-of-the-art eager HTM in the style of Bobba et al. [10]:

* **eager conflict detection** with a *requester wins* policy — every
  transactional access broadcasts its address over the coherence fabric
  (get-shared for reads, get-exclusive for writes); cores holding a
  conflicting entry in their read/write sets abort their transaction;
* **lazy version management** — speculative writes are buffered and only
  reach memory at commit;
* read/write sets are *perfect* (exact sets, modelling the paper's
  "perfect bloom filters with no false positives");
* commit acquires a global **commit token**, then walks the write log and
  publishes the speculative writes;
* abort discards the logs and restarts in software after **exponential
  backoff** (section 6.4).

Conflict-to-cause mapping for Figure 1: a conflict involving at least one
read (requester reads a line in a victim's write set, or requester writes a
line in a victim's read set) counts as read-write; writer-vs-writer counts
as write-write.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.common.errors import AbortCause, TransactionAborted
from repro.common.rng import SplitRandom
from repro.sim.machine import Machine
from repro.tm.api import CommitToken, IsolationLevel, TMSystem, Txn


class TwoPhaseLockingTM(TMSystem):
    """Eager requester-wins HTM with lazy version management."""

    name = "2PL"
    isolation = IsolationLevel.CONFLICT_SERIALIZABLE
    ABORT_CAUSES = frozenset({
        AbortCause.READ_WRITE, AbortCause.WRITE_WRITE,
        AbortCause.VERSION_BUFFER_OVERFLOW, AbortCause.READ_CAPACITY,
        AbortCause.WRITE_CAPACITY, AbortCause.VERSION_CAPACITY,
        AbortCause.EXPLICIT})
    #: an injected false positive looks like a requester-wins conflict
    SPURIOUS_ABORT_CAUSE = AbortCause.READ_WRITE

    def __init__(self, machine: Machine, rng: SplitRandom):
        super().__init__(machine, rng)
        self.token = CommitToken()

    # ------------------------------------------------------------------

    def begin(self, thread_id: int, label: str,
              attempt: int) -> Tuple[Optional[Txn], int]:
        txn = Txn(thread_id, label, attempt)
        self._register(txn)
        return txn, self.config.txn_overhead_cycles

    def read(self, txn: Txn, addr: int, promote: bool = False,
             ) -> Tuple[int, int]:
        buffered = txn.write_buffer.get(addr)
        if buffered is not None:
            return buffered, self._l1_lat
        line = addr // self._wpl
        cycles = self._access(txn.thread_id, line)
        if line not in txn.read_lines:
            # get-shared broadcast: the directory names the concurrent
            # writers of the line, and they abort
            cycles += self._broadcast_cost
            writers = self._line_writers.get(line)
            if writers is not None:
                for other in writers.values():
                    if other is not txn:
                        other.doom(AbortCause.READ_WRITE, line, txn)
            txn.read_lines.add(line)
            if self._capacity_bounded:
                self._charge_read_capacity(txn, line)
        return self._newest_word(addr, line), cycles

    def write(self, txn: Txn, addr: int, value: int) -> int:
        line = self.amap.line_of(addr)
        cycles = self.config.machine.l1d.latency_cycles
        if line not in txn.write_lines:
            # get-exclusive broadcast: readers and writers abort
            cycles += self._broadcast_cost
            for other in self.others(txn):
                if line in other.write_lines:
                    other.doom(AbortCause.WRITE_WRITE, line, txn)
                elif line in other.read_lines:
                    other.doom(AbortCause.READ_WRITE, line, txn)
            self.machine.caches.invalidate_everywhere(
                line, except_core=txn.thread_id)
            self._track_write(txn, line)
            self._check_version_buffer(txn)
            if self._capacity_bounded:
                self._charge_write_capacity(txn, line)
        txn.write_buffer[addr] = value
        if self._capacity_bounded:
            self._charge_version_capacity(txn, line, len(txn.write_buffer))
        return cycles

    def commit(self, txn: Txn, now: int) -> int:
        # Requester-wins may doom us between our last op and commit.
        if txn.doomed is not None:
            raise TransactionAborted(txn.doomed)
        cycles = self.config.txn_overhead_cycles
        if txn.write_buffer:
            hold = (self.TOKEN_CYCLES
                    + self.machine.interconnect.point_to_point_cost)
            for line in txn.write_lines:
                hold += (self.machine.caches.shared_access(line)
                         + self.WRITEBACK_CYCLES)
            wait = self.token.acquire(now, hold)
            self._commit_wait(txn, wait)
            cycles += wait + hold
            for addr, value in txn.write_buffer.items():
                self.machine.plain_store(addr, value)
        self._deregister(txn)
        return cycles

    def abort(self, txn: Txn, cause: AbortCause) -> int:
        self._deregister(txn)
        return self.config.txn_overhead_cycles + self._backoff_cycles(txn)
