"""The SONTM conflict-serializability baseline (section 6.1, after [4]).

SONTM relaxes 2PL: conflicting accesses are *tracked*, not aborted.  Every
transaction maintains a **serializability order number (SON) range**
``[lo, hi]``; conflicts shrink the range, and a transaction commits iff the
range is non-empty at commit, choosing its SON from the range.

Bookkeeping modelled after the paper's description:

* a **global write-numbers hashtable** in main memory maps each
  transactionally written line to the SON of its last committed writer —
  reading such a line forces ``lo`` above that SON (you read the value, so
  you serialise after its writer);
* a per-core **read-history table** (modelled, as in the paper's
  evaluation, as optimistically infinite) records committed readers —
  a committing writer must serialise after committed readers of its write
  set, which the commit-time write-set broadcast enforces;
* conflicts between *concurrent* transactions record directed edges
  ("A must serialise before B").  When one side commits with SON ``s``,
  the surviving side's range shrinks: predecessors get ``hi <= s - 1``,
  successors get ``lo >= s + 1``.  This reproduces CS's temporal
  dependencies — Figure 6's long reader aborts here but commits under SSI.

Costs follow section 6.1's critique: commit broadcasts the write set to all
cores and updates the write-numbers hashtable in memory, which is exactly
the overhead the paper calls SONTM's weak point.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.common.errors import AbortCause, TransactionAborted
from repro.common.rng import SplitRandom
from repro.sim.machine import Machine
from repro.tm.api import CommitToken, IsolationLevel, TMSystem, Txn

_INF = None  # open upper bound


class SONTM(TMSystem):
    """Conflict-serializable TM using serializability order numbers."""

    name = "SONTM"
    isolation = IsolationLevel.CONFLICT_SERIALIZABLE
    ABORT_CAUSES = frozenset({
        AbortCause.SON_RANGE_EMPTY, AbortCause.READ_WRITE,
        AbortCause.WRITE_WRITE, AbortCause.VERSION_BUFFER_OVERFLOW,
        AbortCause.READ_CAPACITY, AbortCause.WRITE_CAPACITY,
        AbortCause.VERSION_CAPACITY, AbortCause.EXPLICIT})
    #: an injected false positive looks like a commit-time empty SON range
    SPURIOUS_ABORT_CAUSE = AbortCause.SON_RANGE_EMPTY
    #: headroom left below a freshly chosen SON so that concurrent
    #: predecessors (which may commit later) still find a non-empty range
    SON_GAP = 1 << 20

    def __init__(self, machine: Machine, rng: SplitRandom):
        super().__init__(machine, rng)
        self.token = CommitToken()
        #: line -> SON of its most recent committed writer
        self.write_numbers: Dict[int, int] = {}
        #: line -> highest SON among committed readers (infinite read-history)
        self.read_history: Dict[int, int] = {}

    # ------------------------------------------------------------------

    def begin(self, thread_id: int, label: str,
              attempt: int) -> Tuple[Optional[Txn], int]:
        txn = Txn(thread_id, label, attempt)
        txn.son_lo = 0
        txn.son_hi = _INF
        self._register(txn)
        return txn, self.config.txn_overhead_cycles

    @staticmethod
    def _order(first: Txn, second: Txn) -> None:
        """Record that ``first`` must serialise before ``second``."""
        first.before.add(second)
        second.after.add(first)

    def read(self, txn: Txn, addr: int, promote: bool = False,
             ) -> Tuple[int, int]:
        buffered = txn.write_buffer.get(addr)
        if buffered is not None:
            return buffered, self._l1_lat
        line = addr // self._wpl
        cycles = self._access(txn.thread_id, line)
        if line not in txn.read_lines:
            cycles += self._broadcast_cost
            committed_writer = self.write_numbers.get(line)
            if committed_writer is not None:
                # we read that writer's value -> serialise after it
                txn.son_lo = max(txn.son_lo, committed_writer + 1)
            writers = self._line_writers.get(line)
            if writers is not None:
                for other in writers.values():
                    if other is not txn:
                        # we read the old value -> we precede the writer
                        self._order(txn, other)
            txn.read_lines.add(line)
            if self._capacity_bounded:
                self._charge_read_capacity(txn, line)
        return self._newest_word(addr, line), cycles

    def write(self, txn: Txn, addr: int, value: int) -> int:
        line = self.amap.line_of(addr)
        cycles = self.config.machine.l1d.latency_cycles
        if line not in txn.write_lines:
            cycles += self._broadcast_cost
            for other in self.others(txn):
                if line in other.read_lines or line in other.write_lines:
                    # the concurrent reader saw (or concurrent writer will
                    # be overwritten by) the pre-write value: they precede us
                    self._order(other, txn)
            self._track_write(txn, line)
            self._check_version_buffer(txn)
            if self._capacity_bounded:
                self._charge_write_capacity(txn, line)
        txn.write_buffer[addr] = value
        if self._capacity_bounded:
            self._charge_version_capacity(txn, line, len(txn.write_buffer))
        return cycles

    def commit(self, txn: Txn, now: int) -> int:
        cycles = self.config.txn_overhead_cycles
        # Committed readers of our write set force us above their SONs
        # (the commit-time write-set broadcast against read-history tables).
        for line in txn.write_lines:
            reader = self.read_history.get(line)
            if reader is not None:
                txn.son_lo = max(txn.son_lo, reader + 1)
            writer = self.write_numbers.get(line)
            if writer is not None:
                txn.son_lo = max(txn.son_lo, writer + 1)
        if txn.son_hi is not _INF and txn.son_lo > txn.son_hi:
            # the range can only be empty once a concurrent committer
            # lowered our upper bound; that committer is the killer
            txn.record_killer(txn.son_hi_setter)
            self._deregister(txn)
            raise TransactionAborted(AbortCause.SON_RANGE_EMPTY)
        # Choose the SON leaving headroom *below* for concurrent
        # transactions that must serialise before us but commit later
        # (commit order need not match serialisation order under CS): an
        # unconstrained upper bound gets lo + GAP; a constrained one takes
        # the highest admissible number.
        son = txn.son_lo + self.SON_GAP if txn.son_hi is _INF else txn.son_hi
        # Propagate ordering constraints to surviving concurrent txns.
        identity = (txn.thread_id, txn.uid, txn.label, son)
        for other in txn.before:
            if other.active:
                other.son_lo = max(other.son_lo, son + 1)
        for other in txn.after:
            if other.active:
                bound = son - 1
                if other.son_hi is _INF or other.son_hi > bound:
                    other.son_hi = bound
                    # we hold the victim's binding upper bound; if its
                    # range turns up empty at commit, we are the killer
                    other.son_hi_setter = identity
        # Publish: write numbers + data write-back, serialised by a token.
        if txn.write_buffer:
            hold = (self.TOKEN_CYCLES
                    + self.machine.interconnect.point_to_point_cost)
            # write-set broadcast to every core's read-history table
            hold += (self._broadcast_cost
                     + 2 * len(txn.write_lines))
            for line in txn.write_lines:
                # hashtable update + data write in main memory (section 6.1)
                hold += (self.machine.caches.shared_access(line)
                         + self.WRITEBACK_CYCLES
                         + self.config.machine.memory_latency_cycles // 4)
            wait = self.token.acquire(now, hold)
            self._commit_wait(txn, wait)
            cycles += wait + hold
            for addr, value in txn.write_buffer.items():
                self.machine.plain_store(addr, value)
            for line in txn.write_lines:
                prev = self.write_numbers.get(line)
                self.write_numbers[line] = son if prev is None else max(prev, son)
        for line in txn.read_lines:
            prev = self.read_history.get(line)
            self.read_history[line] = son if prev is None else max(prev, son)
        self._deregister(txn)
        return cycles

    def abort(self, txn: Txn, cause: AbortCause) -> int:
        self._deregister(txn)
        # sever edges so later commits don't constrain a dead transaction
        for other in txn.before:
            other.after.discard(txn)
        for other in txn.after:
            other.before.discard(txn)
        return self.config.txn_overhead_cycles + self._backoff_cycles(txn)
