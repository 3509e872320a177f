"""The transactional-memory runtime API shared by all systems.

This is the reproduction's analogue of the RSTM integration of section 6:
workloads are written once against :class:`TMSystem`'s interface
(``begin`` / ``read`` / ``write`` / ``commit`` / ``abort``) and run unchanged
under 2PL, SONTM, SI-TM and SSI-TM.  Transaction *bodies* are generators
yielding the descriptors of :mod:`repro.tm.ops`; the discrete-event engine
(:mod:`repro.sim.engine`) drives bodies and calls into the TM system for
every operation.

Timing convention: every method returns the cycle cost of the action (or a
``(value, cycles)`` pair for reads) so the engine can advance the calling
thread's clock.  Conflicts surface as
:class:`~repro.common.errors.TransactionAborted` for self-aborts, or by
*dooming* a victim transaction (``txn.doom(cause)``) for eager
requester-wins policies; the engine notices doomed transactions before
their next operation.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, Optional, Set, Tuple

from repro.common.config import SimConfig
from repro.common.errors import AbortCause, TMError
from repro.common.rng import SplitRandom
from repro.mem.address import MVM_REGION_BASE
from repro.sim.machine import Machine
from repro.sim.stats import RunStats
from repro.tm.backoff import ExponentialBackoff, NoBackoff


class IsolationLevel(enum.Enum):
    """The isolation guarantee a TM system declares for committed histories.

    The isolation oracle (:mod:`repro.oracle.checker`) verifies every
    recorded history against the level its system declares:

    * ``CONFLICT_SERIALIZABLE`` — committed transactions admit an acyclic
      direct serialization graph under *latest-committed* read semantics
      (2PL, SONTM, LogTM);
    * ``SNAPSHOT`` — every read observes the latest version committed
      before the transaction's start timestamp, the first committer of two
      overlapping writers wins, and no G0/G1 anomalies occur (SI-TM);
    * ``SERIALIZABLE_SNAPSHOT`` — the snapshot guarantees *plus* full
      serializability: no committed pivot (a transaction with both an
      inbound and an outbound rw-antidependency to concurrent committed
      transactions) and an acyclic serialization graph (SSI-TM).
    """

    CONFLICT_SERIALIZABLE = "conflict-serializable"
    SNAPSHOT = "snapshot"
    SERIALIZABLE_SNAPSHOT = "serializable-snapshot"

    # members are singletons: identity hashing agrees with equality and,
    # unlike Enum.__hash__, runs no Python frame
    __hash__ = object.__hash__


#: each level's ``value``, and the level of each value: ``level.value``
#: and ``IsolationLevel(value)`` run enum frames, these lookups none
ISOLATION_VALUES = {level: level.value for level in IsolationLevel}
ISOLATION_LEVELS = {value: level for level, value in ISOLATION_VALUES.items()}


class StallRequested(Exception):
    """An operation must wait and be retried (NACK-style eager HTMs).

    LogTM-class systems stall a requester on conflict instead of aborting;
    the engine charges ``cycles`` and re-issues the same operation.
    """

    def __init__(self, cycles: int):
        self.cycles = cycles
        super().__init__(f"stall {cycles} cycles")


class Txn:
    """Per-attempt transaction descriptor.

    One :class:`Txn` exists per *attempt*: a retry after abort begins a new
    transaction (fresh snapshot, fresh sets).  ``attempt`` counts prior
    aborted attempts of the same logical transaction for backoff.
    """

    __slots__ = ("thread_id", "label", "attempt", "start_ts", "commit_ts",
                 "epoch", "read_lines", "write_lines", "promoted_lines",
                 "write_buffer", "doomed", "active", "start_removed",
                 "son_lo", "son_hi", "son_hi_setter", "after", "before",
                 "inbound_rw", "outbound_rw", "inbound_peer",
                 "outbound_peer", "consecutive_stalls",
                 "undo_log", "conflict_line", "uid",
                 "killer_tid", "killer_uid", "killer_label", "killer_ts")

    def __init__(self, thread_id: int, label: str, attempt: int):
        self.thread_id = thread_id
        self.label = label
        self.attempt = attempt
        #: global begin-order id, minted by :meth:`TMSystem._register`;
        #: the i-th transaction to successfully begin gets uid i, which
        #: is exactly the index the span recorder assigns its span
        self.uid: Optional[int] = None
        self.start_ts: Optional[int] = None
        #: end timestamp assigned at a successful commit (timestamped
        #: systems only; ``None`` for untimestamped systems and read-only
        #: SI commits).  Recorded by the history oracle.
        self.commit_ts: Optional[int] = None
        #: timestamp epoch the snapshot belongs to (bumped by overflow
        #: resets, section 4.1); timestamps only compare within an epoch
        self.epoch = 0
        self.read_lines: Set[int] = set()
        self.write_lines: Set[int] = set()
        #: promoted reads (section 5.1) — validated like writes, no version
        self.promoted_lines: Set[int] = set()
        self.write_buffer: Dict[int, int] = {}
        self.doomed: Optional[AbortCause] = None
        self.active = True
        #: whether the start timestamp was already removed from the
        #: active-transaction table (set by SI-TM's commit path)
        self.start_removed = False
        # SONTM state (serializability-order-number range + edges)
        self.son_lo = 0
        self.son_hi: Optional[int] = None  # None = +infinity
        #: identity of the committer whose propagation last lowered
        #: ``son_hi`` — the killer when the range later turns up empty
        self.son_hi_setter: Optional[Tuple] = None
        self.after: Set[int] = set()   # thread ids that must precede us
        self.before: Set[int] = set()  # thread ids that must follow us
        # SSI-TM dangerous-structure flags (section 5.2), plus the
        # identity of the concurrent transaction on each rw edge — the
        # killer when the pivot completes at commit
        self.inbound_rw = False
        self.outbound_rw = False
        self.inbound_peer: Optional[Tuple] = None
        self.outbound_peer: Optional[Tuple] = None
        # LogTM-style state: NACK/stall bookkeeping + in-place undo log
        self.consecutive_stalls = 0
        self.undo_log: list = []
        #: the memory line on which the conflict that killed this attempt
        #: was detected (None while alive, or when the cause has no single
        #: line — e.g. an empty SON range).  Feeds the conflict heatmap.
        self.conflict_line: Optional[int] = None
        #: conflict provenance: identity of the transaction whose
        #: conflicting access doomed this attempt (None for self-inflicted
        #: aborts — capacity, overflow, fault injection).  Flows into the
        #: span's ``killer_*`` fields and the wasted-work ledger.
        self.killer_tid: Optional[int] = None
        self.killer_uid: Optional[int] = None
        self.killer_label: Optional[str] = None
        self.killer_ts: Optional[int] = None

    def identity(self) -> Tuple:
        """``(thread_id, uid, label, ts)`` naming this attempt.

        ``ts`` is the commit timestamp when one was assigned, else the
        begin timestamp — the instant of the conflicting access a victim
        should report.  The same tuple shape is stored as the MVM
        version installer and in SSI's committed-record window.
        """
        return (self.thread_id, self.uid, self.label,
                self.commit_ts if self.commit_ts is not None
                else self.start_ts)

    def record_killer(self, killer: Optional[Tuple]) -> None:
        """Stamp killer identity (first writer wins, like ``doom``).

        ``killer`` is an ``(tid, uid, label, ts)`` identity tuple as
        produced by :meth:`identity`; ``None`` is a no-op so call sites
        need no guard when provenance is unavailable.
        """
        if killer is None or self.killer_uid is not None:
            return
        self.killer_tid, self.killer_uid, self.killer_label, \
            self.killer_ts = killer

    def doom(self, cause: AbortCause, line: Optional[int] = None,
             killer: Optional["Txn"] = None) -> None:
        """Mark this transaction for abort (requester-wins victim).

        ``line`` is the conflicting memory line when the detecting system
        knows it; recorded for conflict-heatmap attribution.  ``killer``
        is the transaction whose access doomed this one (the requester,
        for eager requester-wins policies); its identity feeds the
        killer→victim conflict graph.
        """
        if self.doomed is None:
            self.doomed = cause
            self.conflict_line = line
            if killer is not None:
                self.record_killer(killer.identity())

    @property
    def is_read_only(self) -> bool:
        """True when the transaction wrote nothing (and promoted nothing)."""
        return not self.write_lines and not self.promoted_lines

    def validation_lines(self) -> Set[int]:
        """Lines checked for write-write conflicts at commit.

        Promoted reads participate in validation without creating versions
        (section 5.1).
        """
        return self.write_lines | self.promoted_lines


class CommitToken:
    """A serialising resource: at most one commit in flight at a time.

    Lazy systems with bulk commits serialise them (section 4.2 discusses
    this bottleneck); the 2PL baseline's commit token (section 6.1) is the
    concrete instance.  ``acquire`` returns when the token becomes free, so
    the caller can charge the wait.
    """

    __slots__ = ("_busy_until",)

    def __init__(self) -> None:
        self._busy_until = 0

    def acquire(self, now: int, hold_cycles: int) -> int:
        """Acquire at local time ``now``, holding for ``hold_cycles``.

        Returns the wait (cycles spent queued before the token was granted).
        """
        wait = max(0, self._busy_until - now)
        self._busy_until = max(self._busy_until, now) + hold_cycles
        return wait


class TMSystem:
    """Abstract transactional-memory system.

    Subclasses implement one concurrency-control policy each.  All share:
    the machine (caches, backing store, MVM), the per-run statistics sink,
    an abort-backoff policy, and the line-granularity bookkeeping helpers.
    """

    #: human-readable system name, used in reports
    name = "abstract"
    #: isolation level this system guarantees for committed histories,
    #: checked by the oracle (:mod:`repro.oracle.checker`)
    isolation = IsolationLevel.CONFLICT_SERIALIZABLE
    #: abort causes this system may legitimately raise; the oracle flags
    #: any abort outside this set (plus the always-legal EXPLICIT and
    #: TIMESTAMP_OVERFLOW causes)
    ABORT_CAUSES: FrozenSet[AbortCause] = frozenset(AbortCause)
    #: cycles to acquire/release the commit token
    TOKEN_CYCLES = 10
    #: cycles per line written back at commit, on top of the L3 access
    WRITEBACK_CYCLES = 4
    #: cause the fault injector's spurious-abort site reports for this
    #: system (:mod:`repro.faults`) — a conflict-detection false
    #: positive, so each backend declares the conflict cause its own
    #: detector would raise; must be a member of ``ABORT_CAUSES`` so
    #: the oracle's cause check treats injected aborts as legal
    SPURIOUS_ABORT_CAUSE = AbortCause.EXPLICIT
    #: built-in hardware read-/write-set tracking capacity (cache
    #: lines) where no config knob sets one; ``0`` = the paper's perfect
    #: sets (HybridHTM declares finite ones)
    HW_READ_LINES = 0
    HW_WRITE_LINES = 0

    def __init__(self, machine: Machine, rng: SplitRandom):
        self.machine = machine
        self.config: SimConfig = machine.config
        self.amap = machine.address_map
        self.rng = rng
        if self.config.tm.backoff_enabled and self.uses_backoff():
            self.backoff = ExponentialBackoff(self.config.tm,
                                              rng.split("backoff"))
        else:
            self.backoff = NoBackoff()
        self.stats: Optional[RunStats] = None
        #: transactions currently in flight, by thread id
        self.active_txns: Dict[int, Txn] = {}
        #: writer directory of the eager backends: line -> {thread id:
        #: transaction} over the *active* transactions holding the line
        #: in ``write_lines``.  A first-touch read finds its conflicting
        #: writers with one probe, the way a coherence directory answers
        #: a get-shared, instead of scanning every core's write set.
        #: Filled by :meth:`_track_write`, emptied by :meth:`_deregister`;
        #: lines with no writer are absent.
        self._line_writers: Dict[int, Dict[int, Txn]] = {}
        # hoisted hot-path state: the read paths run once per simulated
        # memory operation, so attribute chains and repeated config
        # lookups are paid here instead.  Bound methods and the
        # broadcast cost are safe to cache — the machine never swaps its
        # caches, controller, backing store or interconnect.
        self._wpl = machine.address_map.words_per_line
        self._l1_lat = machine.config.machine.l1d.latency_cycles
        self._access = machine.caches.access
        self._mvm_plain_read = machine.mvm.plain_read
        self._backing_load = machine.backing.load
        self._broadcast_cost = machine.interconnect.broadcast_cost
        #: declared capacity bounds, resolved once: tracked read lines,
        #: tracked write lines, speculative version-buffer entries.
        #: ``0`` = unbounded; a config knob wins over the backend's
        #: built-in ``HW_*_LINES``.
        tm_cfg = self.config.tm
        self.read_set_limit = tm_cfg.read_set_limit or self.HW_READ_LINES
        self.write_set_limit = tm_cfg.write_set_limit or self.HW_WRITE_LINES
        self.version_buffer_limit = tm_cfg.version_buffer_limit
        #: set by the engine while a golden-token transaction runs: an
        #: escalated transaction executes like a software fallback, so
        #: hardware capacity bounds do not apply — this is what keeps
        #: "any limit x any seed terminates" true under retry policies
        self.capacity_suppressed = False
        #: fault injector, only when its plan squeezes capacity
        faults = machine.faults
        self._capacity_faults = (
            faults if faults is not None
            and faults.plan.squeezes_capacity() else None)
        #: whether any capacity bound applies (one of the limits above
        #: or a capacity-squeezing fault plan): every charge site calls
        #: ``_charge_*_capacity`` only then, so an unbounded run pays one
        #: attribute test per site and no call
        self._capacity_bounded = bool(
            self.read_set_limit or self.write_set_limit
            or self.version_buffer_limit or self._capacity_faults)
        #: next transaction uid; every successful begin registers exactly
        #: one transaction, so uids equal global begin order — the same
        #: order the span recorder indexes spans by
        self._next_uid = 0

    # -- policy hooks ---------------------------------------------------

    def uses_backoff(self) -> bool:
        """Whether this system applies exponential backoff after aborts."""
        return True

    def begin(self, thread_id: int, label: str,
              attempt: int) -> Tuple[Optional[Txn], int]:
        """Start a transaction; return ``(txn, cycles)``.

        A ``None`` transaction means the thread must stall and retry begin
        (SI-TM's Δ-protocol stall, section 4.2).
        """
        raise NotImplementedError

    def read(self, txn: Txn, addr: int, promote: bool = False,
             ) -> Tuple[int, int]:
        """Transactional load; return ``(value, cycles)``."""
        raise NotImplementedError

    def write(self, txn: Txn, addr: int, value: int) -> int:
        """Transactional store; return cycles."""
        raise NotImplementedError

    def commit(self, txn: Txn, now: int) -> int:
        """Attempt to commit at local time ``now``; return cycles.

        ``now`` is the committing thread's local clock, used to queue on
        serialising resources (the commit token).  Raises
        :class:`TransactionAborted` when validation fails; the engine then
        calls :meth:`abort`.
        """
        raise NotImplementedError

    def abort(self, txn: Txn, cause: AbortCause) -> int:
        """Clean up an aborting transaction; return cycles (incl. backoff)."""
        raise NotImplementedError

    # -- shared helpers ---------------------------------------------------

    def _register(self, txn: Txn) -> None:
        if txn.thread_id in self.active_txns:
            raise TMError(
                f"thread {txn.thread_id} already has an active transaction")
        txn.uid = self._next_uid
        self._next_uid += 1
        self.active_txns[txn.thread_id] = txn

    def _deregister(self, txn: Txn) -> None:
        txn.active = False
        tid = txn.thread_id
        self.active_txns.pop(tid, None)
        directory = self._line_writers
        if directory:
            # idempotent (a commit that raises deregisters, then the
            # engine's abort does again): only an entry that is this
            # very attempt is removed
            for line in txn.write_lines:
                writers = directory.get(line)
                if writers is not None and writers.get(tid) is txn:
                    del writers[tid]
                    if not writers:
                        del directory[line]

    def _track_write(self, txn: Txn, line: int) -> None:
        """Add ``line`` to ``txn``'s write set and the writer directory."""
        txn.write_lines.add(line)
        writers = self._line_writers.get(line)
        if writers is None:
            self._line_writers[line] = {txn.thread_id: txn}
        else:
            writers[txn.thread_id] = txn

    def others(self, txn: Txn):
        """Active transactions other than ``txn``."""
        for tid, other in self.active_txns.items():
            if tid != txn.thread_id and other.active:
                yield other

    def _backoff_cycles(self, txn: Txn) -> int:
        delay = self.backoff.delay(txn.attempt + 1)
        if self.stats is not None:
            self.stats.threads[txn.thread_id].backoff_cycles += delay
        metrics = self.machine.metrics
        if metrics is not None and delay:
            metrics.observe("tm_backoff_cycles", delay, system=self.name)
        profiler = self.machine.profiler
        if profiler is not None:
            profiler.sub_account(txn.thread_id, "abort", "backoff", delay)
        return delay

    def _commit_wait(self, txn: Txn, wait: int) -> None:
        """Record cycles spent queued on the commit token.

        Shared by every system that serialises commits (2PL, SONTM):
        the wait goes to the per-thread stats and, when telemetry is
        on, to the ``tm_commit_wait_cycles`` distribution — the
        commit-serialisation bottleneck section 4.2 discusses.
        """
        if self.stats is not None:
            self.stats.threads[txn.thread_id].commit_wait_cycles += wait
        metrics = self.machine.metrics
        if metrics is not None and wait:
            metrics.observe("tm_commit_wait_cycles", wait,
                            system=self.name)
        profiler = self.machine.profiler
        if profiler is not None:
            profiler.sub_account(txn.thread_id, "commit", "token_wait",
                                 wait)

    def _newest_word(self, addr: int, line: int) -> int:
        """Newest committed value of the word at ``addr`` (in ``line``).

        What :meth:`Machine.plain_load` returns, for a caller that has
        the line already: one region test, one controller call.
        """
        if addr >= MVM_REGION_BASE:
            data = self._mvm_plain_read(line)
            if data is None:
                return 0
            return data[addr % self._wpl]
        return self._backing_load(addr)

    def _check_version_buffer(self, txn: Txn) -> None:
        """Bounded-HTM version-buffer overflow (section 4.3).

        Conventional systems that buffer speculative writes in the L1 abort
        when the write set outgrows it.  Disabled (0) by default to match
        the paper's evaluation, which models perfect write sets.
        """
        limit = self.config.tm.version_buffer_lines
        if limit and len(txn.write_lines) > limit:
            from repro.common.errors import TransactionAborted
            raise TransactionAborted(AbortCause.VERSION_BUFFER_OVERFLOW)

    # -- capacity bounds (POWER-style limited-capacity HTM) ---------------

    def _capacity_abort(self, txn: Txn, cause: AbortCause, line: int,
                        size: int, limit: int) -> None:
        """Abort ``txn`` on a capacity overflow with full attribution.

        The overflowing line feeds the conflict heatmap (the profiler's
        ``on_abort`` hook attributes per-line, per-cause), and telemetry
        gets a dedicated per-cause capacity counter on top of the
        ordinary ``txn_aborts_total`` attribution.
        """
        txn.conflict_line = line
        metrics = self.machine.metrics
        if metrics is not None:
            metrics.inc("tm_capacity_aborts_total", system=self.name,
                        cause=cause.value)
        from repro.common.errors import TransactionAborted
        raise TransactionAborted(
            cause, f"{size} entries exceed limit {limit}")

    def _charge_read_capacity(self, txn: Txn, line: int) -> None:
        """Charge the tracked read set against the read-set bound.

        Called at every read-line *tracking* site while
        ``_capacity_bounded`` — systems with invisible readers (SI-TM)
        track no read lines and therefore never charge read capacity.
        """
        if self.capacity_suppressed:
            return
        size = len(txn.read_lines)
        limit = self.read_set_limit
        if limit and size > limit:
            self._capacity_abort(txn, AbortCause.READ_CAPACITY, line,
                                 size, limit)
        faults = self._capacity_faults
        if faults is not None:
            squeezed = faults.capacity_limits()[0]
            if squeezed and size > squeezed:
                faults.note_capacity_abort("read")
                self._capacity_abort(txn, AbortCause.READ_CAPACITY, line,
                                     size, squeezed)

    def _charge_write_capacity(self, txn: Txn, line: int) -> None:
        """Charge the tracked write set against the write-set bound."""
        if self.capacity_suppressed:
            return
        size = len(txn.write_lines)
        limit = self.write_set_limit
        if limit and size > limit:
            self._capacity_abort(txn, AbortCause.WRITE_CAPACITY, line,
                                 size, limit)
        faults = self._capacity_faults
        if faults is not None:
            squeezed = faults.capacity_limits()[1]
            if squeezed and size > squeezed:
                faults.note_capacity_abort("write")
                self._capacity_abort(txn, AbortCause.WRITE_CAPACITY, line,
                                     size, squeezed)

    def _charge_version_capacity(self, txn: Txn, line: int,
                                 occupancy: int) -> None:
        """Charge the speculative version buffer against its bound.

        ``occupancy`` is backend-defined: buffered store words for
        lazy-versioning systems, undo-log entries for eager ones.
        """
        if self.capacity_suppressed:
            return
        limit = self.version_buffer_limit
        if limit and occupancy > limit:
            self._capacity_abort(txn, AbortCause.VERSION_CAPACITY, line,
                                 occupancy, limit)
        faults = self._capacity_faults
        if faults is not None:
            squeezed = faults.capacity_limits()[2]
            if squeezed and occupancy > squeezed:
                faults.note_capacity_abort("buffer")
                self._capacity_abort(txn, AbortCause.VERSION_CAPACITY,
                                     line, occupancy, squeezed)

    # -- plain (non-transactional) timed access ---------------------------

    def plain_read(self, thread_id: int, addr: int) -> Tuple[int, int]:
        """Non-transactional load with cache timing."""
        line = addr // self._wpl
        cycles = self._access(thread_id, line)
        return self._newest_word(addr, line), cycles

    def plain_write(self, thread_id: int, addr: int, value: int) -> int:
        """Non-transactional store with cache timing."""
        line = self.amap.line_of(addr)
        cycles = self.machine.caches.access(thread_id, line)
        self.machine.plain_store(addr, value)
        return cycles
