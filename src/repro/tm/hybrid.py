"""A POWER-style hybrid HTM: bounded hardware mode + lock fallback.

Commercial best-effort HTMs (POWER8, Blue Gene/Q) give no forward-progress
guarantee: the hardware aborts any transaction whose footprint outgrows
the tracking structures, so every deployment pairs speculation with a
software fallback.  This backend models the standard discipline:

* **hardware mode** — the 2PL baseline's eager requester-wins protocol,
  but with *finite* read/write tracking (``HW_READ_LINES`` /
  ``HW_WRITE_LINES`` cache-line entries, standing in for POWER's
  L2-backed load/store footprints).  Overflow raises the declared
  ``read-capacity`` / ``write-capacity`` causes; explicit
  ``read_set_limit`` / ``write_set_limit`` config knobs override the
  built-in bounds when non-zero.
* **bounded retries** — a logical transaction gets
  ``hybrid_hw_attempts`` hardware attempts (config knob;
  ``HW_ATTEMPTS`` when unset).  Persistent aborts — capacity or
  conflict — escalate instead of retrying forever.
* **serialized fallback** — an escalating thread first *quiesces* the
  hardware (new begins stall, in-flight speculation drains), then runs
  non-speculatively under a global lock: suspended-mode accesses pay
  cache timing but are untracked — no coherence broadcasts, no capacity
  charges — and cannot be aborted by hardware conflicts.  While the lock
  is held every other begin stalls, so the fallback section is trivially
  serializable; its buffered writes publish through the commit token
  like any lazy commit.

The fallback's *serialization* is the safety-critical ingredient, so it
doubles as an oracle self-test hook: setting ``fallback_serializes``
False (on an instance; the ``--broken no-lock`` fuzz hook does this)
removes the quiesce/stall discipline, letting untracked fallback
accesses race live speculation — the lost updates that result are
exactly the anomaly the isolation oracle must flag.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from repro.common.errors import AbortCause
from repro.common.rng import SplitRandom
from repro.sim.machine import Machine
from repro.tm.api import Txn
from repro.tm.twopl import TwoPhaseLockingTM


class HybridHTM(TwoPhaseLockingTM):
    """Capacity-bounded eager HTM with a serialized global-lock fallback."""

    name = "HybridHTM"
    # isolation + ABORT_CAUSES inherited from 2PL: the capacity causes are
    # already declared there, and the serialized fallback preserves
    # conflict serializability.
    #: built-in hardware read-set tracking capacity (cache lines)
    HW_READ_LINES = 64
    #: built-in hardware write-set tracking capacity (cache lines)
    HW_WRITE_LINES = 32
    #: hardware attempts per logical transaction before lock escalation
    HW_ATTEMPTS = 2
    #: cycles to acquire the global fallback lock (uncontended fetch-op
    #: in shared memory)
    LOCK_CYCLES = 20
    #: oracle test hook: setting this False (on an instance) removes the
    #: fallback's mutual exclusion — untracked fallback accesses then
    #: race live hardware transactions, producing lost updates the
    #: isolation checker must catch (``--broken no-lock``)
    fallback_serializes = True

    def __init__(self, machine: Machine, rng: SplitRandom):
        super().__init__(machine, rng)
        self.hw_attempts = (self.config.tm.hybrid_hw_attempts
                            or self.HW_ATTEMPTS)
        #: threads currently executing in the serial fallback section
        #: (at most one while ``fallback_serializes`` holds)
        self.fallback_threads: Set[int] = set()
        #: thread queued for the lock, draining in-flight speculation
        self._fallback_waiting: Optional[int] = None
        self.fallback_entries = 0
        self.fallback_commits = 0

    # ------------------------------------------------------------------

    def begin(self, thread_id: int, label: str,
              attempt: int) -> Tuple[Optional[Txn], int]:
        cycles = self.config.txn_overhead_cycles
        wants_fallback = attempt >= self.hw_attempts
        if self.fallback_serializes:
            if self.fallback_threads:
                # serial section in progress: everyone else stalls
                return None, cycles
            if self._fallback_waiting is not None \
                    and self._fallback_waiting != thread_id \
                    and not self.capacity_suppressed:
                # quiesce: no new speculation while a faller drains us.
                # The engine's golden-token holder (capacity_suppressed)
                # is exempt: it runs serially with nothing in flight,
                # and the faller it would wait for is itself parked by
                # the engine until the token is released
                return None, cycles
            if wants_fallback:
                if self.active_txns:
                    self._fallback_waiting = thread_id
                    return None, cycles
                self._fallback_waiting = None
                return self._enter_fallback(thread_id, label, attempt,
                                            cycles + self.LOCK_CYCLES)
        elif wants_fallback:
            # broken mode: take the "lock" without quiescing or gating —
            # the oracle self-test path
            return self._enter_fallback(thread_id, label, attempt, cycles)
        txn = Txn(thread_id, label, attempt)
        self._register(txn)
        return txn, cycles

    def _enter_fallback(self, thread_id: int, label: str, attempt: int,
                        cycles: int) -> Tuple[Txn, int]:
        """Start a non-speculative serial-mode transaction."""
        self.fallback_threads.add(thread_id)
        self.fallback_entries += 1
        metrics = self.machine.metrics
        if metrics is not None:
            metrics.inc("tm_hybrid_fallback_total", system=self.name)
        txn = Txn(thread_id, label, attempt)
        self._register(txn)
        return txn, cycles

    # ------------------------------------------------------------------

    def read(self, txn: Txn, addr: int, promote: bool = False,
             ) -> Tuple[int, int]:
        if txn.thread_id in self.fallback_threads:
            # suspended-mode access: cache timing, no tracking, no
            # broadcasts, no capacity charge
            buffered = txn.write_buffer.get(addr)
            if buffered is not None:
                return buffered, self._l1_lat
            line = addr // self._wpl
            cycles = self._access(txn.thread_id, line)
            return self._newest_word(addr, line), cycles
        return super().read(txn, addr, promote)

    def write(self, txn: Txn, addr: int, value: int) -> int:
        if txn.thread_id in self.fallback_threads:
            # write lines are kept only to cost the commit write-back;
            # nothing is broadcast and nothing charges capacity
            self._track_write(txn, addr // self._wpl)
            txn.write_buffer[addr] = value
            return self._l1_lat
        return super().write(txn, addr, value)

    def commit(self, txn: Txn, now: int) -> int:
        if txn.thread_id in self.fallback_threads:
            # the serial section is non-speculative: hardware conflicts
            # cannot abort it (there is no footprint to hit) — any doom
            # and its provenance recorded before escalation is void
            txn.doomed = None
            txn.conflict_line = None
            txn.killer_tid = txn.killer_uid = None
            txn.killer_label = txn.killer_ts = None
            try:
                cycles = super().commit(txn, now)
            finally:
                self.fallback_threads.discard(txn.thread_id)
            self.fallback_commits += 1
            return cycles
        return super().commit(txn, now)

    def abort(self, txn: Txn, cause: AbortCause) -> int:
        # an explicit (workload-requested) abort releases the lock too
        self.fallback_threads.discard(txn.thread_id)
        return super().abort(txn, cause)
