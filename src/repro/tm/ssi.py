"""SSI-TM: serializable snapshot isolation (section 5.2).

The paper sketches a hardware scheme: track read sets in addition to write
sets, flag the first read-write antidependency's direction per transaction
(one *incoming*, one *outgoing* flag bit), and abort on a **dangerous
structure** — a transaction with both flags set, the minimum requirement
for a dependency cycle and hence a write skew.  This is safe but admits
false positives.

This implementation completes the sketch with the committed-transaction
bookkeeping the full algorithm needs (after Cahill et al. [11], which the
paper builds on): every rw-antidependency ``R ->rw W`` (R read a line, W
installed a newer version, R and W concurrent) is discovered at the
*later* of the two commits —

* **reader commits second**: its read lines carry version timestamps newer
  than its snapshot → reader gains an outgoing edge, and the already-
  committed writer's *record* gains an incoming one;
* **writer commits second**: a window of recently committed transactions'
  read sets (pruned once no active transaction can still be concurrent)
  yields the incoming edge, and the committed reader's record the
  outgoing one.

A committing transaction aborts when it becomes a pivot (both flags), or
when the edge it is about to create would complete a pivot on a
*committed* record — breaking the cycle that record would anchor.  Since
every SI anomaly contains a pivot and every edge incident to a pivot is
examined at one of these commits, no anomalous cycle survives.

Dependencies remain *type-based*, not temporal (Figure 6): a long reader
overwritten twice by the same committed writer accrues two outgoing edges
and commits, while conflict serializability aborts it.

Read-only transactions can never be pivots (no writes → no incoming
edges) and are therefore never aborted, preserving SI-TM's guarantee;
they do pay record-keeping at commit, which is the price of SSI.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from repro.common.errors import AbortCause, TransactionAborted
from repro.common.rng import SplitRandom
from repro.sim.machine import Machine
from repro.tm.api import IsolationLevel, Txn
from repro.tm.sitm import SnapshotIsolationTM


class _CommittedRecord:
    """Flags and footprint of a committed transaction, kept while any
    active transaction could still be concurrent with it."""

    __slots__ = ("start_ts", "commit_stamp", "read_lines", "write_lines",
                 "inbound", "outbound", "identity")

    def __init__(self, start_ts: int, commit_stamp: int,
                 read_lines: Set[int], write_lines: Set[int],
                 inbound: bool, outbound: bool, identity: Tuple):
        self.start_ts = start_ts
        self.commit_stamp = commit_stamp
        self.read_lines = read_lines
        self.write_lines = write_lines
        self.inbound = inbound
        self.outbound = outbound
        #: ``Txn.identity()`` tuple of the committed transaction, named
        #: as the killer when this record anchors a dangerous structure
        self.identity = identity

    @property
    def dangerous(self) -> bool:
        return self.inbound and self.outbound


class SerializableSITM(SnapshotIsolationTM):
    """SI-TM plus dangerous-structure detection for full serializability."""

    name = "SSI-TM"
    isolation = IsolationLevel.SERIALIZABLE_SNAPSHOT
    ABORT_CAUSES = (SnapshotIsolationTM.ABORT_CAUSES
                    | {AbortCause.DANGEROUS_STRUCTURE,
                       AbortCause.READ_CAPACITY})
    #: an injected false positive looks like a dangerous-structure
    #: abort — SSI's detector is the one that genuinely admits them
    SPURIOUS_ABORT_CAUSE = AbortCause.DANGEROUS_STRUCTURE
    #: cycles charged per committed-window record scanned at commit
    RECORD_SCAN_CYCLES = 1

    def __init__(self, machine: Machine, rng: SplitRandom):
        super().__init__(machine, rng)
        self._window: List[_CommittedRecord] = []

    def uses_backoff(self) -> bool:
        """SSI aborts are mutual (read-write-class): two transactions can
        repeatedly abort on each other's dangerous structures in
        deterministic lockstep, so — unlike plain SI-TM, whose write-write
        aborts always let one side commit — SSI needs randomised backoff
        for guaranteed progress."""
        return True

    # ------------------------------------------------------------------

    def read(self, txn: Txn, addr: int, promote: bool = False,
             ) -> Tuple[int, int]:
        value, cycles = super().read(txn, addr, promote)
        line = self.amap.line_of(addr)
        if line not in txn.read_lines:
            txn.read_lines.add(line)
            if self._capacity_bounded:
                self._charge_read_capacity(txn, line)
        return value, cycles

    def _prune_window(self) -> None:
        oldest_active = self.mvm.active.oldest()
        if oldest_active is None:
            self._window.clear()
            return
        self._window = [rec for rec in self._window
                        if rec.commit_stamp > oldest_active]

    def _detect_dangerous(self, txn: Txn) -> int:
        """Flag rw-antidependencies; raise on a dangerous structure.

        Returns the cycle cost of the detection pass.
        """
        cycles = 0
        pure_reads = txn.read_lines - txn.write_lines
        # Edges where *we* are the reader and the writer already committed:
        # a newer version on a read line means a concurrent writer.
        for line in pure_reads:
            if self.mvm.validate_line(line, txn.start_ts):
                txn.outbound_rw = True
                if txn.outbound_peer is None:
                    # the concurrent writer on our outgoing edge: whoever
                    # installed the newer version of the line we read
                    txn.outbound_peer = self.mvm.newest_installer(line)
                for rec in self._window:
                    cycles += self.RECORD_SCAN_CYCLES
                    if (line in rec.write_lines
                            and rec.commit_stamp > txn.start_ts):
                        rec.inbound = True
                        if rec.dangerous:
                            # our edge would complete a committed pivot
                            txn.conflict_line = line
                            txn.record_killer(rec.identity)
                            raise TransactionAborted(
                                AbortCause.DANGEROUS_STRUCTURE,
                                f"committed pivot via read line {line:#x}")
        # Edges where *we* are the writer and the reader already committed.
        if txn.write_lines:
            for rec in self._window:
                cycles += self.RECORD_SCAN_CYCLES
                if rec.commit_stamp <= txn.start_ts:
                    continue  # not concurrent with us
                overlap = txn.write_lines & rec.read_lines
                if overlap and not (overlap <= rec.write_lines):
                    txn.inbound_rw = True
                    if txn.inbound_peer is None:
                        txn.inbound_peer = rec.identity
                    rec.outbound = True
                    if rec.dangerous:
                        txn.conflict_line = min(overlap)
                        txn.record_killer(rec.identity)
                        raise TransactionAborted(
                            AbortCause.DANGEROUS_STRUCTURE,
                            "committed pivot via reader record")
        if txn.inbound_rw and txn.outbound_rw:
            # both rw-edge peers are concurrent committed transactions;
            # name the inbound one (a record, always available) first
            txn.record_killer(txn.inbound_peer or txn.outbound_peer)
            raise TransactionAborted(
                AbortCause.DANGEROUS_STRUCTURE, "pivot at commit")
        return cycles

    def commit(self, txn: Txn, now: int) -> int:
        if txn.doomed is not None:
            raise TransactionAborted(txn.doomed)
        self._prune_window()
        try:
            detect_cycles = self._detect_dangerous(txn)
        except TransactionAborted:
            self._release(txn)
            raise
        start_ts = txn.start_ts
        read_lines = set(txn.read_lines)
        write_lines = set(txn.write_lines)
        inbound, outbound = txn.inbound_rw, txn.outbound_rw
        cycles = super().commit(txn, now)
        self._window.append(_CommittedRecord(
            start_ts, self.machine.clock.now, read_lines, write_lines,
            inbound, outbound, txn.identity()))
        metrics = self.machine.metrics
        if metrics is not None:
            # size of the committed-transaction window each dangerous-
            # structure scan walks: SSI's bookkeeping cost driver
            metrics.observe("tm_ssi_window_records", len(self._window),
                            system=self.name)
        profiler = self.machine.profiler
        if profiler is not None:
            profiler.sub_account(txn.thread_id, "commit", "validate",
                                 detect_cycles)
        return cycles + detect_cycles
