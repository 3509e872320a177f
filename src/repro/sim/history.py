"""The event log: one globally ordered, value-carrying history per run.

The paper's write-skew tool (section 5.1) instruments applications with
PIN, intercepting TM BEGIN / TM READ / TM WRITE / TM COMMIT into a
globally ordered trace with the source location of every access, and
defers analysis to post-processing.  Here the TM runtime *is* ours, so
the recorder is simply an engine :class:`~repro.sim.engine.Tracer` —
strictly easier, equally faithful (see DESIGN.md).  Verifying an
isolation level needs the same trace plus the **value** every read
observed, every write stored, and the start/end timestamps the system
assigned.

:class:`HistoryRecorder` captures all of that into one serializable
:class:`History`: the object the write-skew and serialization-graph
analyses of :mod:`repro.skew` and the isolation checker
(:mod:`repro.oracle.checker`) both consume directly, and the fuzzer
persists as JSON repros.  Recording appends one event object per
operation and nothing more, minimising perturbation of the schedule
under test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.common.errors import CAUSE_VALUES, AbortCause
from repro.sim.engine import Tracer
from repro.tm.api import ISOLATION_VALUES, TMSystem, Txn

#: event kinds, as the short strings used in serialized histories
BEGIN, READ, WRITE, COMMIT, ABORT = "begin", "read", "write", "commit", "abort"


@dataclass(frozen=True)
class HistoryEvent:
    """One globally ordered event of a recorded history."""

    index: int
    kind: str
    txn_uid: int
    thread_id: int
    label: str
    addr: Optional[int] = None
    value: Optional[int] = None
    site: str = ""

    def to_dict(self) -> dict:
        """JSON-safe form (stable key set)."""
        return {"index": self.index, "kind": self.kind, "txn": self.txn_uid,
                "thread": self.thread_id, "label": self.label,
                "addr": self.addr, "value": self.value, "site": self.site}

    @classmethod
    def from_dict(cls, data: dict) -> "HistoryEvent":
        """Inverse of :meth:`to_dict`."""
        return cls(data["index"], data["kind"], data["txn"], data["thread"],
                   data["label"], data.get("addr"), data.get("value"),
                   data.get("site", ""))


@dataclass
class TxnRecord:
    """Per-attempt transaction view of a history.

    One record exists per *attempt*: a retry after an abort begins a new
    record, mirroring the engine's one-:class:`~repro.tm.api.Txn`-per-
    attempt contract.  ``reads``/``writes`` hold ``(addr, value, index)``
    triples in program order.
    """

    uid: int
    thread_id: int
    label: str
    begin_index: int
    start_ts: Optional[int] = None
    commit_index: Optional[int] = None
    commit_ts: Optional[int] = None
    abort_cause: Optional[str] = None
    reads: List[Tuple[int, int, int]] = field(default_factory=list)
    writes: List[Tuple[int, int, int]] = field(default_factory=list)
    #: timestamp epoch the attempt ran in (section 4.1: each overflow
    #: reset restarts the counter, so timestamps of different epochs are
    #: incomparable; no attempt spans epochs).  0 for untimestamped
    #: systems and for all histories recorded before overflow support.
    epoch: int = 0

    @property
    def committed(self) -> bool:
        """True when this attempt committed."""
        return self.commit_index is not None

    @property
    def aborted(self) -> bool:
        """True when this attempt aborted."""
        return self.abort_cause is not None

    @property
    def read_addrs(self) -> Set[int]:
        """Distinct read addresses."""
        return {addr for addr, _, _ in self.reads}

    @property
    def write_addrs(self) -> Set[int]:
        """Distinct written addresses."""
        return {addr for addr, _, _ in self.writes}

    def concurrent_with(self, other: "TxnRecord") -> bool:
        """Did the two committed attempts overlap in the event order?"""
        if self.commit_index is None or other.commit_index is None:
            return False
        return (self.begin_index < other.commit_index
                and other.begin_index < self.commit_index)

    def final_writes(self) -> Dict[int, int]:
        """Last written value per address — what a commit publishes."""
        return {addr: value for addr, value, _ in self.writes}

    def ops_in_order(self) -> List[Tuple[str, int, int, int]]:
        """Reads and writes merged as ``(kind, addr, value, index)``."""
        ops = ([(READ, a, v, i) for a, v, i in self.reads]
               + [(WRITE, a, v, i) for a, v, i in self.writes])
        ops.sort(key=lambda op: op[3])
        return ops

    def to_dict(self) -> dict:
        """JSON-safe form (stable key set)."""
        return {"uid": self.uid, "thread": self.thread_id,
                "label": self.label, "begin_index": self.begin_index,
                "start_ts": self.start_ts, "commit_index": self.commit_index,
                "commit_ts": self.commit_ts, "abort_cause": self.abort_cause,
                "reads": [list(r) for r in self.reads],
                "writes": [list(w) for w in self.writes],
                "epoch": self.epoch}

    @classmethod
    def from_dict(cls, data: dict) -> "TxnRecord":
        """Inverse of :meth:`to_dict`."""
        return cls(data["uid"], data["thread"], data["label"],
                   data["begin_index"], data.get("start_ts"),
                   data.get("commit_index"), data.get("commit_ts"),
                   data.get("abort_cause"),
                   [tuple(r) for r in data.get("reads", [])],
                   [tuple(w) for w in data.get("writes", [])],
                   data.get("epoch", 0))


@dataclass
class History:
    """The complete recorded global history of one run.

    ``initial`` maps addresses to their pre-transactional values (the
    state non-transactional setup code established); reads that precede
    every committed write resolve against it.  ``abort_causes`` carries
    the system's declared legal causes so a serialized history is
    self-contained for checking.
    """

    system: str
    isolation: str
    abort_causes: Tuple[str, ...] = ()
    events: List[HistoryEvent] = field(default_factory=list)
    transactions: Dict[int, TxnRecord] = field(default_factory=dict)
    initial: Dict[int, int] = field(default_factory=dict)

    def committed(self) -> List[TxnRecord]:
        """Committed transaction records, in begin order."""
        return sorted((t for t in self.transactions.values() if t.committed),
                      key=lambda t: t.begin_index)

    def aborts(self) -> List[TxnRecord]:
        """Aborted attempts, in begin order."""
        return sorted((t for t in self.transactions.values() if t.aborted),
                      key=lambda t: t.begin_index)

    def sites(self, ops: List[Tuple[int, int, int]]
              ) -> List[Tuple[int, str]]:
        """``(addr, site)`` per access of a record's ``reads``/``writes``.

        Source sites live on the events only; a record's triples reach
        them through the event index they carry.
        """
        return [(addr, self.events[index].site) for addr, _, index in ops]

    def to_dict(self) -> dict:
        """JSON-safe form of the whole history."""
        return {
            "system": self.system,
            "isolation": self.isolation,
            "abort_causes": list(self.abort_causes),
            "events": [ev.to_dict() for ev in self.events],
            "transactions": [rec.to_dict()
                             for _, rec in sorted(self.transactions.items())],
            "initial": {str(addr): value
                        for addr, value in sorted(self.initial.items())},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "History":
        """Inverse of :meth:`to_dict`."""
        return cls(
            system=data["system"],
            isolation=data["isolation"],
            abort_causes=tuple(data.get("abort_causes", ())),
            events=[HistoryEvent.from_dict(e) for e in data["events"]],
            transactions={rec["uid"]: TxnRecord.from_dict(rec)
                          for rec in data["transactions"]},
            initial={int(addr): value
                     for addr, value in data.get("initial", {}).items()})

    def dumps(self) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "History":
        """Deserialize from :meth:`dumps` output."""
        return cls.from_dict(json.loads(text))


class HistoryRecorder(Tracer):
    """Engine tracer that captures a complete, checkable history."""

    def __init__(self, system: str, isolation: str,
                 abort_causes: Tuple[str, ...] = (),
                 initial: Optional[Dict[int, int]] = None):
        self.history = History(system=system, isolation=isolation,
                               abort_causes=tuple(sorted(abort_causes)),
                               initial=dict(initial or {}))
        self._open: Dict[int, int] = {}  # thread_id -> txn uid

    @classmethod
    def for_system(cls, tm: TMSystem,
                   initial: Optional[Dict[int, int]] = None
                   ) -> "HistoryRecorder":
        """A recorder carrying ``tm``'s declared isolation metadata."""
        return cls(tm.name, ISOLATION_VALUES[tm.isolation],
                   tuple(CAUSE_VALUES[c] for c in tm.ABORT_CAUSES), initial)

    def _append(self, kind: str, txn: Txn, addr: Optional[int] = None,
                value: Optional[int] = None, site: str = "") -> HistoryEvent:
        uid = self._open[txn.thread_id]
        event = HistoryEvent(len(self.history.events), kind, uid,
                             txn.thread_id, txn.label, addr, value, site)
        self.history.events.append(event)
        return event

    def on_begin(self, txn: Txn) -> None:
        # one record per attempt, so the record count mints the uid —
        # global begin order, the same order the TM mints ``txn.uid`` in
        uid = self._open[txn.thread_id] = len(self.history.transactions)
        event = self._append(BEGIN, txn)
        self.history.transactions[uid] = TxnRecord(
            uid, txn.thread_id, txn.label, begin_index=event.index,
            start_ts=txn.start_ts, epoch=getattr(txn, "epoch", 0))

    def on_read(self, txn: Txn, addr: int, site: str,
                value: object = None) -> None:
        event = self._append(READ, txn, addr, value, site)
        self.history.transactions[event.txn_uid].reads.append(
            (addr, value, event.index))

    def on_write(self, txn: Txn, addr: int, site: str,
                 value: object = None) -> None:
        event = self._append(WRITE, txn, addr, value, site)
        self.history.transactions[event.txn_uid].writes.append(
            (addr, value, event.index))

    def on_commit(self, txn: Txn) -> None:
        event = self._append(COMMIT, txn)
        record = self.history.transactions[event.txn_uid]
        record.commit_index = event.index
        record.commit_ts = txn.commit_ts

    def on_abort(self, txn: Txn, cause: AbortCause) -> None:
        event = self._append(ABORT, txn)
        self.history.transactions[event.txn_uid].abort_cause = CAUSE_VALUES[cause]

    def __len__(self) -> int:
        return len(self.history.events)
