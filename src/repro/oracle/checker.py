"""Adya-style isolation checking of recorded histories.

:func:`check_history` verifies a :class:`~repro.sim.history.History`
against the isolation level its system declared
(:class:`repro.tm.api.IsolationLevel`) and returns the violations found
(empty = the history is consistent with the declaration):

* **snapshot** (SI-TM) — every committed read observes its transaction's
  snapshot (the newest version committed at or before ``start_ts``, or
  the transaction's own earlier write), the first committer of two
  overlapping writers wins, no aborted or intermediate values are read
  (Adya's G1a/G1b fall out of exact value replay), and the committed
  dependency graph has no cycle SI forbids (every cycle must carry two
  adjacent rw antidependencies: ``(ww ∪ wr) ; rw?`` is acyclic — a pure
  ww/wr cycle would be a G1c violation);
* **conflict-serializable** (2PL, SONTM, LogTM) — committed reads
  observe the newest value committed before the read event, and the
  direct serialization graph (ww/wr/rw edges) is acyclic;
* **serializable-snapshot** (SSI-TM) — all the snapshot guarantees, an
  acyclic serialization graph, and no committed *pivot*: no committed
  transaction with both an inbound and an outbound rw antidependency to
  concurrent committed transactions (Cahill's dangerous structure, which
  SSI must have aborted).

All levels additionally check that every abort cause the run produced is
one the system declared legal (``TMSystem.ABORT_CAUSES``) and that
timestamp metadata is coherent (committed SI writers carry
``start_ts < commit_ts``).

Value replay makes the read checks exact rather than heuristic: the
expected value of every read is reconstructed from the committed writes
and the initial memory image, so lost updates, dirty reads and reads
from aborted transactions all surface as concrete value mismatches.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

# The simulator's history and the graph tools are imported where a check
# needs them: the store's live monitor imports this module for Violation
# alone and never replays a simulator history.
if TYPE_CHECKING:
    from repro.sim.history import History


@dataclass(frozen=True)
class Violation:
    """One isolation-contract violation found in a history."""

    rule: str
    detail: str
    txns: Tuple[int, ...] = ()
    addr: Optional[int] = None

    def to_dict(self) -> dict:
        """JSON-safe form for fuzz results and persisted repros."""
        return {"rule": self.rule, "detail": self.detail,
                "txns": list(self.txns), "addr": self.addr}

    @classmethod
    def from_dict(cls, data: dict) -> "Violation":
        """Inverse of :meth:`to_dict`."""
        return cls(data["rule"], data["detail"],
                   tuple(data.get("txns", ())), data.get("addr"))

    def __str__(self) -> str:
        where = f" @{self.addr:#x}" if self.addr is not None else ""
        who = f" txns={list(self.txns)}" if self.txns else ""
        return f"[{self.rule}]{where}{who} {self.detail}"


def check_history(history: History) -> List[Violation]:
    """Check ``history`` against its declared isolation level."""
    from repro.tm.api import ISOLATION_LEVELS, IsolationLevel

    violations = _check_abort_causes(history)
    level = ISOLATION_LEVELS[history.isolation]
    if level is IsolationLevel.CONFLICT_SERIALIZABLE:
        violations += _check_latest_reads(history)
        violations += _check_serializable(history, read_mode="latest")
    elif level is IsolationLevel.SNAPSHOT:
        violations += _check_timestamps(history)
        violations += _check_snapshot_reads(history)
        violations += _check_first_committer_wins(history)
        violations += _check_si_cycles(history)
    elif level is IsolationLevel.SERIALIZABLE_SNAPSHOT:
        violations += _check_timestamps(history)
        violations += _check_snapshot_reads(history)
        violations += _check_first_committer_wins(history)
        violations += _check_serializable(history, read_mode="snapshot")
        violations += _check_no_committed_pivot(history)
    return violations


# ----------------------------------------------------------------------
# shared checks

def _check_abort_causes(history: History) -> List[Violation]:
    """Every abort must carry a cause the system declared legal."""
    allowed = set(history.abort_causes)
    found = []
    for rec in history.aborts():
        if rec.abort_cause not in allowed:
            found.append(Violation(
                "abort-cause", f"{rec.label} (uid {rec.uid}) aborted with "
                f"undeclared cause {rec.abort_cause!r}", (rec.uid,)))
    return found


def _check_timestamps(history: History) -> List[Violation]:
    """Committed SI transactions need coherent start/commit timestamps."""
    found = []
    for rec in history.committed():
        if rec.start_ts is None:
            found.append(Violation(
                "timestamps", f"committed {rec.label} (uid {rec.uid}) "
                "has no start timestamp", (rec.uid,)))
        elif rec.writes and rec.commit_ts is None:
            found.append(Violation(
                "timestamps", f"committed writer {rec.label} (uid "
                f"{rec.uid}) has no commit timestamp", (rec.uid,)))
        elif rec.commit_ts is not None and rec.commit_ts <= rec.start_ts:
            found.append(Violation(
                "timestamps", f"{rec.label} (uid {rec.uid}) commit_ts "
                f"{rec.commit_ts} <= start_ts {rec.start_ts}", (rec.uid,)))
    return found


# ----------------------------------------------------------------------
# snapshot-family checks (timestamp-based version visibility)

def _committed_versions(history: History
                        ) -> Dict[int, List[Tuple[Tuple[int, int],
                                                  int, int]]]:
    """Per-address committed versions, sorted by (epoch, commit_ts).

    Timestamps only compare within an epoch: an overflow reset (section
    4.1) restarts the counter from zero after flushing all history to
    base versions, so every commit of an earlier epoch is visible to
    every snapshot of a later one.  Ordering by the (epoch, commit_ts)
    pair models exactly that.
    """
    versions: Dict[int, List[Tuple[Tuple[int, int],
                                   int, int]]] = defaultdict(list)
    for rec in history.committed():
        if rec.commit_ts is None:
            continue  # flagged by _check_timestamps if it also wrote
        for addr, value in rec.final_writes().items():
            versions[addr].append(((rec.epoch, rec.commit_ts),
                                   value, rec.uid))
    for entries in versions.values():
        entries.sort()
    return versions


def _snapshot_value(history: History,
                    versions: Dict[int, List[Tuple[Tuple[int, int],
                                                   int, int]]],
                    addr: int, epoch: int,
                    start_ts: int) -> Tuple[int, Optional[int]]:
    """(value, writer uid) visible to a snapshot at (epoch, start_ts)."""
    entries = versions.get(addr, [])
    # newest version with (epoch, commit_ts) <= (epoch, start_ts)
    idx = bisect_right(entries,
                       ((epoch, start_ts), float("inf"), -1)) - 1
    if idx < 0:
        return history.initial.get(addr, 0), None
    _, value, uid = entries[idx]
    return value, uid


def _check_snapshot_reads(history: History) -> List[Violation]:
    """Exact value replay of every committed read against its snapshot."""
    versions = _committed_versions(history)
    found = []
    for rec in history.committed():
        if rec.start_ts is None:
            continue  # flagged by _check_timestamps
        own: Dict[int, int] = {}
        for kind, addr, value, index in rec.ops_in_order():
            if kind == "write":
                own[addr] = value
                continue
            if addr in own:
                expected, writer = own[addr], rec.uid
            else:
                expected, writer = _snapshot_value(
                    history, versions, addr, rec.epoch, rec.start_ts)
            if value != expected:
                found.append(Violation(
                    "snapshot-read",
                    f"{rec.label} (uid {rec.uid}, start_ts {rec.start_ts}) "
                    f"read {value} at event {index} but its snapshot holds "
                    f"{expected} (from "
                    f"{'initial state' if writer is None else f'uid {writer}'})",
                    (rec.uid,), addr))
    return found


def _check_first_committer_wins(history: History) -> List[Violation]:
    """Overlapping committed writers must not both modify an address.

    Two committed transactions overlap iff they ran in the same
    timestamp epoch (an overflow reset aborts everything active, so
    nothing spans epochs) and each began before the other committed
    (``a.start_ts < b.commit_ts`` both ways).  Writers of the *same
    value* are tolerated: under the word-granularity commit filter
    (section 4.2) a silent store legitimately commits past a concurrent
    writer, and the outcome is unobservable either way.
    """
    versions = _committed_versions(history)
    records = history.transactions
    found = []
    for addr, entries in sorted(versions.items()):
        for i, (_, value_a, uid_a) in enumerate(entries):
            a = records[uid_a]
            if a.start_ts is None:
                continue  # flagged by _check_timestamps
            for _, value_b, uid_b in entries[i + 1:]:
                b = records[uid_b]
                if b.start_ts is None:
                    continue
                if (a.epoch == b.epoch
                        and a.start_ts < b.commit_ts
                        and b.start_ts < a.commit_ts
                        and value_a != value_b):
                    found.append(Violation(
                        "first-committer-wins",
                        f"overlapping writers both committed: {a.label} "
                        f"(uid {uid_a}, [{a.start_ts},{a.commit_ts}]) wrote "
                        f"{value_a}, {b.label} (uid {uid_b}, "
                        f"[{b.start_ts},{b.commit_ts}]) wrote {value_b}",
                        (uid_a, uid_b), addr))
    return found


def _check_si_cycles(history: History) -> List[Violation]:
    """Committed SI histories must have no cycle that SI forbids.

    Write-skew cycles (two adjacent rw antidependencies) are *legal*
    under plain snapshot isolation; a cycle of ``(ww ∪ wr) ; rw?`` steps
    is not — e.g. one built purely from ww/wr dependencies, Adya's G1c.
    Unlike :func:`_check_first_committer_wins`, this rule does not
    tolerate overlapping writers of the same value: their ww edge is a
    dependency like any other.
    """
    from repro.skew.serialization import si_violation

    edges = si_violation(history)
    if edges is None:
        return []
    ring = ", ".join(f"{src} -{kind}-> {dst}" for src, dst, kind in edges)
    return [Violation(
        "si-cycle", f"cycle without two adjacent rw antidependencies: "
        f"{ring}", tuple(src for src, _, _ in edges))]


# ----------------------------------------------------------------------
# conflict-serializable checks (event-order version visibility)

def _check_latest_reads(history: History) -> List[Violation]:
    """Value replay under latest-committed read semantics.

    Eager/CS systems isolate uncommitted writes (2PL dooms conflicting
    owners, SONTM buffers, LogTM NACKs conflicting requesters), so a
    committed read must observe its transaction's own latest write or the
    newest value whose writer committed before the read event.
    """
    versions: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for rec in history.committed():
        for addr, value in rec.final_writes().items():
            versions[addr].append((rec.commit_index, value))
    for entries in versions.values():
        entries.sort()
    found = []
    for rec in history.committed():
        own: Dict[int, int] = {}
        for kind, addr, value, index in rec.ops_in_order():
            if kind == "write":
                own[addr] = value
                continue
            if addr in own:
                expected = own[addr]
            else:
                entries = versions.get(addr, [])
                idx = bisect_right(entries, (index, float("inf"))) - 1
                expected = (entries[idx][1] if idx >= 0
                            else history.initial.get(addr, 0))
            if value != expected:
                found.append(Violation(
                    "latest-read",
                    f"{rec.label} (uid {rec.uid}) read {value} at event "
                    f"{index} but the latest committed value is {expected}",
                    (rec.uid,), addr))
    return found


def _check_serializable(history: History,
                        read_mode: str) -> List[Violation]:
    """The direct serialization graph of committed txns must be acyclic."""
    from repro.skew.serialization import find_cycle, precedence_graph

    cycle = find_cycle(precedence_graph(history, read_mode=read_mode))
    if cycle is None:
        return []
    labels = [history.transactions[uid].label for uid in cycle]
    return [Violation(
        "serialization-cycle",
        f"dependency cycle among committed transactions: "
        f"{list(zip(cycle, labels))} ({read_mode} read semantics)",
        tuple(cycle))]


def _check_no_committed_pivot(history: History) -> List[Violation]:
    """SSI: no committed txn may carry both rw-antidependency directions.

    Every dangerous structure contains such a pivot, and a correct SSI
    aborts at least one of its three participants before all commit
    (section 5.2 / Cahill); a fully committed pivot means the detection
    missed an edge.
    """
    from repro.skew.graph import rw_antidependency_edges

    inbound: Dict[int, Tuple[int, int]] = {}
    outbound: Dict[int, Tuple[int, int]] = {}
    for reader, writer, addr, _ in rw_antidependency_edges(history):
        outbound.setdefault(reader.uid, (writer.uid, addr))
        inbound.setdefault(writer.uid, (reader.uid, addr))
    found = []
    for uid in sorted(inbound.keys() & outbound.keys()):
        rec = history.transactions[uid]
        found.append(Violation(
            "dangerous-structure",
            f"committed pivot {rec.label} (uid {uid}): inbound rw from uid "
            f"{inbound[uid][0]} at {inbound[uid][1]:#x}, outbound rw to uid "
            f"{outbound[uid][0]} at {outbound[uid][1]:#x}", (uid,)))
    return found
