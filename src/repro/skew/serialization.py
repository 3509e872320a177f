"""Serialization-graph testing oracle.

Builds the classic precedence (conflict) graph over the *committed*
transactions of a recorded history: an edge ``A -> B`` means A must precede
B in any equivalent serial order, induced by

* **ww** — A and B wrote the same address; writes serialise in commit
  order;
* **wr** — B read the version A installed;
* **rw** — A read a version that B overwrote (antidependency).

A history is conflict-serializable iff this graph is acyclic — so the
graph is an *oracle*: run any workload under a TM system with a
:class:`~repro.sim.history.HistoryRecorder` attached and assert acyclicity
for the serializable systems (2PL, SONTM, SSI-TM, LogTM).  For plain
SI-TM, cycles are exactly the write-skew anomalies of section 5 — and by
the classic SI theorem every such cycle must contain two consecutive
``rw`` edges, which :func:`si_anomaly_cycles` checks.

Which version a read observed depends on the system's read semantics:

* ``"latest"`` — eager/CS systems read the newest version committed
  before the *read event*;
* ``"snapshot"`` — SI systems read the newest version committed before
  the transaction's *begin event*.

Reads of a transaction's own writes induce no edges.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.common.errors import SkewToolError
from repro.sim.history import READ, WRITE, History, TxnRecord

if TYPE_CHECKING:
    # imported inside the functions that build a graph: the store's live
    # monitor loads this package and never builds one
    import networkx as nx

READ_MODES = ("latest", "snapshot")


def _committed_writers(history: History):
    """Per-address committed writers sorted by commit index."""
    by_addr: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for txn in history.committed():
        for addr in txn.write_addrs:
            by_addr[addr].append((txn.commit_index, txn.uid))
    for writers in by_addr.values():
        writers.sort()
    return by_addr


def _version_read(writers: List[Tuple[int, int]],
                  before_index: int) -> Tuple[int, Optional[int]]:
    """(position, uid) of the newest writer committed before ``before_index``.

    Position -1 / uid None is the initial (pre-transactional) version.
    """
    position = bisect_left(writers, (before_index, -1)) - 1
    if position < 0:
        return -1, None
    return position, writers[position][1]


def _read_events(history: History, txn: TxnRecord):
    """(addr, event_index) for the first read of each address, skipping
    reads that followed the transaction's own write to that address."""
    own_written = set()
    first_reads = {}
    for event in history.events[txn.begin_index:txn.commit_index or 0]:
        if event.txn_uid != txn.uid:
            continue
        if event.kind == WRITE:
            own_written.add(event.addr)
        elif event.kind == READ:
            if event.addr not in own_written \
                    and event.addr not in first_reads:
                first_reads[event.addr] = event.index
    return first_reads.items()


def precedence_graph(history: History,
                     read_mode: str = "latest") -> "nx.DiGraph":
    """The conflict graph over committed transactions."""
    import networkx as nx
    if read_mode not in READ_MODES:
        raise SkewToolError(
            f"unknown read mode {read_mode!r}; expected one of {READ_MODES}")
    graph = nx.DiGraph()
    committed = history.committed()
    for txn in committed:
        graph.add_node(txn.uid, label=txn.label)
    by_addr = _committed_writers(history)

    # ww: writers of an address serialise in commit order
    for writers in by_addr.values():
        for (_, earlier), (_, later) in zip(writers, writers[1:]):
            graph.add_edge(earlier, later, kind="ww")

    for txn in committed:
        for addr, read_index in _read_events(history, txn):
            writers = by_addr.get(addr, [])
            if not writers:
                continue
            reference = (read_index if read_mode == "latest"
                         else txn.begin_index)
            position, writer_uid = _version_read(writers, reference)
            if writer_uid is not None and writer_uid != txn.uid:
                graph.add_edge(writer_uid, txn.uid, kind="wr")
            # antidependency to the next version's writer
            next_position = position + 1
            while next_position < len(writers) \
                    and writers[next_position][1] == txn.uid:
                next_position += 1
            if next_position < len(writers):
                graph.add_edge(txn.uid, writers[next_position][1],
                               kind="rw")
    return graph


def is_conflict_serializable(history: History,
                             read_mode: str = "latest") -> bool:
    """True when the committed history has an acyclic conflict graph."""
    import networkx as nx
    return nx.is_directed_acyclic_graph(precedence_graph(history, read_mode))


def cycles(history: History, read_mode: str = "latest",
           limit: int = 20) -> List[List[int]]:
    """Up to ``limit`` simple cycles of the conflict graph."""
    import networkx as nx
    graph = precedence_graph(history, read_mode)
    found = []
    for cycle in nx.simple_cycles(graph):
        found.append(cycle)
        if len(found) >= limit:
            break
    return found


def si_anomaly_cycles(history: History) -> List[List[int]]:
    """Cycles of an SI history (snapshot reads) — each must contain two
    consecutive ``rw`` edges, per the classic SI serializability theorem;
    a violation would indicate an oracle or runtime bug."""
    import networkx as nx
    graph = precedence_graph(history, read_mode="snapshot")
    anomalies = []
    for cycle in nx.simple_cycles(graph):
        ring = list(cycle) + [cycle[0], cycle[1]]
        kinds = [graph[a][b]["kind"] for a, b in zip(ring, ring[1:])]
        if not any(kinds[i] == "rw" and kinds[i + 1] == "rw"
                   for i in range(len(kinds) - 1)):
            raise SkewToolError(
                f"SI cycle without consecutive rw edges: {cycle} {kinds}")
        anomalies.append(cycle)
    return anomalies
