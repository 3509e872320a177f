"""Dependency-graph oracle: conflict serializability and snapshot isolation.

Builds the classic precedence (conflict) graph over the *committed*
transactions of a recorded history: an edge ``A -> B`` means A must precede
B in any equivalent serial order, induced by

* **ww** — A and B wrote the same address; writes serialise in commit
  order;
* **wr** — B read the version A installed;
* **rw** — A read a version that B overwrote (antidependency).

The graph is a plain dict ``{uid: {successor uid: set of kinds}}`` with
every committed uid as a key; an ordered pair keeps every kind it carries
(a pair can be both ``ww`` and ``rw``).

A history is conflict-serializable iff this graph is acyclic — so the
graph is an *oracle*: run any workload under a TM system with a
:class:`~repro.sim.history.HistoryRecorder` attached and assert acyclicity
for the serializable systems (2PL, SONTM, SSI-TM, LogTM).  Plain SI-TM may
produce cycles (the write skews of section 5), but only cycles with two
adjacent ``rw`` edges: a history is SI iff ``(ww ∪ wr) ; rw?`` is acyclic
(Cerone and Gotsman's characterisation, restated by Raad, Lahav and
Vafeiadis; PAPERS.md), which :func:`si_violation` tests.  Both questions
are one depth-first search (:func:`find_cycle`); no cycle is enumerated.

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
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.common.errors import SkewToolError
from repro.sim.history import READ, WRITE, History, TxnRecord

READ_MODES = ("latest", "snapshot")
#: the kinds a step of ``(ww ∪ wr) ; rw?`` starts with
DEPENDENCIES = frozenset({"ww", "wr"})

Graph = Dict[int, Dict[int, Set[str]]]


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


def precedence_graph(history: History, read_mode: str = "latest") -> Graph:
    """The conflict graph over committed transactions."""
    if read_mode not in READ_MODES:
        raise SkewToolError(
            f"unknown read mode {read_mode!r}; expected one of {READ_MODES}")
    committed = history.committed()
    graph: Graph = {txn.uid: {} for txn in committed}
    by_addr = _committed_writers(history)

    # ww: writers of an address serialise in commit order
    for writers in by_addr.values():
        for (_, earlier), (_, later) in zip(writers, writers[1:]):
            graph[earlier].setdefault(later, set()).add("ww")

    for txn in committed:
        for addr, read_index in _read_events(history, txn):
            writers = by_addr.get(addr, [])
            if not writers:
                continue
            reference = (read_index if read_mode == "latest"
                         else txn.begin_index)
            position, writer_uid = _version_read(writers, reference)
            if writer_uid is not None and writer_uid != txn.uid:
                graph[writer_uid].setdefault(txn.uid, set()).add("wr")
            # antidependency to the next version's writer
            next_position = position + 1
            while next_position < len(writers) \
                    and writers[next_position][1] == txn.uid:
                next_position += 1
            if next_position < len(writers):
                graph[txn.uid].setdefault(
                    writers[next_position][1], set()).add("rw")
    return graph


def find_cycle(successors: Mapping[int, Iterable[int]]) -> Optional[List[int]]:
    """One cycle of ``successors`` (every node -> its successors) as the
    list of its nodes in order, or None.  Iterative, so a long dependency
    chain cannot exhaust the interpreter's recursion limit."""
    on_path: Dict[int, bool] = {}  # visited node -> still on the path
    for root in successors:
        if root in on_path:
            continue
        path, stack = [root], [iter(successors[root])]
        on_path[root] = True
        while stack:
            node = next(stack[-1], None)
            if node is None:
                stack.pop()
                on_path[path.pop()] = False
            elif node not in on_path:
                on_path[node] = True
                path.append(node)
                stack.append(iter(successors[node]))
            elif on_path[node]:
                return path[path.index(node):]
    return None


def is_conflict_serializable(history: History,
                             read_mode: str = "latest") -> bool:
    """True when the committed history has an acyclic conflict graph."""
    return find_cycle(precedence_graph(history, read_mode)) is None


def si_violation(history: History) -> Optional[List[Tuple[int, int, str]]]:
    """The ``(src, dst, kind)`` edges of a cycle SI forbids, or None.

    Under snapshot reads, a step of ``(ww ∪ wr) ; rw?`` is a ``ww`` or
    ``wr`` edge, optionally followed by one ``rw`` edge; a cycle of such
    steps is a graph cycle without two adjacent ``rw`` edges.
    ``steps[a][c]`` holds the edges of one step ``a -> c``, a direct one
    where there is one.
    """
    graph = precedence_graph(history, read_mode="snapshot")
    steps: Dict[int, Dict[int, Tuple[Tuple[int, int, str], ...]]] = {}
    for a, successors in graph.items():
        step = steps[a] = {}
        for b, kinds in successors.items():
            if kinds & DEPENDENCIES:
                first = (a, b, min(kinds & DEPENDENCIES))
                step[b] = (first,)
                for c, onward in graph[b].items():
                    if "rw" in onward:
                        step.setdefault(c, (first, (b, c, "rw")))
    cycle = find_cycle(steps)
    if cycle is None:
        return None
    return [edge for a, c in zip(cycle, cycle[1:] + cycle[:1])
            for edge in steps[a][c]]
