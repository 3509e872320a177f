"""Write-skew dependency-graph analysis (section 5.1, after Cahill [11]).

From a recorded :class:`~repro.sim.history.History` we build the *write-skew dependency graph*: vertices
are committed transactions; a directed edge ``R -> W`` exists when ``R``
transactionally read an address that concurrent transaction ``W``
transactionally wrote (a read-write antidependency between overlapping
transactions).  A **cycle** in this graph is the necessary condition for a
write skew; reporting cycles is safe but may include false positives,
exactly as the paper says.

The graph is a plain dict ``{reader uid: {writer uid: [(addr, read site),
...]}}``; a bounded depth-first search enumerates its short simple cycles
(write skews are short), and for each cycle we collect the *reads that
participate* — the paper's fix (read promotion) applies to precisely
those reads, attributed by their source site.  Deciding whether a history
is SI at all needs no enumeration: one search does it
(:func:`~repro.skew.serialization.si_violation`).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.sim.history import History, TxnRecord


@dataclass(frozen=True)
class SkewWitness:
    """One dependency cycle: a candidate write-skew anomaly."""

    #: transaction uids around the cycle, in order
    cycle: Tuple[int, ...]
    #: labels of the transactions involved (e.g. "list.remove")
    labels: Tuple[str, ...]
    #: source sites of the reads participating in the cycle's rw-edges
    read_sites: FrozenSet[str]
    #: addresses on which the cycle's rw-edges were formed
    addrs: FrozenSet[int]


@dataclass
class SkewReport:
    """Everything the tool found in one analysis pass."""

    witnesses: List[SkewWitness] = field(default_factory=list)
    committed: int = 0
    edges: int = 0

    @property
    def clean(self) -> bool:
        """True when no write-skew candidate was found."""
        return not self.witnesses

    def all_read_sites(self) -> Set[str]:
        """Union of read sites across all witnesses (promotion targets)."""
        sites: Set[str] = set()
        for witness in self.witnesses:
            sites |= witness.read_sites
        return sites

    def all_labels(self) -> Set[str]:
        """Transaction labels implicated in any witness."""
        labels: Set[str] = set()
        for witness in self.witnesses:
            labels |= set(witness.labels)
        return labels


def rw_antidependency_edges(history: History):
    """Yield (reader, writer, addr, read_site) antidependency edges.

    An edge reader ``rw->`` writer means the reader read an address that a
    *concurrent* committed transaction wrote.  Shared by the write-skew
    tool below and by the SSI dangerous-structure check in
    :mod:`repro.oracle.checker`.  Indexes writers by address first so the
    pass is near-linear in history size rather than quadratic in
    transactions.
    """
    committed = history.committed()
    writers_of: Dict[int, List[TxnRecord]] = defaultdict(list)
    for txn in committed:
        for addr in txn.write_addrs:
            writers_of[addr].append(txn)
    for reader in committed:
        own_writes = reader.write_addrs
        for addr, site in history.sites(reader.reads):
            for writer in writers_of.get(addr, ()):
                if writer.uid == reader.uid:
                    continue
                if addr in own_writes:
                    # write-write conflicts are detected by SI itself;
                    # both committing means they were not concurrent
                    continue
                if reader.concurrent_with(writer):
                    yield reader, writer, addr, site


def find_write_skews(history: History,
                     max_cycle_length: int = 6) -> SkewReport:
    """Analyse a history and report dependency cycles (skew witnesses).

    ``max_cycle_length`` bounds the cycle search: real write skews are
    short (the canonical anomaly is a 2-cycle); very long cycles are
    overwhelmingly false positives and expensive to enumerate.  Each
    simple cycle is found once, rooted at its least uid; cycles through
    the same transactions are reported once.
    """
    labels = {txn.uid: txn.label for txn in history.committed()}
    # reader uid -> writer uid -> [(addr, read site), ...]
    graph: Dict[int, Dict[int, List[Tuple[int, str]]]] = {
        uid: {} for uid in labels}
    for reader, writer, addr, site in rw_antidependency_edges(history):
        graph[reader.uid].setdefault(writer.uid, []).append((addr, site))
    report = SkewReport(committed=len(labels), edges=sum(
        len(pairs) for out in graph.values() for pairs in out.values()))

    def cycles_from(path: List[int]):
        for node in graph[path[-1]]:
            if node == path[0]:
                yield path
            elif (node > path[0] and node not in path
                  and len(path) < max_cycle_length):
                yield from cycles_from(path + [node])

    seen: Set[FrozenSet[int]] = set()
    for root in sorted(graph):
        for cycle in cycles_from([root]):
            key = frozenset(cycle)
            if key in seen:
                continue
            seen.add(key)
            pairs = [pair for src, dst in zip(cycle, cycle[1:] + cycle[:1])
                     for pair in graph[src][dst]]
            report.witnesses.append(SkewWitness(
                cycle=tuple(cycle),
                labels=tuple(labels[uid] for uid in cycle),
                read_sites=frozenset(site for _, site in pairs),
                addrs=frozenset(addr for addr, _ in pairs)))
    return report
