"""Write-skew dependency-graph analysis (section 5.1, after Cahill [11]).

From a recorded :class:`~repro.sim.history.History` we build the *write-skew dependency graph*: vertices
are committed transactions; a directed edge ``R -> W`` exists when ``R``
transactionally read an address that concurrent transaction ``W``
transactionally wrote (a read-write antidependency between overlapping
transactions).  A **cycle** in this graph is the necessary condition for a
write skew; reporting cycles is safe but may include false positives,
exactly as the paper says.

Cycle enumeration uses :mod:`networkx` simple-cycle search on the (small)
committed-transaction graph; for each cycle we collect the *reads that
participate* — the paper's fix (read promotion) applies to precisely
those reads, attributed by their source site.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Set, Tuple

from repro.sim.history import History, TxnRecord

if TYPE_CHECKING:  # at run time, where a graph is built (serialization.py)
    import networkx as nx


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


def build_graph(history: History) -> "nx.MultiDiGraph":
    """Build the write-skew dependency graph from a history."""
    import networkx as nx
    graph = nx.MultiDiGraph()
    for txn in history.committed():
        graph.add_node(txn.uid, label=txn.label)
    for reader, writer, addr, site in rw_antidependency_edges(history):
        graph.add_edge(reader.uid, writer.uid, addr=addr, site=site)
    return graph


def find_write_skews(history: History,
                     max_cycle_length: int = 6) -> SkewReport:
    """Analyse a history and report dependency cycles (skew witnesses).

    ``max_cycle_length`` bounds the cycle search: real write skews are
    short (the canonical anomaly is a 2-cycle); very long cycles are
    overwhelmingly false positives and expensive to enumerate.
    """
    import networkx as nx
    graph = build_graph(history)
    report = SkewReport(committed=graph.number_of_nodes(),
                        edges=graph.number_of_edges())
    seen: Set[FrozenSet[int]] = set()
    for cycle in nx.simple_cycles(nx.DiGraph(graph)):
        if len(cycle) > max_cycle_length:
            continue
        key = frozenset(cycle)
        if key in seen:
            continue
        seen.add(key)
        sites: Set[str] = set()
        addrs: Set[int] = set()
        ring = list(cycle) + [cycle[0]]
        for src, dst in zip(ring, ring[1:]):
            if graph.has_edge(src, dst):
                for _, data in graph[src][dst].items():
                    sites.add(data["site"])
                    addrs.add(data["addr"])
        labels = tuple(graph.nodes[uid]["label"] for uid in cycle)
        report.witnesses.append(SkewWitness(
            cycle=tuple(cycle), labels=labels,
            read_sites=frozenset(sites), addrs=frozenset(addrs)))
    return report
