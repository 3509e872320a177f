"""Static-style write-skew analysis of structure operations (section 5.1).

The paper cites Dias et al.'s static analysis (separation logic over
transactional programs) as sound but too expensive for large applications,
which motivated their dynamic tool.  This module provides the middle
ground for *library* code: it extracts the read/write footprint of each
transactional operation by driving the operation's generator against the
current committed state (recording accesses instead of applying
transactional semantics), then checks **operation pairs** for the write-
skew precondition:

    A reads something B writes,  B reads something A writes,
    and their write sets are disjoint.

Because footprints are extracted on concrete states, the analysis is
complete only for the states explored (like the dynamic tool, coverage
matters) — but it needs *no schedule exploration at all*: a single state
yields every pairwise skew candidate among the operations, which is how
it finds the Listing 2 list anomaly from one look at the list.

Typical use::

    analyzer = FootprintAnalyzer(machine)
    analyzer.add_operation("remove(2)", lambda: lst.remove(2))
    analyzer.add_operation("remove(3)", lambda: lst.remove(3))
    report = analyzer.analyse()
    report.candidates  # [SkewCandidate(ops=("remove(2)", "remove(3)"), ...)]
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Generator, List, Set, Tuple

from repro.common.errors import SkewToolError
from repro.sim.machine import Machine
from repro.tm.ops import ABORT, COMPUTE, READ, WRITE


@dataclass(frozen=True)
class Footprint:
    """Read/write address sets of one operation on one state."""

    name: str
    reads: FrozenSet[int]
    writes: FrozenSet[int]
    #: (address, source site) pairs for every read
    read_site_map: Tuple[Tuple[int, str], ...]

    @property
    def is_read_only(self) -> bool:
        return not self.writes

    def sites_of(self, addrs: FrozenSet[int]) -> FrozenSet[str]:
        """Source sites of the reads touching ``addrs``."""
        return frozenset(site for addr, site in self.read_site_map
                         if addr in addrs)


@dataclass(frozen=True)
class SkewCandidate:
    """A pair of operations satisfying the write-skew precondition."""

    ops: Tuple[str, str]
    #: addresses read by each side and written by the other
    crossing_addrs: FrozenSet[int]
    #: read sites involved (promotion targets)
    read_sites: FrozenSet[str]


@dataclass
class StaticReport:
    """All candidates found across the analysed states."""

    footprints: List[Footprint] = field(default_factory=list)
    candidates: List[SkewCandidate] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.candidates

    def promotion_sites(self) -> Set[str]:
        """Union of read sites across candidates (the static fix set)."""
        sites: Set[str] = set()
        for candidate in self.candidates:
            sites |= candidate.read_sites
        return sites


class FootprintAnalyzer:
    """Pairwise write-skew precondition checker over operation footprints."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self._operations: List[Tuple[str, Callable[[], Generator]]] = []

    def add_operation(self, name: str,
                      factory: Callable[[], Generator]) -> None:
        """Register one operation (a fresh-generator factory)."""
        self._operations.append((name, factory))

    def _footprint(self, name: str,
                   factory: Callable[[], Generator]) -> Footprint:
        """Drive the operation against committed state, recording accesses.

        Reads return the *current committed value* (so control flow takes
        the same path a real transaction would from this state); writes
        are recorded but NOT applied, keeping the state pristine for the
        other operations.
        """
        reads: Set[int] = set()
        writes: Set[int] = set()
        site_map: Set[Tuple[int, str]] = set()
        shadow: Dict[int, int] = {}
        gen = factory()
        try:
            op = next(gen)
            while True:
                try:
                    kind, addr, arg, _ = op
                except (TypeError, ValueError):
                    kind = None
                if kind is READ:
                    # (READ, addr, site, promote)
                    reads.add(addr)
                    site_map.add((addr, arg))
                    value = shadow.get(addr, self.machine.plain_load(addr))
                    op = gen.send(value)
                elif kind is WRITE:
                    # (WRITE, addr, value, site)
                    writes.add(addr)
                    shadow[addr] = arg
                    op = gen.send(None)
                elif kind is COMPUTE or kind is ABORT:
                    op = gen.send(None)
                else:
                    raise SkewToolError(f"unknown operation {op!r}")
        except StopIteration:
            pass
        return Footprint(name, frozenset(reads), frozenset(writes),
                         tuple(sorted(site_map)))

    def analyse(self) -> StaticReport:
        """Extract all footprints and test every operation pair."""
        if not self._operations:
            raise SkewToolError("no operations registered")
        report = StaticReport()
        footprints = [self._footprint(name, factory)
                      for name, factory in self._operations]
        report.footprints = footprints
        for i, a in enumerate(footprints):
            for b in footprints[i + 1:]:
                candidate = self._check_pair(a, b)
                if candidate is not None:
                    report.candidates.append(candidate)
        return report

    @staticmethod
    def _check_pair(a: Footprint, b: Footprint):
        """The write-skew precondition on a pair of footprints."""
        if a.is_read_only or b.is_read_only:
            return None  # a read-only side cannot complete a skew
        if a.writes & b.writes:
            return None  # overlapping writes: SI detects this itself
        a_reads_b = frozenset(a.reads & b.writes)
        b_reads_a = frozenset(b.reads & a.writes)
        if not a_reads_b or not b_reads_a:
            return None  # no cycle without both antidependencies
        return SkewCandidate(
            ops=(a.name, b.name),
            crossing_addrs=a_reads_b | b_reads_a,
            read_sites=a.sites_of(a_reads_b) | b.sites_of(b_reads_a))
