"""The write-skew detection and prevention tool (section 5.1).

A best-effort *dynamic* analyser: it executes a transactional program
under SI-TM across many seeds (schedules), records histories, builds the
dependency graph, and reports write-skew witnesses with source
attribution.  Like the paper's PIN-based tool it is not sound in the
"finds every skew" sense — quality grows with schedule coverage — but it
found every library anomaly within seconds in our runs, matching the
paper's experience ("the tool detected anomalies within minutes").

``fix()`` applies the paper's automatic remedy: **read promotion** for
every transactional read participating in a witness cycle.  Promoted
reads join commit validation (triggering an abort in the skew schedule)
but create no data version.  The returned site set plugs directly into
:class:`~repro.sim.engine.Engine` via ``promote_sites``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Set

from repro.common.errors import SkewToolError
from repro.common.rng import SplitRandom
from repro.sim.engine import Engine, TransactionSpec
from repro.sim.history import HistoryRecorder
from repro.sim.machine import Machine
from repro.skew.graph import SkewReport, find_write_skews
from repro.tm.sitm import SnapshotIsolationTM

#: builds one scenario: returns (machine, per-thread program lists)
ScenarioFactory = Callable[[SplitRandom], "Scenario"]


@dataclass
class Scenario:
    """One analysable configuration: a machine plus thread programs."""

    machine: Machine
    programs: Sequence[Sequence[TransactionSpec]]
    #: optional consistency oracle run after the schedule (True = healthy)
    check: Optional[Callable[[], bool]] = None


@dataclass
class ToolResult:
    """Aggregate result of a multi-schedule analysis."""

    schedules_run: int = 0
    reports: List[SkewReport] = field(default_factory=list)
    #: schedules whose post-run consistency oracle failed
    inconsistent_schedules: int = 0

    @property
    def witnesses(self) -> list:
        """All witnesses across schedules."""
        return [w for report in self.reports for w in report.witnesses]

    @property
    def clean(self) -> bool:
        """No witness in any schedule."""
        return not self.witnesses

    def read_sites(self) -> Set[str]:
        """Union of anomalous read sites (the promotion set)."""
        sites: Set[str] = set()
        for report in self.reports:
            sites |= report.all_read_sites()
        return sites

    def labels(self) -> Set[str]:
        """Transaction labels implicated in any witness."""
        labels: Set[str] = set()
        for report in self.reports:
            labels |= report.all_labels()
        return labels


class WriteSkewTool:
    """Multi-schedule dynamic write-skew analyser with automatic fixing."""

    def __init__(self, scenario_factory: ScenarioFactory,
                 schedules: int = 10, seed: int = 0,
                 promote_sites: Optional[Set[str]] = None):
        if schedules < 1:
            raise SkewToolError("need at least one schedule")
        self._factory = scenario_factory
        self._schedules = schedules
        self._root = SplitRandom(seed)
        self._promote_sites = set(promote_sites or ())

    def analyse(self) -> ToolResult:
        """Run all schedules under SI-TM, recording and analysing each."""
        result = ToolResult()
        for i in range(self._schedules):
            rng = self._root.split("schedule", i)
            scenario = self._factory(rng)
            tm = SnapshotIsolationTM(scenario.machine, rng.split("tm"))
            recorder = HistoryRecorder.for_system(tm)
            engine = Engine(tm, scenario.programs, tracer=recorder,
                            promote_sites=self._promote_sites)
            engine.run()
            result.schedules_run += 1
            result.reports.append(find_write_skews(recorder.history))
            if scenario.check is not None and not scenario.check():
                result.inconsistent_schedules += 1
        return result

    def fix(self, result: Optional[ToolResult] = None) -> Set[str]:
        """Compute the read-promotion set that removes the found skews.

        Returns the union of the current promotion set and every read site
        participating in a witness; pass it to the engine (or to a new
        :class:`WriteSkewTool`) to re-run with the fix applied.
        """
        if result is None:
            result = self.analyse()
        return self._promote_sites | result.read_sites()

    def verify_fix(self, promote_sites: Set[str]) -> ToolResult:
        """Re-analyse with promotions applied (fixed programs stay clean)."""
        fixed = WriteSkewTool(self._factory, self._schedules,
                              seed=0, promote_sites=promote_sites)
        fixed._root = self._root.split("verify")
        return fixed.analyse()
