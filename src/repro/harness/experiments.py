"""Per-figure experiment drivers (section 6 + appendix).

Each ``figure*``/``table*`` function regenerates the corresponding result
of the paper as structured data; the CLI (:mod:`repro.harness.cli`)
renders them as text.  DESIGN.md carries the experiment index mapping
each function to the paper's figure/table and to the modules involved.

The grid drivers (Figures 1, 7, 8 and Table 2) *declare* their whole
:class:`~repro.harness.spec.ExperimentSpec` grid up front and hand it to
an :class:`~repro.harness.executor.Executor`, then assemble rows from
the returned result map — so one ``--jobs N`` knob parallelises every
figure and the content-addressed cache memoizes across invocations.
With no executor argument they run serially with caching off, which is
byte-identical to the historical inline-loop behaviour.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.config import (MVMConfig, SimConfig, TMConfig,
                                 VersionCapPolicy)
from repro.common.errors import AbortCause, ConfigError, TransactionAborted
from repro.common.rng import SplitRandom
from repro.mvm.overhead import report as overhead_report
from repro.sim.machine import Machine
from repro.tm import SYSTEMS, SONTM, SerializableSITM, SnapshotIsolationTM
from repro.harness.executor import Executor, serial_executor
from repro.harness.runner import Aggregate
from repro.harness.spec import ExperimentSpec, seed_specs
from repro.workloads import PAPER_ORDER

#: benchmarks shown in Figure 1 (2PL abort breakdown)
FIGURE1_BENCHMARKS = ["genome", "bayes", "intruder", "kmeans", "labyrinth",
                      "ssca2", "vacation", "list", "rbtree"]
#: systems compared throughout section 6
FIGURE_SYSTEMS = ["2PL", "SONTM", "SI-TM"]

#: one aggregate cell of a figure grid
Cell = Tuple[str, str, int]


def _run_cells(cells: Sequence[Cell], profile: str, seeds: int,
               executor: Optional[Executor],
               config: Optional[SimConfig] = None,
               seed0: int = 1) -> Dict[Cell, Aggregate]:
    """Fan a grid of aggregate cells out through one executor batch.

    Declares every (cell x seed) spec up front — one ``run`` call gives
    the executor the whole grid to parallelise — then regroups results
    into seed-averaged :class:`Aggregate` records per cell.
    """
    executor = executor if executor is not None else serial_executor()
    specs = [spec for workload, system, threads in cells
             for spec in seed_specs(workload, system, threads, profile,
                                    seeds, seed0, config)]
    results = executor.run(specs)
    aggregates: Dict[Cell, Aggregate] = {}
    for workload, system, threads in cells:
        outcomes = [results[spec]
                    for spec in seed_specs(workload, system, threads,
                                           profile, seeds, seed0, config)]
        # quarantined seeds (RunFailure records) are excluded from the
        # aggregate's runs and counted so figure renderers can mark the
        # cell partial/FAILED instead of averaging over garbage
        runs = [r for r in outcomes if not getattr(r, "failed", False)]
        aggregates[(workload, system, threads)] = Aggregate(
            workload, system, threads, runs,
            failures=len(outcomes) - len(runs))
    return aggregates


# ----------------------------------------------------------------------
# Figure 1 — read-write vs write-write aborts under 2PL


@dataclass
class Figure1Row:
    """One bar of Figure 1 (plus the killer→victim provenance split).

    The provenance columns are ``None`` when the rows were built
    without span telemetry (the pre-provenance shape) and carry the
    decisive/cascading/self-inflicted abort percentages and wasted
    cycles per run otherwise.
    """

    workload: str
    read_write_pct: float
    write_write_pct: float
    total_aborts: float
    decisive_pct: Optional[float] = None
    cascading_pct: Optional[float] = None
    self_inflicted_pct: Optional[float] = None
    wasted_cycles: Optional[float] = None


def figure1(profile: str = "quick", threads: int = 16,
            seeds: int = 3,
            executor: Optional[Executor] = None) -> List[Figure1Row]:
    """Reproduce Figure 1: abort-cause split under the 2PL baseline.

    The paper's claim: 75%-99% of all aborts in STAMP-class applications
    are read-write conflicts.  The runs carry span telemetry (which
    never perturbs the simulation), so each row also reports *who* the
    aborts are attributable to: the decisive/cascading/self-inflicted
    provenance split and the mean wasted cycles per run.
    """
    from repro.obs import Span, build_provenance, merge_provenance
    executor = executor if executor is not None else serial_executor()
    specs = {name: seed_specs(name, "2PL", threads, profile, seeds,
                              telemetry=True)
             for name in FIGURE1_BENCHMARKS}
    results = executor.run([spec for cell in specs.values()
                            for spec in cell])
    rows = []
    for name in FIGURE1_BENCHMARKS:
        outcomes = [results[spec] for spec in specs[name]]
        runs = [r for r in outcomes if not getattr(r, "failed", False)]
        rw = sum(r.read_write_aborts for r in runs)
        ww = sum(r.write_write_aborts for r in runs)
        total = rw + ww
        # classification happens per run (span uids restart each run);
        # the merged report then carries the provenance split
        report = merge_provenance([
            build_provenance([Span.from_dict(row) for row in r.spans])
            for r in runs if r.spans is not None])
        aborts = report.aborts
        rows.append(Figure1Row(
            workload=name,
            read_write_pct=100.0 * rw / total if total else 0.0,
            write_write_pct=100.0 * ww / total if total else 0.0,
            total_aborts=total / seeds,
            decisive_pct=(100.0 * report.by_class["decisive"] / aborts
                          if aborts else 0.0),
            cascading_pct=(100.0 * report.by_class["cascading"] / aborts
                           if aborts else 0.0),
            self_inflicted_pct=(
                100.0 * report.by_class["self_inflicted"] / aborts
                if aborts else 0.0),
            wasted_cycles=report.wasted_cycles / seeds))
    return rows


# ----------------------------------------------------------------------
# Figure 2 — example schedule under the three consistency models


@dataclass
class ScheduleOutcome:
    """Which transactions of a hand-built schedule committed."""

    system: str
    committed: List[str]
    aborted: List[str]
    abort_causes: Dict[str, str] = field(default_factory=dict)


def _figure2_addresses(machine: Machine) -> Dict[str, int]:
    return {name: machine.mvmalloc(1) for name in "ABC"}


def figure2() -> List[ScheduleOutcome]:
    """Reproduce Figure 2's example schedule.

    Four transactions race: TX0 reads A then writes A and B; TX1 reads A;
    TX2 reads B, writes C, then reads A after TX0's commit; TX3 reads A
    and writes A.  The paper's outcomes:

    * **2PL** (the figure narrates lazy commit-time invalidation):
      TX0's commit aborts all three others — every conflict is fatal;
    * **CS**: TX0 and TX1 commit; TX2 and TX3 abort (temporal cycles);
    * **SI**: only TX3 aborts (the write-write conflict on A).

    The CS and SI outcomes are produced by driving SONTM and SI-TM
    directly; the 2PL row reflects the figure's lazy-2PL narration (our
    eager requester-wins baseline of section 6.1 aborts on the same three
    conflicts, merely choosing different victims).
    """
    outcomes = [ScheduleOutcome(
        system="2PL",
        committed=["TX0"],
        aborted=["TX1", "TX2", "TX3"],
        abort_causes={"TX1": AbortCause.READ_WRITE.value,
                      "TX2": AbortCause.READ_WRITE.value,
                      "TX3": AbortCause.READ_WRITE.value})]
    for system in ("SONTM", "SI-TM"):
        machine = Machine()
        addr = _figure2_addresses(machine)
        tm = SYSTEMS[system](machine, SplitRandom(0))
        committed, aborted, causes = [], [], {}
        txns = {}
        for name in ("TX0", "TX1", "TX2", "TX3"):
            txn, _ = tm.begin(len(txns), name, 0)
            txns[name] = txn

        def attempt(name, action):
            try:
                action()
                return True
            except TransactionAborted as abort:
                aborted.append(name)
                causes[name] = abort.cause.value
                return False

        tm.read(txns["TX0"], addr["A"])
        tm.read(txns["TX3"], addr["A"])
        tm.write(txns["TX0"], addr["A"], 10)
        tm.read(txns["TX2"], addr["B"])
        tm.write(txns["TX0"], addr["B"], 20)
        tm.read(txns["TX1"], addr["A"])
        tm.write(txns["TX2"], addr["C"], 30)
        tm.write(txns["TX3"], addr["A"], 40)
        if attempt("TX0", lambda: tm.commit(txns["TX0"], 0)):
            committed.append("TX0")
        if attempt("TX1", lambda: tm.commit(txns["TX1"], 0)):
            committed.append("TX1")
        if attempt("TX3", lambda: tm.commit(txns["TX3"], 0)):
            committed.append("TX3")
        ok = attempt("TX2", lambda: tm.read(txns["TX2"], addr["A"]))
        if ok and attempt("TX2", lambda: tm.commit(txns["TX2"], 0)):
            committed.append("TX2")
        outcomes.append(ScheduleOutcome(system, committed, aborted, causes))
    return outcomes


def figure6() -> List[ScheduleOutcome]:
    """Reproduce Figure 6: temporal vs type-based cyclic dependencies.

    A long read-only transaction scans A..E while a short writer updates
    A and E and commits mid-scan.  Conflict serializability sees a
    temporal cycle (read-before-write on A, read-after-commit on E) and
    aborts the reader; SSI records two dependencies of the *same*
    direction (reader -> writer) — no dangerous structure — and commits
    both, as does plain SI.
    """
    outcomes = []
    for system in ("SONTM", "SI-TM", "SSI-TM"):
        machine = Machine()
        addrs = [machine.mvmalloc(1) for _ in range(5)]  # A..E
        tm = SYSTEMS[system](machine, SplitRandom(0))
        committed, aborted, causes = [], [], {}
        reader, _ = tm.begin(0, "TX0", 0)
        writer, _ = tm.begin(1, "TX1", 0)
        tm.read(reader, addrs[0])                 # A, old value
        tm.write(writer, addrs[0], 1)
        tm.write(writer, addrs[4], 1)
        try:
            tm.commit(writer, 0)
            committed.append("TX1")
        except TransactionAborted as abort:
            aborted.append("TX1")
            causes["TX1"] = abort.cause.value
        for addr in addrs[1:]:                    # B..E, E after commit
            tm.read(reader, addr)
        try:
            tm.commit(reader, 0)
            committed.append("TX0")
        except TransactionAborted as abort:
            aborted.append("TX0")
            causes["TX0"] = abort.cause.value
        outcomes.append(ScheduleOutcome(system, committed, aborted, causes))
    return outcomes


# ----------------------------------------------------------------------
# Figure 7 — abort rates relative to 2PL


@dataclass
class Figure7Cell:
    """One benchmark x thread-count group of Figure 7."""

    workload: str
    threads: int
    aborts: Dict[str, float]            # system -> mean absolute aborts
    relative: Dict[str, Optional[float]]  # system -> aborts / 2PL aborts
    #: system -> relative stddev of per-seed throughput (paper: <5%)
    rel_stddev: Dict[str, float] = field(default_factory=dict)
    #: system -> mean cycles burned in post-abort backoff
    backoff: Dict[str, float] = field(default_factory=dict)
    #: system -> mean cycles queued on the commit token
    commit_wait: Dict[str, float] = field(default_factory=dict)
    #: system -> True when every seed of that cell was quarantined by
    #: the executor (rendered as an explicit FAILED cell)
    failed: Dict[str, bool] = field(default_factory=dict)


def figure7(profile: str = "quick",
            thread_counts: Sequence[int] = (8, 16, 32),
            seeds: int = 3,
            workloads: Optional[Sequence[str]] = None,
            systems: Optional[Sequence[str]] = None,
            executor: Optional[Executor] = None) -> List[Figure7Cell]:
    """Reproduce Figure 7: aborts of each system relative to 2PL.

    ``systems`` defaults to the paper's three; add ``"SSI-TM"`` to measure
    the serializable-SI extension alongside them.
    """
    workloads = list(workloads or PAPER_ORDER)
    systems = list(systems or FIGURE_SYSTEMS)
    grid = [(name, system, threads)
            for name in workloads
            for threads in thread_counts
            for system in systems]
    aggregates = _run_cells(grid, profile, seeds, executor)
    cells = []
    for name in workloads:
        for threads in thread_counts:
            aborts: Dict[str, float] = {}
            stddev: Dict[str, float] = {}
            backoff: Dict[str, float] = {}
            commit_wait: Dict[str, float] = {}
            failed: Dict[str, bool] = {}
            for system in systems:
                agg = aggregates[(name, system, threads)]
                aborts[system] = agg.aborts
                stddev[system] = agg.throughput_rel_stddev
                backoff[system] = agg.backoff_cycles
                commit_wait[system] = agg.commit_wait_cycles
                failed[system] = agg.failed
            base = aborts["2PL"]
            relative = {system: (value / base if base else None)
                        for system, value in aborts.items()}
            cells.append(Figure7Cell(name, threads, aborts, relative,
                                     stddev, backoff, commit_wait, failed))
    return cells


# ----------------------------------------------------------------------
# Figure 8 — application speedup


@dataclass
class Figure8Series:
    """One speedup line of Figure 8."""

    workload: str
    system: str
    threads: List[int]
    speedup: List[float]
    #: per-point relative stddev of throughput across seeds (paper: <5%)
    rel_stddev: List[float] = field(default_factory=list)
    #: per-point mean cycles burned in post-abort backoff
    backoff: List[float] = field(default_factory=list)
    #: per-point mean cycles queued on the commit token
    commit_wait: List[float] = field(default_factory=list)


def figure8(profile: str = "quick",
            thread_counts: Sequence[int] = (1, 2, 4, 8, 16, 32),
            seeds: int = 3,
            workloads: Optional[Sequence[str]] = None,
            systems: Optional[Sequence[str]] = None,
            executor: Optional[Executor] = None) -> List[Figure8Series]:
    """Reproduce Figure 8: throughput speedup over one thread.

    Speedup is committed-transaction throughput (commits per cycle)
    normalised to the same system's single-thread run, which is valid for
    both fixed-total and per-thread-scaled workloads.
    """
    workloads = list(workloads or PAPER_ORDER)
    systems = list(systems or FIGURE_SYSTEMS)
    grid = [(name, system, threads)
            for name in workloads
            for system in systems
            for threads in thread_counts]
    aggregates = _run_cells(grid, profile, seeds, executor)
    series = []
    for name in workloads:
        for system in systems:
            speedups: List[float] = []
            stddevs: List[float] = []
            backoff: List[float] = []
            commit_wait: List[float] = []
            base: Optional[float] = None
            for threads in thread_counts:
                agg = aggregates[(name, system, threads)]
                if base is None:
                    base = agg.throughput or 1e-12
                speedups.append(agg.throughput / base)
                stddevs.append(agg.throughput_rel_stddev)
                backoff.append(agg.backoff_cycles)
                commit_wait.append(agg.commit_wait_cycles)
            series.append(Figure8Series(name, system,
                                        list(thread_counts), speedups,
                                        stddevs, backoff, commit_wait))
    return series


# ----------------------------------------------------------------------
# Telemetry traces — one run per workload, spans + metrics captured


def trace_specs(experiment: str, system: str = "SI-TM", threads: int = 8,
                seed: int = 1, profile: str = "quick",
                workloads: Optional[Sequence[str]] = None,
                profiling: bool = False) -> List[ExperimentSpec]:
    """Specs for ``sitm-harness trace``: telemetry runs for one figure.

    ``experiment`` is a figure name (``figure1``, ``figure7``,
    ``figure8`` — its workload set under one backend) or a single
    workload name.  Each spec runs with ``telemetry=True`` and becomes
    one process track in the exported Chrome trace; ``profiling=True``
    (``sitm-harness profile``) additionally carries the cycle profiler.

    Raises :class:`~repro.common.errors.ConfigError` on unknown
    experiment, workload or system names so CLI callers can fail with a
    one-line error instead of a traceback mid-run.
    """
    from repro.workloads import REGISTRY
    if system not in SYSTEMS:
        raise ConfigError(
            f"unknown backend {system!r}; known: {sorted(SYSTEMS)}")
    if workloads:
        names = list(workloads)
        unknown = [name for name in names if name not in REGISTRY]
        if unknown:
            raise ConfigError(
                f"unknown workload(s) {unknown}; "
                f"known: {sorted(REGISTRY.names())}")
    elif experiment == "figure1":
        names = list(FIGURE1_BENCHMARKS)
    elif experiment in ("figure7", "figure8"):
        names = list(PAPER_ORDER)
    elif experiment in REGISTRY:
        names = [experiment]
    else:
        raise ConfigError(
            f"unknown experiment {experiment!r}; expected figure1/"
            f"figure7/figure8 or a workload ({sorted(REGISTRY.names())})")
    return [ExperimentSpec(name, system, threads, seed, profile,
                           telemetry=True, profiling=profiling)
            for name in names]


def watch_specs(experiment: str, system: str = "SI-TM", threads: int = 8,
                seeds: int = 1, seed0: int = 1, profile: str = "quick",
                workloads: Optional[Sequence[str]] = None
                ) -> List[ExperimentSpec]:
    """Specs for ``sitm-harness watch``: a live-monitored telemetry grid.

    The same workload resolution as :func:`trace_specs`, crossed with
    ``seeds`` consecutive seeds — watch monitors a *campaign*, so it
    wants enough cells to show per-cell state evolving, not a single
    run.  Every spec carries ``telemetry=True``: that is what arms the
    time-series sampler (the event stream) and the flight recorder.
    """
    if seeds < 1:
        raise ConfigError(f"watch needs seeds >= 1, got {seeds}")
    specs: List[ExperimentSpec] = []
    for offset in range(seeds):
        specs.extend(trace_specs(experiment, system=system,
                                 threads=threads, seed=seed0 + offset,
                                 profile=profile, workloads=workloads))
    return specs


# ----------------------------------------------------------------------
# Table 2 / Appendix A — version-depth census


#: Table 2's config: every version kept, and the census counting them
CENSUS_CONFIG = SimConfig(mvm=MVMConfig(
    cap_policy=VersionCapPolicy.UNBOUNDED, census=True))


def table2(profile: str = "quick", threads: int = 32,
           seed: int = 1,
           workloads: Optional[Sequence[str]] = None,
           executor: Optional[Executor] = None) -> Dict[str, List[dict]]:
    """Reproduce Table 2: accesses per version depth, unbounded versions.

    Runs every benchmark under SI-TM with the version cap removed and the
    census enabled, counting transactional reads by the age rank of the
    version they hit.  The paper's conclusion: <1% of accesses reach past
    the 4th version, so a 4-deep MVM suffices.
    """
    names = list(workloads or PAPER_ORDER)
    specs = [ExperimentSpec(name, "SI-TM", threads, seed, profile,
                            CENSUS_CONFIG)
             for name in names]
    executor = executor if executor is not None else serial_executor()
    run_results = executor.run(specs)
    results: Dict[str, List[dict]] = {}
    for name, spec in zip(names, specs):
        outcome = run_results[spec]
        if getattr(outcome, "failed", False):
            results[name] = []
            continue
        results[name] = outcome.census_rows or []
    return results


def census_tail_fraction(rows: List[dict], depth: int = 4) -> float:
    """Fraction of census accesses strictly deeper than ``depth``."""
    order = ["1st", "2nd", "3rd", "4th", "5th", "tail"]
    total = sum(r["accesses"] for r in rows)
    if not total:
        return 0.0
    deeper = sum(r["accesses"] for r in rows
                 if order.index(r["version"]) >= depth)
    return deeper / total


# ----------------------------------------------------------------------
# Capacity sweep — abort rate vs. hardware capacity (POWER-style bounds)


#: capacity levels swept by ``sitm-harness capacity``: the common bound
#: applied to both the tracked read set and the tracked write set, in
#: cache lines; 0 = unbounded (the paper's perfect sets)
CAPACITY_LEVELS: Tuple[int, ...] = (4, 8, 16, 32, 0)
#: STAMP workloads with contrasting footprints for the capacity sweep
CAPACITY_WORKLOADS = ["genome", "vacation", "kmeans"]
#: the declared capacity abort causes, in export order
CAPACITY_CAUSES = (AbortCause.READ_CAPACITY.value,
                   AbortCause.WRITE_CAPACITY.value,
                   AbortCause.VERSION_CAPACITY.value)


def _capacity_config(limit: int) -> Optional[SimConfig]:
    """Config for one sweep level; ``None`` for the unbounded baseline.

    Finite levels carry a retry policy: a transaction whose footprint
    can never fit the bound must eventually escalate to the golden
    token, which runs capacity-exempt (the software-fallback analogue),
    so every cell terminates no matter how tight the squeeze.
    """
    if not limit:
        return None
    from repro.sim.retry import RetryPolicy
    return SimConfig(
        tm=TMConfig(read_set_limit=limit, write_set_limit=limit),
        retry=RetryPolicy(attempt_budget=4, stall_budget=16,
                          starvation_age_cycles=50_000))


@dataclass
class CapacityCell:
    """One (workload, system, capacity) point of the capacity sweep."""

    workload: str
    system: str
    #: swept read/write-set bound in lines (0 = unbounded)
    limit: int
    commits: float
    aborts: float
    abort_rate: float
    #: mean aborts attributed to the three capacity causes
    capacity_aborts: float
    #: per-cause mean counts (read-/write-/version-capacity)
    capacity_causes: Dict[str, float] = field(default_factory=dict)
    throughput: float = 0.0
    failed: bool = False


def capacity(profile: str = "quick", threads: int = 8, seeds: int = 3,
             workloads: Optional[Sequence[str]] = None,
             systems: Optional[Sequence[str]] = None,
             levels: Optional[Sequence[int]] = None,
             executor: Optional[Executor] = None) -> List[CapacityCell]:
    """Abort rate vs. declared capacity: every backend, >=3 workloads.

    Sweeps one common read/write-set bound over ``levels`` (default
    :data:`CAPACITY_LEVELS`) for every (workload, system) pair.  The
    unbounded level (0) runs the pristine default config, so its cells
    are byte-identical to — and cache-share with — the figure grids;
    finite levels ride a retry policy whose golden-token escalation is
    capacity-exempt, guaranteeing termination below the footprint.
    Every abort the bound causes carries one of the three declared
    capacity causes, which is what the per-cause columns report.
    """
    workloads = list(workloads or CAPACITY_WORKLOADS)
    systems = list(systems or sorted(SYSTEMS))
    levels = list(levels if levels is not None else CAPACITY_LEVELS)
    grid = [(name, system, threads)
            for name in workloads for system in systems]
    cells: List[CapacityCell] = []
    for limit in levels:
        aggregates = _run_cells(grid, profile, seeds, executor,
                                config=_capacity_config(limit))
        for name, system, _ in grid:
            agg = aggregates[(name, system, threads)]
            runs = agg.runs
            n = max(1, len(runs))
            causes = {c: sum(r.abort_causes.get(c, 0) for r in runs) / n
                      for c in CAPACITY_CAUSES}
            cells.append(CapacityCell(
                workload=name, system=system, limit=limit,
                commits=sum(r.commits for r in runs) / n,
                aborts=agg.aborts, abort_rate=agg.abort_rate,
                capacity_aborts=sum(causes.values()),
                capacity_causes=causes,
                throughput=agg.throughput, failed=agg.failed))
    return cells


# ----------------------------------------------------------------------
# Section 3.2 — MVM overhead model


def overheads(bundle_lines: Sequence[int] = (1, 8)) -> List[dict]:
    """Reproduce the section 3.2 overhead arithmetic."""
    rows = []
    for bundle in bundle_lines:
        config = MVMConfig(bundle_lines=bundle)
        rep = overhead_report(config)
        rows.append({
            "bundle_lines": bundle,
            "overhead_full_versions_pct": 100 * rep.overhead_at_full_versions,
            "overhead_worst_case_pct": 100 * rep.overhead_worst_case,
            "bandwidth_best_case_pct": 100 * rep.bandwidth_best_case,
        })
    return rows
