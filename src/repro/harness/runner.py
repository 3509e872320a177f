"""Experiment runner: one simulation = (workload, system, threads, seed).

The runner owns machine construction (applying per-experiment MVM/TM
configuration such as the unbounded-version census mode), engine
execution, and aggregation across seeds.  The paper averages every
measurement over :data:`PAPER_SEEDS` (5) runs with different random
seeds and reports <5% standard deviation; :func:`run_seeds` reproduces
that protocol, defaulting to :data:`DEFAULT_SEEDS` (3) so quick runs
stay CI-friendly — pass ``seeds=PAPER_SEEDS`` (CLI: ``--seeds 5``) for
the paper-faithful protocol.  :class:`Aggregate` exposes the relative
standard deviation so the <5% claim is checkable.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.common.config import SimConfig
from repro.common.errors import CAUSE_VALUES, ConfigError, SimulationError
from repro.common.rng import SplitRandom, derive_seed
from repro.sim.engine import Engine
from repro.sim.machine import Machine
from repro.sim.stats import RunStats
from repro.tm import SYSTEMS
from repro.workloads import REGISTRY

if TYPE_CHECKING:
    from repro.obs.spans import Span

#: seeds per cell in the paper's measurement protocol (section 6.1)
PAPER_SEEDS = 5
#: default seeds per cell for quick/CI runs
DEFAULT_SEEDS = 3


@dataclass
class RunResult:
    """Outcome of one simulation run."""

    workload: str
    system: str
    threads: int
    seed: int
    commits: int
    aborts: int
    abort_rate: float
    read_write_aborts: int
    write_write_aborts: int
    makespan_cycles: int
    reads: int
    writes: int
    verified: Optional[bool]
    mvm_stats: Dict[str, int] = field(default_factory=dict)
    census_rows: Optional[List[dict]] = None
    abort_causes: Dict[str, int] = field(default_factory=dict)
    #: cycles spent in post-abort exponential backoff (summed over threads)
    backoff_cycles: int = 0
    #: cycles spent queued on the commit token (summed over threads)
    commit_wait_cycles: int = 0
    #: telemetry-only payloads (None when the spec ran without telemetry):
    #: the canonical metrics snapshot (JSON-safe) and the span recorder's
    #: own per-attempt :class:`~repro.obs.spans.Span` objects, which
    #: :meth:`to_dict` emits as the canonical span dicts
    metrics: Optional[dict] = None
    spans: Optional[List[Span]] = None
    #: telemetry-only payload (None when the spec ran without
    #: telemetry): the windowed time-series export of
    #: :class:`repro.obs.live.TimeSeriesSampler` — exact window
    #: aggregates plus any online anomaly alerts, JSON-safe
    timeseries: Optional[dict] = None
    #: profiling-only payload (None when the spec ran without
    #: profiling): the conservation-checked cycle-attribution snapshot
    #: (:meth:`repro.obs.profile.CycleProfiler.snapshot`)
    phases: Optional[dict] = None
    #: starving transactions escalated to serial golden-token mode by
    #: the engine's retry policy (0 when no policy was configured)
    escalations: int = 0
    #: highest attempt count any single transaction needed (the
    #: starvation watermark; 1 = everything committed first try)
    max_attempts_seen: int = 0
    #: fault-injector summary (None when the config carried no active
    #: :class:`~repro.faults.FaultPlan`): per-site injection counts
    fault_stats: Optional[dict] = None

    @property
    def throughput(self) -> float:
        """Committed transactions per megacycle (Figure 8's metric)."""
        if self.makespan_cycles == 0:
            return 0.0
        return self.commits / (self.makespan_cycles / 1e6)

    def to_dict(self) -> dict:
        """Shallow JSON-safe dict: run_once builds every value fresh, and
        the spans are emitted as their canonical dicts."""
        data = dict(vars(self))
        if self.spans is not None:
            from repro.obs.spans import span_dicts
            data["spans"] = span_dicts(self.spans)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunResult":
        """Inverse of :meth:`to_dict`; rejects unknown fields."""
        if data.get("spans") is not None:
            from repro.obs.spans import Span
            data = dict(data, spans=[Span.from_dict(row)
                                     for row in data["spans"]])
        return cls(**data)


@dataclass
class Aggregate:
    """Seed-averaged metrics for one (workload, system, threads) cell.

    Under the crash-tolerant executor a cell may complete with fewer
    seeds than requested: quarantined specs surface as
    :class:`~repro.harness.executor.RunFailure` records, counted in
    ``failures`` and excluded from ``runs``.  Every mean guards against
    the all-seeds-failed case (``runs`` empty) so partial grids still
    render — with FAILED cells — instead of dividing by zero.
    """

    workload: str
    system: str
    threads: int
    runs: List[RunResult]
    #: seeds whose runs were quarantined by the executor (crash,
    #: timeout, or in-run error); > 0 marks this cell as partial
    failures: int = 0

    def _mean(self, value: Callable[[RunResult], float]) -> float:
        """Mean of ``value(run)`` across seeds (0.0 when none ran)."""
        if not self.runs:
            return 0.0
        return sum(value(r) for r in self.runs) / len(self.runs)

    @property
    def failed(self) -> bool:
        """True when no seed of this cell produced a result."""
        return not self.runs

    @property
    def abort_rate(self) -> float:
        """Mean abort rate across seeds."""
        return self._mean(lambda r: r.abort_rate)

    @property
    def aborts(self) -> float:
        """Mean absolute abort count across seeds."""
        return self._mean(lambda r: r.aborts)

    @property
    def throughput(self) -> float:
        """Mean commits-per-megacycle across seeds."""
        return self._mean(lambda r: r.throughput)

    @property
    def makespan(self) -> float:
        """Mean makespan cycles across seeds."""
        return self._mean(lambda r: r.makespan_cycles)

    @property
    def throughput_stddev(self) -> float:
        """Population standard deviation of per-seed throughput.

        The paper reports <5% standard deviation across its 5-seed
        averages; this (with :attr:`throughput_rel_stddev`) makes that
        protocol claim checkable on our reproduction.
        """
        mean = self.throughput
        return math.sqrt(self._mean(lambda r: (r.throughput - mean) ** 2))

    @property
    def throughput_rel_stddev(self) -> float:
        """Throughput stddev as a fraction of the mean (0 when mean is 0)."""
        mean = self.throughput
        return self.throughput_stddev / mean if mean else 0.0

    @property
    def backoff_cycles(self) -> float:
        """Mean cycles burned in post-abort backoff across seeds."""
        return self._mean(lambda r: r.backoff_cycles)

    @property
    def commit_wait_cycles(self) -> float:
        """Mean cycles spent queued on the commit token across seeds."""
        return self._mean(lambda r: r.commit_wait_cycles)

    @property
    def read_write_fraction(self) -> Optional[float]:
        """Fraction of conflict aborts that are read-write (Figure 1)."""
        rw = sum(r.read_write_aborts for r in self.runs)
        ww = sum(r.write_write_aborts for r in self.runs)
        return rw / (rw + ww) if rw + ww else None

    @property
    def all_verified(self) -> bool:
        """All seeds passed the workload's consistency check (or had none)."""
        return all(r.verified in (None, True) for r in self.runs)


def run_once(workload: str, system: str, threads: int, seed: int,
             profile: str = "quick",
             config: Optional[SimConfig] = None,
             telemetry: bool = False,
             profiling: bool = False,
             flight_path=None,
             window_cycles: Optional[int] = None) -> RunResult:
    """Run one simulation and collect its statistics.

    With ``telemetry=True`` the run carries a :class:`~repro.obs.metrics.
    MetricsRegistry` (wired into the machine, MVM, and TM hot paths), a
    :class:`~repro.obs.spans.SpanRecorder` and a
    :class:`~repro.obs.live.TimeSeriesSampler` in the engine's tracer
    slot; the result then includes the canonical metrics snapshot, the
    per-attempt span dicts and the windowed time-series export
    (``window_cycles`` overrides the sampler's window width).
    ``flight_path`` (telemetry runs only) additionally arms a
    :class:`~repro.obs.flight.FlightRecorder` at that path: discarded
    on a clean finish, dumped — and left on disk — when the run dies
    of a :class:`~repro.common.errors.SimulationError` (including the
    engine watchdog) or of anything harsher the recorder's periodic
    persists already covered.  With ``profiling=True`` a
    :class:`~repro.obs.profile.CycleProfiler` rides in the same tracer
    slot (composed via ``MultiTracer``).  None of these perturb the
    simulation — schedules and statistics are identical either way —
    so cached results from plain runs stay valid.
    """
    if system not in SYSTEMS:
        raise ConfigError(f"unknown system {system!r}; known: {sorted(SYSTEMS)}")
    config = config or SimConfig()
    if threads > config.machine.cores:
        config = config.replace(
            machine=dataclasses.replace(config.machine, cores=threads))
    machine = Machine(config)
    registry = recorder = profiler = sampler = flight = None
    if telemetry:
        from repro.obs import (MetricsRegistry, SpanRecorder,
                               TimeSeriesSampler)
        from repro.obs.live import DEFAULT_WINDOW_CYCLES
        registry = MetricsRegistry()
        recorder = SpanRecorder()
        machine.enable_telemetry(registry)
        sampler = TimeSeriesSampler(
            window_cycles=window_cycles or DEFAULT_WINDOW_CYCLES)
        if flight_path is not None:
            from repro.obs import FlightRecorder
            from repro.obs.live import context
            flight = FlightRecorder(flight_path, context=context())
            sampler.flight = flight
            flight.start()
    if profiling:
        from repro.obs import CycleProfiler
        profiler = CycleProfiler()
    parts = [t for t in (recorder, sampler, profiler) if t is not None]
    if len(parts) > 1:
        from repro.obs import MultiTracer
        tracer = MultiTracer(*parts)
    else:
        tracer = parts[0] if parts else None
    rng = SplitRandom(derive_seed(seed, workload, system, threads))
    bench = REGISTRY.create(workload, profile=profile)
    instance = bench.setup(machine, threads, rng.split("workload"))
    tm = SYSTEMS[system](machine, rng.split("tm"))
    engine = Engine(tm, instance.programs, tracer=tracer)
    try:
        stats: RunStats = engine.run()
    except SimulationError as exc:
        # the run's last moments are already in the sampler/recorder:
        # flush what closed and leave the flight artifact for the
        # executor to attach to this spec's RunFailure cell
        if sampler is not None:
            sampler.finish()
        if flight is not None:
            flight.dump(reason=str(exc).splitlines()[0])
        raise
    verified = instance.verify() if instance.verify is not None else None
    census_rows = (machine.mvm.census.rows()
                   if machine.mvm.census is not None else None)
    metrics_snapshot = spans = phases = timeseries = None
    if telemetry:
        from repro.obs import (collect_run_metrics,
                               record_provenance_metrics,
                               record_span_metrics)
        collect_run_metrics(registry, machine, tm, stats)
        # end-of-run folds: killer outcomes are only knowable once every
        # span has closed, and a histogram does not depend on the order
        # of its values, so neither costs the hot path anything
        provenance = record_provenance_metrics(registry, system,
                                               recorder.spans)
        record_span_metrics(registry, recorder.spans)
        timeseries = sampler.export()
        for alert in timeseries["alerts"]:
            registry.inc("obs_alerts_total", rule=alert["rule"])
        metrics_snapshot = registry.snapshot()
        spans = recorder.spans
        if flight is not None:
            flight.discard()
    if profiling:
        # with telemetry on, reconcile the span ledger's per-victim-thread
        # wasted cycles against the profiler's independent clock-delta
        # tally — the two must agree exactly
        wasted = provenance.wasted_by_thread if telemetry else None
        profiler.check_conservation([t.cycles for t in stats.threads],
                                    wasted_by_thread=wasted)
        phases = profiler.snapshot()
    result = RunResult(
        workload=workload, system=system, threads=threads, seed=seed,
        commits=stats.total_commits, aborts=stats.total_aborts,
        abort_rate=stats.abort_rate,
        read_write_aborts=stats.read_write_aborts,
        write_write_aborts=stats.write_write_aborts,
        makespan_cycles=stats.makespan_cycles,
        reads=sum(t.reads for t in stats.threads),
        writes=sum(t.writes for t in stats.threads),
        verified=verified,
        mvm_stats=machine.mvm.stats(),
        census_rows=census_rows,
        abort_causes={CAUSE_VALUES[c]: n
                      for c, n in stats.abort_causes.items()},
        backoff_cycles=sum(t.backoff_cycles for t in stats.threads),
        commit_wait_cycles=sum(t.commit_wait_cycles for t in stats.threads),
        metrics=metrics_snapshot,
        spans=spans,
        timeseries=timeseries,
        phases=phases,
        escalations=stats.escalations,
        max_attempts_seen=stats.max_attempts_seen,
        fault_stats=(machine.faults.stats()
                     if machine.faults is not None else None),
    )
    if tracer is not None:
        # the engine, the machine and their observers point at each
        # other; unhook them so the cell's machine is freed on return
        # instead of waiting for the next cyclic garbage collection
        engine.tracer = engine.profiler = None
        engine._on_read = engine._on_write = engine._on_stall = None
        machine.profiler = machine.mvm.profiler = None
    return result


def run_seeds(workload: str, system: str, threads: int,
              profile: str = "quick", seeds: int = DEFAULT_SEEDS,
              seed0: int = 1,
              config: Optional[SimConfig] = None) -> Aggregate:
    """Average one experiment cell over ``seeds`` independent runs.

    Defaults to :data:`DEFAULT_SEEDS` for speed; the paper's protocol is
    :data:`PAPER_SEEDS`.
    """
    runs = [run_once(workload, system, threads, seed0 + i, profile, config)
            for i in range(seeds)]
    return Aggregate(workload, system, threads, runs)
