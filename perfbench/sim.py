"""The simulator workloads: ``sim_bare`` and ``sim_observed``.

Both drive ``Executor(jobs=1)`` over a cold cache directory, one grid
cell per ``Executor.run`` call (closed loop, one request in flight).
A *rep* is one pass over the grid; reps repeat while another fits the
time budget.  Every cell run is timed between two readings of the host
clock (``perfbench.hostclock``) and a cell's wall time is the median of
its host-normalised reps, so neither a hiccup in one rep nor a slow
spell of the host moves the result.

``sim_bare`` cells have no observer, so ``Engine`` takes ``_run_fast``;
every ``sim_observed`` cell carries telemetry + profiling or a retry
policy, which forces the legacy ``_step`` chain and ``repro.obs``.
"""

from __future__ import annotations

import dataclasses
import pathlib
import shutil
import time
from statistics import median
from typing import Dict, List, Optional, Tuple

from perfbench import tracing
from perfbench.hostclock import HostClock
from perfbench.stats import checksum

THREADS = 16
PROFILE = "quick"
#: the grid runs under this many cell seeds: seed+1 .. seed+CELL_SEEDS
CELL_SEEDS = 2
#: reps of the untraced pass whose times are gated: the two that fit a
#: run (their median is their mean; the driver's ten runs give the median)
MIN_REPS = 2
#: simulated events a cell's wall is scaled to before cells are compared:
#: cells differ in size with the seed, their host time per event does not
REQUEST_EVENTS = 100_000

BARE_WORKLOADS = ("rbtree", "vacation", "kmeans", "list", "array",
                  "intruder")
BARE_SONTM = ("vacation", "rbtree", "list")
OBSERVED_WORKLOADS = ("rbtree", "vacation", "kmeans", "list", "intruder")
#: one more observed pair, for the sixth backend
OBSERVED_HYBRID = ("rbtree", "HybridHTM")
#: (workload, system) cells run under the ``capacity`` bench suite's
#: SimConfig: set limits + RetryPolicy, so the engine leaves the fast path.
#: HybridHTM is left out on purpose: under this config at 16 threads it
#: trips the engine watchdog ("permanent begin stall") on some seeds
#: (rbtree: 3, 5, 19), and a benchmark cell must never fail.
OBSERVED_CAPACITY = (("list", "2PL"), ("vacation", "2PL"))

IMPORTS = ("repro.harness.executor", "repro.harness.spec",
           "repro.workloads", "repro.perf.bench")


@dataclasses.dataclass
class SimPlan:
    """The generated inputs of one run: the only thing ``--seed`` feeds."""

    specs: List[object]
    #: (workload, cell seed) -> transactions its programs hold (what
    #: must commit)
    planned: Dict[Tuple[str, int], int]
    #: (SI-TM spec, 2PL spec) over the same workload and config
    pairs: List[Tuple[object, object]]


def grid(name: str, cell_seed: int) -> Tuple[List[object], List[tuple]]:
    """(cells, (SI-TM, 2PL) pairs among them) of one cell seed."""
    from repro.harness.spec import ExperimentSpec
    from repro.perf.bench import SUITES

    def cell(workload: str, system: str, *config, **flags) -> object:
        return ExperimentSpec(workload, system, THREADS, cell_seed, PROFILE,
                              *config, **flags)

    if name == "sim_bare":
        pairs = [(cell(workload, "SI-TM"), cell(workload, "2PL"))
                 for workload in BARE_WORKLOADS]
        rest = [cell(workload, "SONTM") for workload in BARE_SONTM]
    elif name == "sim_observed":
        observed = dict(telemetry=True, profiling=True)
        pairs = [(cell(workload, "SI-TM", **observed),
                  cell(workload, "2PL", **observed))
                 for workload in OBSERVED_WORKLOADS]
        rest = [cell(*OBSERVED_HYBRID, **observed)]
        rest += [cell(workload, system, SUITES["capacity"].config)
                 for workload, system in OBSERVED_CAPACITY]
    else:
        raise ValueError(f"not a simulator workload: {name!r}")
    return [spec for pair in pairs for spec in pair] + rest, pairs


def build_plan(name: str, seed: int) -> SimPlan:
    from repro.common.config import SimConfig
    from repro.common.rng import SplitRandom
    from repro.sim.machine import Machine
    from repro.workloads import REGISTRY

    specs: List[object] = []
    pairs = []
    for cell_seed in range(seed + 1, seed + 1 + CELL_SEEDS):
        cells, paired = grid(name, cell_seed)
        specs += cells
        pairs += paired
    config = SimConfig()
    config = config.replace(machine=dataclasses.replace(config.machine,
                                                        cores=THREADS))
    planned = {}
    for workload, cell_seed in sorted({(s.workload, s.seed) for s in specs}):
        instance = REGISTRY.create(workload, profile=PROFILE).setup(
            Machine(config), THREADS, SplitRandom(cell_seed))
        planned[workload, cell_seed] = sum(len(program)
                                           for program in instance.programs)
    return SimPlan(specs, planned, pairs)


def cell_stats(result: object) -> list:
    """The simulated statistics of one cell that must repeat exactly."""
    return [result.commits, result.aborts, result.makespan_cycles,
            result.reads, result.writes, result.abort_causes,
            result.mvm_stats]


def completed(results) -> list:
    """The results that are runs, not the executor's RunFailure records."""
    return [r for r in results if not getattr(r, "failed", False)]


def cell_problem(plan: SimPlan, spec: object,
                 result: object) -> Optional[str]:
    if not completed([result]):
        return f"{spec}: quarantined ({result.kind}: {result.message})"
    if result.verified not in (None, True):
        return f"{spec}: workload verify() failed"
    planned = plan.planned[spec.workload, spec.seed]
    if result.commits != planned:
        return f"{spec}: {result.commits} commits, {planned} planned"
    return None


def events(result: object) -> int:
    """Simulated reads + writes + commits + aborts of one cell."""
    return result.reads + result.writes + result.commits + result.aborts


class Pass:
    """Timed reps over the plan's grid."""

    def __init__(self, plan: SimPlan, workdir: pathlib.Path):
        self.plan = plan
        self.workdir = workdir
        self.host = HostClock()
        #: spec -> one (seconds as read, seconds at nominal speed) per rep
        self.samples: Dict[object, List[Tuple[float, float]]] = {
            spec: [] for spec in plan.specs}
        self.results: Dict[object, object] = {}
        self.problems: List[str] = []
        self.reps = 0
        self.failed = 0

    def run(self, seconds: float, label: str, min_reps: int) -> "Pass":
        from repro.harness.executor import Executor
        clock = time.perf_counter
        started = clock()
        rep_s = 0.0
        while (self.reps < min_reps
               or clock() - started + rep_s <= seconds):
            rep_started = clock()
            cache_dir = self.workdir / f"cache-{label}-{self.reps}"
            executor = Executor(jobs=1, cache_dir=cache_dir)
            self.host.read()
            for spec in self.plan.specs:
                start = clock()
                result = executor.run([spec])[spec]
                took = clock() - start
                self.samples[spec].append((took, self.host.nominal(took)))
                self._check(spec, result)
            shutil.rmtree(cache_dir, ignore_errors=True)
            self.reps += 1
            rep_s = clock() - rep_started
        return self

    def _check(self, spec: object, result: object) -> None:
        problem = cell_problem(self.plan, spec, result)
        first = self.results.setdefault(spec, result)
        if problem is None and first is not result \
                and cell_stats(first) != cell_stats(result):
            problem = f"{spec}: simulated statistics differ between reps"
        if problem is not None:
            self.failed += 1
            self.problems.append(problem)

    @property
    def attempted(self) -> int:
        return self.reps * len(self.plan.specs)

    def cell_walls(self) -> Dict[object, float]:
        """Each cell's host-normalised wall: the median over its reps."""
        return {spec: median([nominal for _, nominal in samples])
                for spec, samples in self.samples.items()}

    def grid_wall_s(self) -> float:
        """One cold pass over the grid: Σ per-cell wall."""
        return sum(self.cell_walls().values())

    def raw_grid_wall_s(self) -> float:
        """The same as the clock read it, host speed and all."""
        return sum(median([took for took, _ in samples])
                   for samples in self.samples.values())

    def stat_checksum(self) -> int:
        return checksum([cell_stats(result) for result in completed(
            self.results[spec] for spec in self.plan.specs)])


def abort_ratio(plan: SimPlan, results: Dict[object, object]) -> float:
    """Σ SI-TM aborts ÷ Σ 2PL aborts over the paired cells."""
    pairs = [(results[a], results[b]) for a, b in plan.pairs
             if len(completed([results[a], results[b]])) == 2]
    sitm = sum(a.aborts for a, _ in pairs)
    twopl = sum(b.aborts for _, b in pairs)
    return sitm / twopl if twopl else 0.0


def telemetry_parity(plan: SimPlan,
                     results: Dict[object, object]) -> List[str]:
    """Observed cells must report what the same spec reports plain."""
    problems = []
    for spec in plan.specs:
        if not (spec.telemetry or spec.profiling):
            continue
        plain = dataclasses.replace(spec, telemetry=False,
                                    profiling=False).run()
        seen = results[spec]
        if (plain.commits, plain.aborts, plain.makespan_cycles) != (
                seen.commits, seen.aborts, seen.makespan_cycles):
            problems.append(f"{spec}: telemetry changed the simulation")
    return problems


def end_to_end(plan: SimPlan, untraced: Pass) -> Tuple[dict, dict]:
    """(gated metrics, informational metrics) of the untraced pass."""
    walls = {spec: wall for spec, wall in untraced.cell_walls().items()
             if completed([untraced.results[spec]])}
    wall = sum(walls.values())
    commits = sum(untraced.results[spec].commits for spec in walls)
    ops = sum(events(untraced.results[spec]) for spec in walls)
    # a request is REQUEST_EVENTS simulated events of one workload under
    # one backend and config: the median over its reps under every cell
    # seed, so that neither one rep nor one seed's inputs decide which
    # pair is the dearest
    samples: Dict[object, List[float]] = {}
    for spec in walls:
        scale = REQUEST_EVENTS / events(untraced.results[spec])
        samples.setdefault(dataclasses.replace(spec, seed=0), []).extend(
            nominal * scale for _, nominal in untraced.samples[spec])
    requests = [median(times) for times in samples.values()]
    gated = {
        "txn_per_s": commits / wall,
        "ops_per_s": ops / wall,
        "request_p50_ms": 1e3 * median(requests),
        "request_tail_ms": 1e3 * max(requests),
    }
    info = {
        "grid_wall_s": (wall, "s"),
        "raw_grid_wall_s": (untraced.raw_grid_wall_s(), "s"),
        "host_slowdown": (untraced.host.slowdown(), "ratio"),
        "sitm_abort_ratio": (abort_ratio(plan, untraced.results), "ratio"),
        "request_samples": (untraced.attempted, "count"),
        "reps": (untraced.reps, "count"),
    }
    return gated, info


def per_layer(spans: tracing.SpanTracer, counters: tracing.SimCounters,
              traced: Pass, untraced: Pass) -> dict:
    """Per-layer metrics of the traced pass, normalised to one rep."""
    reps = traced.reps
    results = completed(traced.results.values())
    commits = sum(r.commits for r in results)
    aborts = sum(r.aborts for r in results)
    out = {}

    def per_rep(value: float) -> float:
        return value / reps

    for entry in tracing.TM_ENTRY_POINTS:
        out[f"tm.{entry}.calls"] = per_rep(spans.calls(f"tm.{entry}"))
        out[f"tm.{entry}.busy_s"] = per_rep(spans.busy(f"tm.{entry}"))
    for entry in tracing.MVM_ENTRY_POINTS + ("plain",):
        out[f"mvm.{entry}.calls"] = per_rep(spans.calls(f"mvm.{entry}"))
        out[f"mvm.{entry}.busy_s"] = per_rep(spans.busy(f"mvm.{entry}"))
    for entry in ("access", "invalidate"):
        out[f"mem.{entry}.calls"] = per_rep(spans.calls(f"mem.{entry}"))
        out[f"mem.{entry}.busy_s"] = per_rep(spans.busy(f"mem.{entry}"))
    levels = counters.cache_levels
    out["mem.l1_hit_rate"] = (levels.get("L1", 0) / sum(levels.values())
                              if levels else 0.0)
    out["mvm.max_live_versions"] = counters.max_live_versions
    run_s = spans.busy("sim.run")
    out["harness.self_s"] = per_rep(spans.self_time("harness."))
    out["workloads.setup_s"] = per_rep(spans.busy("workloads.setup"))
    out["workloads.self_s"] = per_rep(spans.self_time("workloads."))
    out["sim.run_s"] = per_rep(run_s)
    out["sim.self_s"] = per_rep(spans.self_time("sim."))
    out["tm.self_s"] = per_rep(spans.self_time("tm."))
    out["mem.self_s"] = per_rep(spans.self_time("mem."))
    out["mvm.self_s"] = per_rep(spans.self_time("mvm."))
    out["obs.hook.calls"] = per_rep(spans.calls("obs.hook"))
    out["obs.busy_s"] = per_rep(spans.busy("obs.hook", "obs.export"))
    out["obs.self_s"] = per_rep(spans.self_time("obs."))
    out["sim.steps"] = per_rep(counters.steps)
    out["sim.steps_per_s"] = counters.steps / run_s if run_s else 0.0
    out["sim.commits"] = commits
    out["sim.aborts"] = aborts
    out["sim.makespan_cycles"] = sum(r.makespan_cycles for r in results)
    out["sim.stat_checksum"] = traced.stat_checksum()
    out["tm.commit_ratio"] = (commits / (commits + aborts)
                              if commits + aborts else 0.0)
    traced_wall = spans.busy("harness.run")
    out["trace.wall_s"] = per_rep(traced_wall)
    #: share of the traced wall that no span's self time explains
    out["trace.unattributed_share"] = (
        (traced_wall - spans.total_self()) / traced_wall
        if traced_wall else 0.0)
    out["trace.overhead_ratio"] = (traced.grid_wall_s()
                                   / untraced.grid_wall_s())
    return out


def run(name: str, seed: int, seconds: float, trace: bool,
        workdir: pathlib.Path, setup_repeats: int = 3) -> dict:
    clock = time.perf_counter
    host = HostClock()
    host.read()
    setup_samples = []
    for _ in range(setup_repeats):
        start = clock()
        plan = build_plan(name, seed)
        setup_samples.append(host.nominal(clock() - start))
    # a traced run splits its time evenly between the two passes, and
    # its times are read as shares of one run: a single rep will do
    window = seconds / 2 if trace else seconds
    min_reps = 1 if trace else MIN_REPS
    untraced = Pass(plan, workdir).run(window, "plain", min_reps)
    problems = list(untraced.problems)
    problems += telemetry_parity(plan, untraced.results)
    gated, info = end_to_end(plan, untraced)
    out = {
        "setup_samples": setup_samples,
        "imports": IMPORTS,
        "gated": gated,
        "info": info,
        "attempted": untraced.attempted,
        "failed": untraced.failed,
        "per_layer": None,
    }
    if trace:
        spans = tracing.SpanTracer()
        counters = tracing.install_sim(spans)
        try:
            traced = Pass(plan, workdir).run(window, "traced", min_reps)
        finally:
            spans.uninstall()
        problems += traced.problems
        if traced.stat_checksum() != untraced.stat_checksum():
            problems.append("tracing wrappers changed the simulated "
                            "statistics")
        out["per_layer"] = per_layer(spans, counters, traced, untraced)
        out["attempted"] += traced.attempted
        out["failed"] += traced.failed
    out["problems"] = problems
    return out
