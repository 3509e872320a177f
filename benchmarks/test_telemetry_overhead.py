"""Telemetry overhead contract: disabled-by-default must stay free.

The observability subsystem (:mod:`repro.obs`) promises that a run
without ``telemetry=True`` pays nothing beyond one ``is not None`` test
per hot-path site.  Two checks enforce it:

* **structural** — a default run constructs no telemetry objects at
  all (the registry and span recorder classes are poisoned and must
  never be instantiated);
* **temporal** — ``run_once(telemetry=False)`` stays within 5% (plus
  measured machine noise) of a hand-rolled engine loop with no
  telemetry plumbing around it, i.e. the pre-telemetry execution path.

Telemetry *on* is allowed to cost, but the cost must be a bounded
number in every regime — including an escalated run, where most engine
steps are begin stalls replayed into the sampler
(:func:`test_telemetry_on_bounded_under_escalation`).

Both sides of the wall-clock comparison use min-of-N, which on a noisy
CI box is the stable estimator of the true cost floor.
"""

import dataclasses
import math
import time

from repro.common.config import SimConfig
from repro.common.rng import SplitRandom, derive_seed
from repro.harness.runner import run_once
from repro.sim.engine import Engine
from repro.sim.machine import Machine
from repro.tm import SYSTEMS
from repro.workloads import REGISTRY

from conftest import PROFILE

WORKLOAD = "rbtree"
SYSTEM = "SI-TM"
THREADS = 4
#: timing repetitions (min-of-N absorbs scheduler noise)
REPS = 5
#: the contract: telemetry off may cost at most this fraction extra
MAX_OVERHEAD = 0.05
#: the contract for an escalated run: telemetry + profiling on may cost
#: at most this multiple of the bare run (it was ~12x while the sampler
#: rescanned every thread's clock on each of ~1M begin stalls)
MAX_ESCALATED_RATIO = 5.0


def _bare_run():
    """run_once's simulation core with zero telemetry plumbing."""
    config = SimConfig()
    if THREADS > config.machine.cores:
        config = config.replace(
            machine=dataclasses.replace(config.machine, cores=THREADS))
    machine = Machine(config)
    rng = SplitRandom(derive_seed(1, WORKLOAD, SYSTEM, THREADS))
    bench = REGISTRY.create(WORKLOAD, profile=PROFILE)
    instance = bench.setup(machine, THREADS, rng.split("workload"))
    tm = SYSTEMS[SYSTEM](machine, rng.split("tm"))
    return Engine(tm, instance.programs).run()


def _min_seconds(fn, reps=REPS):
    best = None
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def test_disabled_run_constructs_no_telemetry_objects(monkeypatch):
    """telemetry=False/profiling=False must never touch repro.obs at all."""
    import repro.obs.flight as flight_mod
    import repro.obs.live as live_mod
    import repro.obs.metrics as metrics_mod
    import repro.obs.profile as profile_mod
    import repro.obs.spans as spans_mod

    def poison(*args, **kwargs):
        raise AssertionError("telemetry object built in a disabled run")

    monkeypatch.setattr(metrics_mod.MetricsRegistry, "__init__", poison)
    monkeypatch.setattr(spans_mod.SpanRecorder, "__init__", poison)
    monkeypatch.setattr(profile_mod.CycleProfiler, "__init__", poison)
    monkeypatch.setattr(live_mod.TimeSeriesSampler, "__init__", poison)
    monkeypatch.setattr(flight_mod.FlightRecorder, "__init__", poison)
    result = run_once(WORKLOAD, SYSTEM, THREADS, seed=1, profile=PROFILE)
    assert result.metrics is None and result.spans is None
    assert result.phases is None and result.timeseries is None


def test_streaming_holds_memory_at_cap_on_long_run():
    """The bounded-memory claim at scale: a heavily contended run of
    over a million engine steps (hundreds of thousands of closed spans)
    never holds more than one cap's worth of commits plus one cap's
    worth of aborts, while the online aggregates still count every
    span exactly."""
    from repro.obs import SpanRecorder
    from repro.sim.engine import TransactionSpec
    from repro.tm.ops import Read, Write

    machine = Machine(SimConfig())
    addr = machine.mvmalloc(1)

    def body():
        value = yield Read(addr)
        yield Write(addr, value + 1)

    programs = [[TransactionSpec(body, "ctr") for _ in range(22_000)]
                for _ in range(4)]
    recorder = SpanRecorder(cap=256, seed=1)
    tm = SYSTEMS[SYSTEM](machine, SplitRandom(3))
    engine = Engine(tm, programs, tracer=recorder)
    stats = engine.run()
    closed = stats.total_commits + stats.total_aborts
    assert engine.steps_taken >= 1_000_000
    assert closed >= 100_000
    assert recorder.max_retained <= 2 * recorder.cap
    assert len(recorder) <= 2 * recorder.cap
    assert recorder.total_commits == stats.total_commits
    assert recorder.total_aborts == stats.total_aborts
    assert recorder.aggregate()["total_spans"] == closed


def test_telemetry_off_overhead_within_contract(once, benchmark):
    def experiment():
        # interleaved rounds, so a slow spell of the host lands on both
        # sides instead of on the side timed during it
        bares, offs = [], []
        for _ in range(3):
            bares.append(_min_seconds(_bare_run))
            offs.append(_min_seconds(lambda: run_once(
                WORKLOAD, SYSTEM, THREADS, seed=1, profile=PROFILE)))
        on = _min_seconds(lambda: run_once(
            WORKLOAD, SYSTEM, THREADS, seed=1, profile=PROFILE,
            telemetry=True))
        return {"bare_s": min(bares), "off_s": min(offs), "on_s": on,
                "noise": (max(bares) - min(bares)) / min(bares)}

    results = once(experiment)
    benchmark.extra_info["results"] = results
    noise = results["noise"]
    assert noise < 0.5, f"machine too noisy to measure: {results}"
    overhead = results["off_s"] / results["bare_s"] - 1.0
    benchmark.extra_info["telemetry_off_overhead"] = overhead
    assert overhead <= MAX_OVERHEAD + noise, results
    # Sanity: the telemetry-on path works; its cost lands on the
    # enabled run only (it may legitimately be slower than both).
    assert results["on_s"] > 0


def test_telemetry_on_bounded_under_escalation(once, benchmark):
    """The capacity-config ``list``/2PL cell: every transaction overflows
    its 8-line read set and commits through the golden token, so fifteen
    of sixteen threads spend the run in begin stalls."""
    from repro.perf.bench import CAPACITY_CONFIG

    def cell(**observers):
        result = run_once("list", "2PL", 16, seed=1, profile="quick",
                          config=CAPACITY_CONFIG, **observers)
        assert result.escalations > 0
        return result

    def experiment():
        # interleaved reps, so a slow spell of the host lands on both
        # sides instead of on the side timed during it
        bare = observed = math.inf
        for _ in range(3):
            bare = min(bare, _min_seconds(cell, reps=1))
            observed = min(observed, _min_seconds(
                lambda: cell(telemetry=True, profiling=True), reps=1))
        return {"bare_s": bare, "observed_s": observed}

    results = once(experiment)
    benchmark.extra_info["results"] = results
    ratio = results["observed_s"] / results["bare_s"]
    benchmark.extra_info["telemetry_on_escalated_ratio"] = ratio
    assert ratio <= MAX_ESCALATED_RATIO, results
