"""Observer passivity: attaching observers changes nothing observable.

The engine has one step loop; observers (tracer, telemetry registry,
cycle profiler) are ``is not None`` tests inside it.  These tests pin
that observers are *passive*: for every backend, over the persisted
schedule corpus, generated schedules and the pinned micro grids, a run
observed the way ``harness.runner`` composes telemetry + profiling
(``MetricsRegistry`` + ``SpanRecorder`` + ``CycleProfiler``) produces
**byte-identical** results to the bare run — the same
:class:`RunStats` (including per-label insertion order), the same final
memory, the same step count, and the same history of calls across the
TM interface (operation order, arguments, results and cycle charges),
which is the complete channel through which a run's schedule is
observable without a tracer.

The TM-interface history is captured by wrapping the backend in a
recording proxy.

Both variants share ``Engine.run``, so a scheduling bug would move them
together.  The independent reference is stored: the second half of
this file requires every bare run to reproduce a sha256 over
``(stats, final memory, step count, TM call log)`` held in
``tests/corpus/engine_golden.json``, recorded from the commit its
header names (the last one with a second loop to agree with);
``tests/golden.py`` re-records it.

The file and test names predate the single loop and are kept so test
ids stay stable across history: the ``test_fast_path_*`` tests
compared a flattened fast loop against this one, and
``test_soa_layout_is_byte_identical_on_corpus`` compared a
struct-of-arrays thread layout against the default one — with both
gone, the stored digest is what the bare run is byte-identical *to*.
"""

import json
import pathlib

import pytest

from repro.common.rng import SplitRandom, derive_seed
from repro.obs import CycleProfiler, MetricsRegistry, MultiTracer, \
    SpanRecorder
from repro.oracle.fuzz import _make_body, _patched_config, \
    generate_schedule
from repro.perf.micro import _dispatch_programs, _fullstack_programs, \
    _machine
from repro.sim.engine import Engine, TransactionSpec
from repro.sim.machine import Machine
from repro.tm import SYSTEMS
from tests import golden as golden_corpus

CORPUS_DIR = pathlib.Path(__file__).parent.parent / "corpus" / "schedules"
#: livelock_under_fault never terminates by design (that is its point)
CLEAN_CORPUS = sorted(p for p in CORPUS_DIR.glob("*.json")
                      if p.stem != "livelock_under_fault")
ALL_SYSTEMS = sorted(SYSTEMS)
#: randomized contended schedules from the fuzzer's schedule space
#: (increments, transfers, scans, blind writes, write skew)
GENERATED = [generate_schedule(11, index, threads=3, txns=2, cells=4, ops=3)
             for index in range(6)]


class RecordingTM:
    """Proxy over a TM backend logging every call across the interface.

    The log entries include arguments, results, raised abort causes and
    cycle charges, so two engines produce equal logs only if they drove
    the backend through the same sequence of operations with the same
    outcomes.
    """

    def __init__(self, inner, log):
        self._inner = inner
        self._log = log
        self.machine = inner.machine
        self.rng = inner.rng

    def __getattr__(self, name):
        # anything not intercepted (constants, ww_validation, ...)
        # resolves on the wrapped backend
        return getattr(self._inner, name)

    @property
    def stats(self):
        return self._inner.stats

    @stats.setter
    def stats(self, value):
        self._inner.stats = value

    @property
    def capacity_suppressed(self):
        return self._inner.capacity_suppressed

    @capacity_suppressed.setter
    def capacity_suppressed(self, value):
        # the engine toggles this during golden-token escalation; it
        # must reach the wrapped backend's capacity charges
        self._inner.capacity_suppressed = value

    def begin(self, thread_id, label, retries):
        txn, cycles = self._inner.begin(thread_id, label, retries)
        self._log.append(("begin", thread_id, label, retries,
                          txn is None, cycles))
        return txn, cycles

    def read(self, txn, addr, promote=False):
        try:
            value, cycles = self._inner.read(txn, addr, promote)
        except BaseException as exc:
            self._log.append(("read!", txn.thread_id, addr, promote,
                              type(exc).__name__, str(exc)))
            raise
        self._log.append(("read", txn.thread_id, addr, promote,
                          value, cycles))
        return value, cycles

    def write(self, txn, addr, value):
        try:
            cycles = self._inner.write(txn, addr, value)
        except BaseException as exc:
            self._log.append(("write!", txn.thread_id, addr, value,
                              type(exc).__name__, str(exc)))
            raise
        self._log.append(("write", txn.thread_id, addr, value, cycles))
        return cycles

    def commit(self, txn, now):
        try:
            cycles = self._inner.commit(txn, now)
        except BaseException as exc:
            self._log.append(("commit!", txn.thread_id, now,
                              type(exc).__name__, str(exc)))
            raise
        self._log.append(("commit", txn.thread_id, now, cycles))
        return cycles

    def abort(self, txn, cause):
        cycles = self._inner.abort(txn, cause)
        # killer provenance is part of the observable TM state: every
        # doomed transaction must be attributed to the same killer
        # whether or not anyone is watching
        self._log.append(("abort", txn.thread_id, cause.name, cycles,
                          txn.killer_tid, txn.killer_uid,
                          txn.killer_label, txn.killer_ts))
        return cycles


def _load(path):
    doc = json.loads(path.read_text())
    return doc.get("schedule", doc)


def _observe(machine):
    """Attach telemetry + profiling to ``machine``; return the tracer."""
    registry = MetricsRegistry()
    machine.enable_telemetry(registry)
    return MultiTracer(SpanRecorder(metrics=registry), CycleProfiler())


def _run_schedule_variant(schedule, system, observed):
    """Mirror ``repro.oracle.fuzz.run_schedule`` minus the recorder."""
    config = _patched_config(schedule.get("config"))
    machine = Machine(config)
    stride = machine.address_map.words_per_line
    initial = list(schedule["initial"])
    base = machine.mvmalloc(max(1, len(initial)) * stride)
    for cell, value in enumerate(initial):
        machine.plain_store(base + cell * stride, value)
    log = []
    tm = RecordingTM(
        SYSTEMS[system](machine, SplitRandom(
            derive_seed(0, "fuzz-run", schedule.get("name", ""), system))),
        log)
    programs = [
        [TransactionSpec(_make_body(txn["ops"], base, stride, txn["label"]),
                         txn["label"])
         for txn in thread]
        for thread in schedule["threads"]]
    total_ops = sum(len(txn["ops"]) + 2
                    for thread in schedule["threads"] for txn in thread)
    engine = Engine(tm, programs,
                    tracer=_observe(machine) if observed else None)
    engine.run(max_steps=1000 * max(1, total_ops) + 20_000)
    final = [machine.plain_load(base + cell * stride)
             for cell in range(len(initial))]
    return {
        "stats": engine.stats.to_dict(),
        "final": final,
        "steps": engine.steps_taken,
        "tm_log": log,
    }


def test_all_six_backends_are_covered():
    assert len(ALL_SYSTEMS) == 6, ALL_SYSTEMS


def test_corpus_is_present():
    assert len(CLEAN_CORPUS) >= 3


@pytest.mark.parametrize("path", CLEAN_CORPUS,
                         ids=[p.stem for p in CLEAN_CORPUS])
@pytest.mark.parametrize("system", ALL_SYSTEMS)
def test_fast_path_is_byte_identical_on_corpus(path, system):
    schedule = _load(path)
    bare = _run_schedule_variant(schedule, system, observed=False)
    observed = _run_schedule_variant(schedule, system, observed=True)
    assert bare == observed


@pytest.mark.parametrize("index", range(len(GENERATED)))
@pytest.mark.parametrize("system", ALL_SYSTEMS)
def test_fast_path_is_byte_identical_on_generated_schedules(system, index):
    """Property over the fuzzer's schedule space: randomized contended
    schedules must agree between variants just like the curated corpus
    does."""
    bare = _run_schedule_variant(GENERATED[index], system, observed=False)
    observed = _run_schedule_variant(GENERATED[index], system, observed=True)
    assert bare == observed


def _run_grid_variant(programs_builder, threads, observed):
    machine = _machine(threads)
    log = []
    tm = RecordingTM(SYSTEMS["SI-TM"](machine, SplitRandom(7)), log)
    engine = Engine(tm, programs_builder(machine),
                    tracer=_observe(machine) if observed else None)
    engine.run()
    return {
        "stats": engine.stats.to_dict(),
        "steps": engine.steps_taken,
        "tm_log": log,
    }


def _fullstack(machine):
    base = machine.mvmalloc(32 * 8)
    return _fullstack_programs(base, 32, 12, 8)


def _dispatch(machine):
    wpl = machine.address_map.words_per_line
    base = machine.mvmalloc(64 * wpl)
    return _dispatch_programs(machine, base, 64, 6, 40, 300, 2, 2)


MICRO_GRIDS = {"fullstack32": (_fullstack, 32), "dispatch64": (_dispatch, 64)}


@pytest.mark.parametrize("grid", MICRO_GRIDS)
def test_fast_path_is_byte_identical_on_micro_grids(grid):
    """32- and 64-thread grids: long bursts and batched commits."""
    builder, threads = MICRO_GRIDS[grid]
    bare = _run_grid_variant(builder, threads, observed=False)
    observed = _run_grid_variant(builder, threads, observed=True)
    assert bare == observed


# --------------------------------------------------------------------
# golden digests: the bare run against a stored reference
# --------------------------------------------------------------------

GOLDEN = golden_corpus.Corpus(
    "engine_golden.json",
    "sha256(json.dumps([stats, final, steps, tm_log], "
    "separators=(',', ':')))")


def _digest(result):
    return golden_corpus.sha256([result["stats"], result.get("final"),
                                 result["steps"], result["tm_log"]])


def _corpus_digest(path, system):
    return _digest(_run_schedule_variant(_load(path), system,
                                         observed=False))


def _generated_digest(index, system):
    return _digest(_run_schedule_variant(GENERATED[index], system,
                                         observed=False))


def _micro_digest(grid):
    builder, threads = MICRO_GRIDS[grid]
    return _digest(_run_grid_variant(builder, threads, observed=False))


def _entries():
    """``{key: (digest function, *its arguments)}`` of every pinned run."""
    entries = {}
    for system in ALL_SYSTEMS:
        for path in CLEAN_CORPUS:
            entries[f"corpus/{path.stem}/{system}"] = (_corpus_digest,
                                                       path, system)
        for index in range(len(GENERATED)):
            entries[f"generated/{index}/{system}"] = (_generated_digest,
                                                      index, system)
    for grid in MICRO_GRIDS:
        entries[f"micro/{grid}"] = (_micro_digest, grid)
    return entries


def golden_tables():
    """This checkout's bare-run digests, for ``tests/golden.py``."""
    return {"digests": {key: fn(*args) for key, (fn, *args)
                        in sorted(_entries().items())}}


@pytest.fixture(scope="module")
def golden():
    return GOLDEN.load()["digests"]


def test_golden_file_has_no_stale_entries(golden):
    golden_corpus.assert_entries(golden, _entries())


@pytest.mark.parametrize("path", CLEAN_CORPUS,
                         ids=[p.stem for p in CLEAN_CORPUS])
@pytest.mark.parametrize("system", ALL_SYSTEMS)
def test_soa_layout_is_byte_identical_on_corpus(golden, path, system):
    assert _corpus_digest(path, system) \
        == golden[f"corpus/{path.stem}/{system}"]


@pytest.mark.parametrize("index", range(len(GENERATED)))
@pytest.mark.parametrize("system", ALL_SYSTEMS)
def test_generated_digest(golden, system, index):
    assert _generated_digest(index, system) \
        == golden[f"generated/{index}/{system}"]


@pytest.mark.parametrize("grid", MICRO_GRIDS)
def test_micro_digest(golden, grid):
    assert _micro_digest(grid) == golden[f"micro/{grid}"]
