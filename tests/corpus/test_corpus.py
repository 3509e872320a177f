"""Regression corpus: known-tricky schedules replayed through the oracle.

Every ``schedules/*.json`` file is a schedule (or a persisted fuzz repro)
that once exposed — or is designed to exercise — a specific hazard:
write skew, the first-committer-wins race, version-cap overflow with
retry.  Each is replayed through every backend and checked against its
declared isolation level; the differential test additionally requires
all backends to agree on the final memory state, which these schedules
are constructed to make order-independent (adds commute, and the
write-skew writers converge on the same values).
"""

import json
import pathlib

import pytest

from repro.common.rng import SplitRandom, derive_seed
from repro.oracle.checker import check_history
from repro.oracle.fuzz import (_make_body, _patched_config, addonly_cells,
                               check_schedule_run, expected_counters,
                               run_schedule, schedule_violations)
from repro.oracle.shrink import load_repro
from repro.sim.engine import Engine, TransactionSpec
from repro.sim.history import HistoryRecorder
from repro.sim.machine import Machine
from repro.skew import find_write_skews, precedence_graph
from repro.tm import SYSTEMS

CORPUS_DIR = pathlib.Path(__file__).parent / "schedules"
CORPUS = sorted(CORPUS_DIR.glob("*.json"))
#: schedules expected to replay clean — livelock_under_fault is the one
#: deliberate exception: its config injects a total abort storm with no
#: escalating retry policy, so "fails to make progress" IS its invariant
CLEAN_CORPUS = [p for p in CORPUS if p.stem != "livelock_under_fault"]
ALL_SYSTEMS = sorted(SYSTEMS)


def corpus_ids(corpus=None):
    return [path.stem for path in (CORPUS if corpus is None else corpus)]


def load(path):
    return load_repro(path)["schedule"]


def test_corpus_is_not_empty():
    assert len(CORPUS) >= 3


@pytest.mark.parametrize("path", CLEAN_CORPUS, ids=corpus_ids(CLEAN_CORPUS))
@pytest.mark.parametrize("system", ALL_SYSTEMS)
def test_schedule_is_clean_on_backend(path, system):
    schedule = load(path)
    violations, final, history = check_schedule_run(schedule, system)
    assert violations == [], [str(v) for v in violations]
    # every add-only counter reaches its commutative total
    for cell, want in expected_counters(schedule).items():
        assert final[cell] == want
    # the recorded history re-checks clean after a serialization round trip
    assert check_history(type(history).loads(history.dumps())) == []


@pytest.mark.parametrize("path", CLEAN_CORPUS, ids=corpus_ids(CLEAN_CORPUS))
def test_final_state_identical_across_backends(path):
    schedule = load(path)
    finals = {system: run_schedule(schedule, system)[1]
              for system in ALL_SYSTEMS}
    reference = finals[ALL_SYSTEMS[0]]
    assert all(final == reference for final in finals.values()), finals


def test_write_skew_separates_si_from_ssi():
    schedule = load(CORPUS_DIR / "write_skew.json")
    _, _, si = check_schedule_run(schedule, "SI-TM")
    _, _, ssi = check_schedule_run(schedule, "SSI-TM")
    # plain SI admits the skew: both doctors commit, no aborts
    assert len(si.committed()) == 2 and not si.aborts()
    # SSI breaks the dangerous structure by aborting one attempt
    assert any(rec.abort_cause == "dangerous-structure"
               for rec in ssi.aborts())


def test_one_history_serves_oracle_and_skew_tool():
    # recorded once; the same History object — no projection, no second
    # recorder — answers the isolation oracle (the skew is legal under
    # plain SI), the write-skew tool (a 2-cycle through each doctor's
    # read of the other's cell) and the serialization-graph test (the
    # same cycle as two consecutive rw antidependencies)
    schedule = load(CORPUS_DIR / "write_skew.json")
    history, _ = run_schedule(schedule, "SI-TM")
    a, b = (rec.uid for rec in history.committed())
    assert check_history(history) == []
    (witness,) = find_write_skews(history).witnesses
    assert witness.cycle == (a, b)
    assert witness.labels == ("doctor-a", "doctor-b")
    assert witness.read_sites == {"doctor-a:r3", "doctor-b:r2"}
    graph = precedence_graph(history, read_mode="snapshot")
    assert graph == {a: {b: {"rw"}}, b: {a: {"rw"}}}


def test_overflow_retry_exercises_version_cap():
    schedule = load(CORPUS_DIR / "overflow_retry.json")
    _, _, history = check_schedule_run(schedule, "SI-TM")
    causes = {rec.abort_cause for rec in history.aborts()}
    assert "version-overflow" in causes, causes
    assert len(history.committed()) == 7  # every transaction retries in


def test_fcw_race_catches_broken_sitm():
    schedule = load(CORPUS_DIR / "fcw_race.json")
    rules = {v.rule for v in schedule_violations(schedule, ["SI-TM"],
                                                 broken="no-ww")}
    assert "first-committer-wins" in rules and "lost-update" in rules


@pytest.mark.parametrize("system", ALL_SYSTEMS)
def test_escalation_terminates_under_total_abort_storm(system):
    # a 1.0-rate spurious-abort storm means no commit attempt can ever
    # succeed outside the golden token; the escalating retry policy in
    # the schedule's config is the ONLY reason this terminates
    schedule = load(CORPUS_DIR / "escalation_terminates.json")
    violations, final, history = check_schedule_run(schedule, system)
    assert violations == [], [str(v) for v in violations]
    assert len(history.committed()) == 3
    for cell, want in expected_counters(schedule).items():
        assert final[cell] == want


@pytest.mark.parametrize("system", ALL_SYSTEMS)
def test_livelock_under_fault_without_escalation(system):
    # same storm, but no retry policy: every backend must fail to make
    # progress, surfaced as a deterministic no-progress violation (the
    # config's tm.max_retries keeps the demonstration fast)
    schedule = load(CORPUS_DIR / "livelock_under_fault.json")
    violations, _, history = check_schedule_run(schedule, system)
    assert {v.rule for v in violations} == {"no-progress"}, violations
    assert history is None or not history.committed()


@pytest.mark.parametrize("system", ALL_SYSTEMS)
def test_capacity_overflow_aborts_carry_declared_cause(system):
    # the squeeze caps every write set at one line, so the two-line
    # writers must abort with the *declared* capacity cause on every
    # backend — and still reach the commutative totals, because golden-
    # token escalation suppresses capacity bounds (software fallback)
    schedule = load(CORPUS_DIR / "capacity_overflow.json")
    violations, final, history = check_schedule_run(schedule, system)
    assert violations == [], [str(v) for v in violations]
    causes = {rec.abort_cause for rec in history.aborts()}
    assert "write-capacity" in causes, causes
    for cell, want in expected_counters(schedule).items():
        assert final[cell] == want


def _run_keeping_tm(schedule, system):
    """Mirror ``run_schedule`` but return the backend for counter checks."""
    config = _patched_config(schedule.get("config"))
    machine = Machine(config)
    stride = machine.address_map.words_per_line
    initial = list(schedule["initial"])
    base = machine.mvmalloc(max(1, len(initial)) * stride)
    for cell, value in enumerate(initial):
        machine.plain_store(base + cell * stride, value)
    tm = SYSTEMS[system](
        machine, SplitRandom(derive_seed(0, "fuzz-run",
                                         schedule.get("name", ""), system)))
    recorder = HistoryRecorder.for_system(
        tm, initial={base + cell * stride: value
                     for cell, value in enumerate(initial)})
    programs = [
        [TransactionSpec(_make_body(txn["ops"], base, stride, txn["label"]),
                         txn["label"])
         for txn in thread]
        for thread in schedule["threads"]]
    engine = Engine(tm, programs, tracer=recorder)
    engine.run(max_steps=100_000)
    final = [machine.plain_load(base + cell * stride)
             for cell in range(len(initial))]
    return tm, recorder.history, final


def test_hybrid_fallback_reaches_the_serial_path():
    # one hardware attempt only: the first abort sends a thread to the
    # serialized global-lock fallback, which must commit (the fallback
    # is unabortable) and still replay oracle-clean
    schedule = load(CORPUS_DIR / "hybrid_fallback.json")
    tm, history, final = _run_keeping_tm(schedule, "HybridHTM")
    assert tm.hw_attempts == 1
    assert tm.fallback_entries > 0
    assert tm.fallback_commits > 0
    assert check_history(history) == []
    for cell, want in expected_counters(schedule).items():
        assert final[cell] == want


def test_corpus_files_are_plain_schedules():
    # corpus entries stay minimal: a schedule document, not a full repro
    for path in CORPUS:
        payload = json.loads(path.read_text())
        assert "threads" in payload and "initial" in payload
