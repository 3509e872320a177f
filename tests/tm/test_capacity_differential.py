"""Differential capacity suite: bounded backends change nothing until
their bounds bite, and when they bite the aborts are declared.

Three contracts pin the capacity feature:

* **identity at infinity** — explicitly huge ``read_set_limit``/
  ``write_set_limit``/``version_buffer_limit`` values are byte-identical
  to the unset defaults on every backend over the whole schedule corpus:
  same :class:`RunStats`, same final memory, same step count, same
  TM-interface call history.  The charge helpers sit on the hot
  read/write paths, so this is the "no perturbation" half of the
  feature's contract.
* **observer passivity** — the bare run and the fully-observed run
  agree under finite limits, both when the limits are generous
  (charges execute but never fire) and when they bite (HybridHTM's
  fallback keeps tight-limit runs terminating without a retry policy,
  so the capacity-abort path is crossed with no engine-level policy in
  the way).
* **declared causes** — every capacity abort carries its declared
  :class:`AbortCause` (``read-capacity``/``write-capacity``/
  ``version-capacity``), each backend's observed causes stay inside its
  ``ABORT_CAUSES`` contract, and SI-TM — invisible readers — never
  read-capacity aborts.

The Hypothesis properties extend PR 5's liveness theorem to capacity:
limits at or above a schedule's footprint never capacity-abort, and
limits below it still terminate oracle-clean under an escalating retry
policy (golden-token transactions run capacity-suppressed, like a
software fallback).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import AbortCause
from repro.oracle.fuzz import apply_config_patch, check_schedule_run, \
    generate_schedule
from repro.sim.retry import RetryPolicy
from repro.tm import SYSTEMS
from tests.sim.test_fastpath_differential import (CLEAN_CORPUS, _load,
                                                  _run_schedule_variant)

ALL_SYSTEMS = sorted(SYSTEMS)
CAPACITY_CAUSES = {AbortCause.READ_CAPACITY.value,
                   AbortCause.WRITE_CAPACITY.value,
                   AbortCause.VERSION_CAPACITY.value}
TIGHT_RETRY = RetryPolicy(attempt_budget=3, stall_budget=8,
                          starvation_age_cycles=20_000)


def _with_limits(schedule, read=0, write=0, buffer=0):
    """Patch capacity limits into a schedule, preserving its tm config."""
    tm = dict(schedule.get("config", {}).get("tm", {}))
    if read:
        tm["read_set_limit"] = read
    if write:
        tm["write_set_limit"] = write
    if buffer:
        tm["version_buffer_limit"] = buffer
    return apply_config_patch(schedule, {"tm": tm})


# --------------------------------------------------------------------
# identity at infinity
# --------------------------------------------------------------------

@pytest.mark.parametrize("path", CLEAN_CORPUS,
                         ids=[p.stem for p in CLEAN_CORPUS])
@pytest.mark.parametrize("system", ALL_SYSTEMS)
def test_unbounded_limits_are_byte_identical_to_unset(path, system):
    schedule = _load(path)
    huge = _with_limits(schedule, read=10**6, write=10**6, buffer=10**6)
    baseline = _run_schedule_variant(schedule, system, observed=False)
    limited = _run_schedule_variant(huge, system, observed=False)
    assert baseline == limited


# --------------------------------------------------------------------
# observer passivity under finite limits
# --------------------------------------------------------------------

#: randomized contended schedules over 4 cells: any footprint fits in
#: 4 lines / 4 buffer entries, so limits of 4 are finite yet never fire
CONTENDED = [generate_schedule(23, index, threads=3, txns=2, cells=4, ops=3)
             for index in range(3)]


@pytest.mark.parametrize("index", range(len(CONTENDED)))
@pytest.mark.parametrize("system", ALL_SYSTEMS)
def test_fast_path_parity_under_generous_finite_limits(system, index):
    schedule = _with_limits(CONTENDED[index], read=4, write=4, buffer=4)
    bare = _run_schedule_variant(schedule, system, observed=False)
    observed = _run_schedule_variant(schedule, system, observed=True)
    assert bare == observed
    # finite-but-roomy limits must never fire
    assert not any("exceed limit" in entry[-1] for entry in bare["tm_log"]
                   if entry[0] in ("read!", "write!"))


#: two-line writers under write_set_limit=1: hardware attempts must
#: capacity-abort, and only HybridHTM's serialized fallback lets the
#: run terminate WITHOUT a retry policy, so the capacity-abort path
#: runs with nothing but the backend between abort and restart
WIDE = {
    "name": "cap-wide",
    "initial": [0, 0, 0, 0],
    "threads": [
        [{"label": "w0", "ops": [["a", 0, 1], ["a", 1, 2]]},
         {"label": "w0b", "ops": [["a", 2, 1]]}],
        [{"label": "w1", "ops": [["a", 1, 4], ["a", 2, 8]]}],
        [{"label": "w2", "ops": [["a", 3, 16], ["a", 0, 32]]}],
    ],
}


def test_hybrid_capacity_aborts_agree_between_paths():
    schedule = _with_limits(WIDE, write=1)
    bare = _run_schedule_variant(schedule, "HybridHTM", observed=False)
    observed = _run_schedule_variant(schedule, "HybridHTM", observed=True)
    assert bare == observed
    assert any(entry[0] == "write!" and "exceed limit" in entry[-1]
               for entry in bare["tm_log"])
    # the commutative totals survive the fallback commits
    assert bare["final"] == [33, 6, 9, 16]


# --------------------------------------------------------------------
# declared causes
# --------------------------------------------------------------------

#: each transaction reads two lines, writes two more: footprint of
#: 4 read lines, 2 write lines and 2 buffer entries per attempt
PROBE = {
    "name": "cap-probe",
    "initial": [0, 0, 0, 0],
    "threads": [
        [{"label": "p0", "ops": [["r", 0], ["r", 1],
                                 ["a", 2, 1], ["a", 3, 2]]}],
        [{"label": "p1", "ops": [["r", 2], ["r", 3],
                                 ["a", 0, 4], ["a", 1, 8]]}],
    ],
}

LIMIT_KEYS = {
    AbortCause.READ_CAPACITY.value: "read_set_limit",
    AbortCause.WRITE_CAPACITY.value: "write_set_limit",
    AbortCause.VERSION_CAPACITY.value: "version_buffer_limit",
}


@pytest.mark.parametrize("cause", sorted(LIMIT_KEYS))
@pytest.mark.parametrize("system", ALL_SYSTEMS)
def test_capacity_aborts_carry_declared_cause(system, cause):
    patch = {"tm": {LIMIT_KEYS[cause]: 1}, "retry": TIGHT_RETRY.to_dict()}
    schedule = apply_config_patch(PROBE, patch)
    violations, _, history = check_schedule_run(schedule, system)
    assert violations == [], [str(v) for v in violations]
    assert history.committed()
    seen = {rec.abort_cause for rec in history.aborts()}
    declared = {c.value for c in SYSTEMS[system].ABORT_CAUSES}
    assert seen <= declared, seen - declared
    if cause == AbortCause.READ_CAPACITY.value and system == "SI-TM":
        # invisible readers: SI-TM tracks no read set, so no bound on
        # it can ever fire — that asymmetry IS the paper's point
        assert cause not in seen
    else:
        assert cause in seen, (cause, seen)


# --------------------------------------------------------------------
# capacity liveness properties
# --------------------------------------------------------------------

PROPERTY_SYSTEMS = ("2PL", "SI-TM", "HybridHTM")


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**8), index=st.integers(0, 3))
def test_limits_at_footprint_never_capacity_abort(seed, index):
    """Limits >= the whole address space (3 cells, one line each) are
    >= any transaction's footprint, so no capacity abort can fire and
    the run stays clean with no retry policy at all."""
    schedule = _with_limits(
        generate_schedule(seed, index, threads=2, txns=2, cells=3, ops=3),
        read=3, write=3, buffer=3)
    for system in PROPERTY_SYSTEMS:
        violations, _, history = check_schedule_run(schedule, system, seed)
        assert violations == [], [str(v) for v in violations]
        assert not (CAPACITY_CAUSES
                    & {rec.abort_cause for rec in history.aborts()})


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**8), limit=st.integers(1, 2))
def test_tight_limits_terminate_oracle_clean(seed, limit):
    """Limits below a transaction's footprint doom every hardware
    attempt, yet the run must still terminate and replay oracle-clean:
    HybridHTM through its serialized fallback, everyone else through
    golden-token escalation (which runs capacity-suppressed)."""
    schedule = apply_config_patch(
        generate_schedule(seed, 0, threads=2, txns=1, cells=4, ops=3),
        {"tm": {"read_set_limit": limit, "write_set_limit": limit,
                "version_buffer_limit": limit},
         "retry": TIGHT_RETRY.to_dict()})
    for system in PROPERTY_SYSTEMS:
        violations, _, history = check_schedule_run(schedule, system, seed)
        assert violations == [], [str(v) for v in violations]
        assert history is not None and history.committed()
        declared = {c.value for c in SYSTEMS[system].ABORT_CAUSES}
        seen = {rec.abort_cause for rec in history.aborts()}
        assert seen <= declared, seen - declared
