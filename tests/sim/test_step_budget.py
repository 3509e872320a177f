"""Host cost of one engine step, counted in Python calls.

Every figure is a grid of simulated cells, so the Python calls one
simulated operation costs bound how large a grid is practical.  This
counts the calls of ``repro`` code per engine step on quick 16-thread
cells (an eager baseline and SI-TM), bare and observed (telemetry plus
profiling, whose observers must cost per attempt or per window, not
per operation).  The simulated program's own frames
(``repro.workloads`` and ``repro.structures``: the transaction bodies
and the data structures they walk) are counted apart, against their
own bare budget, which a helper call per access, traversal step or
bound test fails.  A generator resumed counts as a call.

Observers pay per attempt, so their own frames (``repro.obs``: the
tracer hooks and every helper below them, and the end-of-run folds)
are counted per attempt over a whole observed ``run_once``, against
``OBSERVER_BUDGET``, which a helper call per hook fails.  The same pass
counts the ``enum`` module's frames, which an ``AbortCause.value`` read
or a dict keyed by a cause would run, against ``ENUM_BUDGET``; so does
a fuzz/oracle run (a schedule simulated under the history recorder,
then checked) on every backend.

The counts are deterministic (a cell is a pure function of its seed)
but depend a little on the interpreter (3.12 inlines comprehensions
and profiles through ``sys.monitoring``); each bound sits just above
the largest count over Python 3.10, 3.11 and 3.12, so a change that
puts a helper back on the per-operation or per-attempt path fails
here.
"""

import enum
import math
import os
import sys

import pytest

import repro
import repro.harness.runner as runner
# the observers' modules load before anything is counted
from repro.obs import live, metrics, profile, provenance, spans  # noqa: F401
from repro.oracle.fuzz import check_schedule_run, generate_schedule
from repro.sim.engine import Engine
from repro.tm import SYSTEMS

PACKAGE = os.path.dirname(repro.__file__) + os.sep
PROGRAM = tuple(PACKAGE + part + os.sep
                for part in ("workloads", "structures"))
OBSERVERS = PACKAGE + "obs" + os.sep
ENUM = enum.__file__

#: (workload, system) -> bound on repro calls per engine step
BUDGET = {
    ("list", "SONTM"): 5.36,
    ("kmeans", "SI-TM"): 5.35,
    ("vacation", "2PL"): 5.69,
}
#: (workload, system) -> bound on program-layer calls per engine step
PROGRAM_BUDGET = {
    ("array", "2PL"): 2.05,
    ("list", "SONTM"): 1.05,
    ("kmeans", "SI-TM"): 1.55,
}
#: the same as BUDGET, with telemetry and profiling on
OBSERVED_BUDGET = {
    ("vacation", "2PL"): 5.82,
    ("list", "SI-TM"): 4.9,
    ("kmeans", "SI-TM"): 6.6,
}

#: (workload, system) -> bound on repro.obs calls per attempt over a
#: whole observed run_once
OBSERVER_BUDGET = {
    ("kmeans", "SI-TM"): 24.5,
    ("rbtree", "HybridHTM"): 79.0,
    ("vacation", "2PL"): 21.8,
}
#: bound on enum-module calls per attempt over the same run_once, and
#: on those entered from ``repro`` over a fuzz/oracle run: a cause's
#: value is read from ``repro.common.errors.CAUSE_VALUES``, an isolation
#: level's from ``repro.tm.api.ISOLATION_VALUES``
ENUM_BUDGET = 0


class CountingEngine(Engine):
    """An engine whose run counts the simulator's Python calls:
    ``calls`` outside the simulated program, ``program_calls`` in it."""

    calls = program_calls = 0

    def run(self, max_steps=None):
        calls = program_calls = 0

        def profile(frame, event, arg):
            nonlocal calls, program_calls
            if event == "call":
                name = frame.f_code.co_filename
                if name.startswith(PROGRAM):
                    program_calls += 1
                elif name.startswith(PACKAGE):
                    calls += 1

        sys.setprofile(profile)
        try:
            return super().run(max_steps)
        finally:
            sys.setprofile(None)
            self.calls, self.program_calls = calls, program_calls


def counted_engine(monkeypatch, workload, system, observed):
    engines = []

    def build(*args, **kwargs):
        engine = CountingEngine(*args, **kwargs)
        engines.append(engine)
        return engine

    monkeypatch.setattr(runner, "Engine", build)
    result = runner.run_once(workload, system, 16, 1, "quick",
                             telemetry=observed, profiling=observed)
    assert result.verified is not False
    engine, = engines
    return engine


@pytest.mark.parametrize("workload, system",
                         sorted(BUDGET.keys() | PROGRAM_BUDGET.keys()))
def test_calls_per_step(monkeypatch, workload, system):
    engine = counted_engine(monkeypatch, workload, system, False)
    per_step = engine.calls / engine.steps_taken
    program = engine.program_calls / engine.steps_taken
    assert per_step <= BUDGET.get((workload, system), math.inf), per_step
    assert program <= PROGRAM_BUDGET.get((workload, system), math.inf), \
        program


@pytest.mark.parametrize("workload, system", sorted(OBSERVED_BUDGET))
def test_observed_calls_per_step(monkeypatch, workload, system):
    engine = counted_engine(monkeypatch, workload, system, True)
    per_step = engine.calls / engine.steps_taken
    assert per_step <= OBSERVED_BUDGET[workload, system], per_step


def observer_calls_per_attempt(workload, system):
    """(``repro.obs`` calls, ``enum`` calls) per attempt over one
    observed ``run_once``."""
    calls = enum_calls = 0

    def count(frame, event, arg):
        nonlocal calls, enum_calls
        if event == "call":
            name = frame.f_code.co_filename
            if name.startswith(OBSERVERS):
                calls += 1
            elif name == ENUM:
                enum_calls += 1

    sys.setprofile(count)
    try:
        result = runner.run_once(workload, system, 16, 1, "quick",
                                 telemetry=True, profiling=True)
    finally:
        sys.setprofile(None)
    attempts = result.commits + result.aborts
    return calls / attempts, enum_calls / attempts


@pytest.mark.parametrize("workload, system", sorted(OBSERVER_BUDGET))
def test_observer_calls_per_attempt(workload, system):
    per_attempt, enum_per_attempt = observer_calls_per_attempt(workload,
                                                               system)
    assert per_attempt <= OBSERVER_BUDGET[workload, system], per_attempt
    assert enum_per_attempt <= ENUM_BUDGET, enum_per_attempt


def test_fuzz_run_calls_no_enum():
    """Enum frames entered from ``repro`` (not the checker's graph
    library) per attempt over fuzz schedules run and checked on every
    backend: the history recorder records each abort's cause."""
    enum_calls = 0

    def count(frame, event, arg):
        nonlocal enum_calls
        if (event == "call" and frame.f_code.co_filename == ENUM
                and frame.f_back.f_code.co_filename.startswith(PACKAGE)):
            enum_calls += 1

    attempts = aborts = 0
    sys.setprofile(count)
    try:
        for index in range(4):
            schedule = generate_schedule(3, index)
            for system in sorted(SYSTEMS):
                violations, _, history = check_schedule_run(schedule,
                                                            system)
                assert violations == [], violations
                attempts += len(history.transactions)
                aborts += len(history.aborts())
    finally:
        sys.setprofile(None)
    assert aborts > 0
    assert enum_calls / attempts <= ENUM_BUDGET, enum_calls
