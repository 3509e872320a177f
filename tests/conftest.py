"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.common.config import MVMConfig, SimConfig, VersionCapPolicy
from repro.common.rng import SplitRandom
from repro.sim.engine import Engine, TransactionSpec
from repro.sim.history import History, HistoryRecorder
from repro.sim.machine import Machine
from repro.tm import SYSTEMS
from repro.tm.ops import READ, WRITE
from repro.workloads import REGISTRY


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Point result cache and fuzz output at throwaway directories.

    Tests exercising the CLI, executor or fuzzer with default settings
    must not write into the repository's ``results/.cache`` or
    ``results/fuzz``.
    """
    monkeypatch.setenv("SITM_CACHE_DIR", str(tmp_path / "result-cache"))
    monkeypatch.setenv("SITM_FUZZ_DIR", str(tmp_path / "fuzz"))
    monkeypatch.setenv("SITM_FLIGHT_DIR", str(tmp_path / "flight"))


@pytest.fixture
def machine() -> Machine:
    """A cold machine with default (Table 1) configuration."""
    return Machine()


@pytest.fixture
def uncapped_machine() -> Machine:
    """A cold machine that keeps every version (``UNBOUNDED`` cap).

    What checkpointing workloads run on: a checkpoint pinned under the
    default ``ABORT_WRITER`` cap warns about pin-induced livelock.
    """
    return Machine(SimConfig(
        mvm=MVMConfig(cap_policy=VersionCapPolicy.UNBOUNDED)))


@pytest.fixture
def rng() -> SplitRandom:
    """A deterministic root RNG."""
    return SplitRandom(1234)


def drive_plain(machine: Machine, gen):
    """Run a transaction-body generator directly against plain memory.

    Applies reads/writes immediately with no transactional semantics —
    used to test structure algorithms sequentially.
    """
    result = None
    try:
        op = next(gen)
        while True:
            kind = op[0]
            if kind is READ:
                op = gen.send(machine.plain_load(op[1]))
            elif kind is WRITE:
                machine.plain_store(op[1], op[2])
                op = gen.send(None)
            else:
                op = gen.send(None)
    except StopIteration as stop:
        result = stop.value
    return result


def mvm_lines(machine: Machine) -> dict:
    """Every MVM line with its version timestamps and newest data."""
    return {line: (vlist.timestamps, vlist.newest_data())
            for line, vlist in machine.mvm._lines.items()}


def run_program(machine: Machine, system: str, programs, seed: int = 7,
                tracer=None, promote_sites=None):
    """Run per-thread spec lists under the named system; return stats."""
    tm = SYSTEMS[system](machine, SplitRandom(seed))
    engine = Engine(tm, programs, tracer=tracer, promote_sites=promote_sites)
    return engine.run()


def run_workload(name: str, system: str, threads: int, setup_seed: int,
                 seed: int, **params):
    """One cell: the ``test`` profile of workload ``name`` set up on a
    fresh machine with ``SplitRandom(setup_seed)`` and run under
    ``system``.  Returns ``(stats, transactions scheduled, verified)``
    (``verified`` is True for a workload without ``verify``)."""
    workload = REGISTRY.create(name, profile="test", **params)
    machine = Machine()
    instance = workload.setup(machine, threads, SplitRandom(setup_seed))
    total = sum(len(p) for p in instance.programs)
    stats = run_program(machine, system, instance.programs, seed=seed)
    return stats, total, instance.verify is None or instance.verify()


def record_history(machine: Machine, system: str, programs,
                   seed: int = 7) -> History:
    """Run per-thread spec lists under the named system; return the log."""
    tm = SYSTEMS[system](machine, SplitRandom(seed))
    recorder = HistoryRecorder.for_system(tm)
    Engine(tm, programs, tracer=recorder).run()
    return recorder.history


def single_thread(machine: Machine, system: str, bodies, seed: int = 7):
    """Run a list of transaction bodies on one thread; return stats."""
    specs = [TransactionSpec(body, f"t{i}") for i, body in enumerate(bodies)]
    return run_program(machine, system, [specs], seed)


def spec(body, label: str = "txn") -> TransactionSpec:
    """Shorthand TransactionSpec constructor."""
    return TransactionSpec(body, label)
