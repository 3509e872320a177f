"""Discrete-event engine tests: determinism, abort paths, accounting."""

import re

import pytest

from repro.common.config import SimConfig, TMConfig
from repro.common.errors import SimulationError
from repro.sim.engine import Engine, Tracer, TransactionSpec
from repro.sim.machine import Machine
from repro.common.rng import SplitRandom
from repro.tm import SnapshotIsolationTM, TwoPhaseLockingTM
from repro.tm.ops import Abort, Compute, Read, Write

from tests.conftest import run_program, spec


def counter_body(addr):
    def body():
        value = yield Read(addr)
        yield Compute(2)
        yield Write(addr, value + 1)
    return body


class TestBasics:
    def test_single_transaction_commits(self, machine):
        addr = machine.mvmalloc(1)
        stats = run_program(machine, "SI-TM", [[spec(counter_body(addr))]])
        assert stats.total_commits == 1
        assert machine.plain_load(addr) == 1

    def test_return_value_ignored_but_body_runs(self, machine):
        addr = machine.mvmalloc(1)

        def body():
            yield Write(addr, 5)
            return "result"

        run_program(machine, "SI-TM", [[spec(body)]])
        assert machine.plain_load(addr) == 5

    def test_read_result_delivered_to_body(self, machine):
        addr = machine.mvmalloc(2)
        machine.plain_store(addr, 41)

        def body():
            value = yield Read(addr)
            yield Write(addr + 1, value + 1)

        run_program(machine, "SI-TM", [[spec(body)]])
        assert machine.plain_load(addr + 1) == 42

    def test_empty_program_finishes(self, machine):
        stats = run_program(machine, "SI-TM", [[], []])
        assert stats.total_commits == 0

    def test_compute_advances_clock(self, machine):
        def body():
            yield Compute(500)

        stats = run_program(machine, "SI-TM", [[spec(body)]])
        assert stats.threads[0].cycles >= 500


class TestConcurrencyInvariants:
    @pytest.mark.parametrize("system", ["2PL", "SONTM", "SI-TM", "SSI-TM"])
    def test_counter_never_loses_updates(self, system):
        machine = Machine()
        addr = machine.mvmalloc(1)
        programs = [[spec(counter_body(addr)) for _ in range(25)]
                    for _ in range(4)]
        stats = run_program(machine, system, programs)
        assert stats.total_commits == 100
        assert machine.plain_load(addr) == 100

    def test_determinism_same_seed(self):
        results = []
        for _ in range(2):
            machine = Machine()
            addr = machine.mvmalloc(1)
            programs = [[spec(counter_body(addr)) for _ in range(20)]
                        for _ in range(4)]
            stats = run_program(machine, "2PL", programs, seed=3)
            results.append((stats.total_aborts, stats.makespan_cycles))
        assert results[0] == results[1]

    def test_different_seeds_differ(self):
        makespans = set()
        for seed in range(4):
            machine = Machine()
            addr = machine.mvmalloc(1)
            programs = [[spec(counter_body(addr)) for _ in range(20)]
                        for _ in range(4)]
            stats = run_program(machine, "2PL", programs, seed=seed)
            makespans.add(stats.makespan_cycles)
        assert len(makespans) > 1  # backoff jitter differs


class TestAbortPaths:
    def test_explicit_abort_retries_forever_guard(self, machine):
        def body():
            yield Abort()

        config = SimConfig(tm=TMConfig(max_retries=3))
        machine = Machine(config)
        tm = SnapshotIsolationTM(machine, SplitRandom(1))
        engine = Engine(tm, [[spec(body)]])
        with pytest.raises(SimulationError):
            engine.run()

    def test_retry_reexecutes_fresh_body(self, machine):
        attempts = []
        addr = machine.mvmalloc(1)

        def body():
            attempts.append(1)
            value = yield Read(addr)
            if len(attempts) < 3:
                yield Abort()
            yield Write(addr, value + 1)

        stats = run_program(machine, "SI-TM", [[spec(body)]])
        assert len(attempts) == 3
        assert stats.total_aborts == 2
        assert stats.total_commits == 1

    def test_abort_records_label(self, machine):
        def body():
            yield Abort()

        config = SimConfig(tm=TMConfig(max_retries=1))
        machine = Machine(config)
        tm = SnapshotIsolationTM(machine, SplitRandom(1))
        engine = Engine(tm, [[TransactionSpec(body, "mylabel")]])
        with pytest.raises(SimulationError):
            engine.run()
        assert engine.stats.per_label["mylabel"]["aborts"] >= 1


class TestMalformedDescriptors:
    @pytest.mark.parametrize("op", [
        ("Fetch", 1, None, None),    # unknown kind
        ("Read", 1, ""),             # three fields
        ("Read", 1, "", False, 0),   # five fields
        "Read",                      # a str unpacks to four characters
        42,                          # not iterable
    ], ids=["kind", "short", "long", "str", "int"])
    def test_raises_simulation_error_naming_it(self, machine, op):
        def body():
            yield op

        tm = SnapshotIsolationTM(machine, SplitRandom(1))
        engine = Engine(tm, [[spec(body)]])
        with pytest.raises(SimulationError,
                           match="unknown operation " + re.escape(repr(op))):
            engine.run()


class TestScheduling:
    def test_min_clock_thread_runs_first(self, machine):
        order = []
        addr = machine.mvmalloc(2)

        def slow():
            order.append("slow-start")
            yield Compute(10_000)
            order.append("slow-end")
            yield Write(addr, 1)

        def fast():
            order.append("fast")
            yield Write(addr + 1, 1)

        run_program(machine, "SI-TM", [[spec(slow)], [spec(fast)]])
        # the fast thread's entire transaction fits inside the slow compute
        assert order.index("fast") < order.index("slow-end")

    def test_too_many_threads_rejected(self):
        machine = Machine()
        tm = SnapshotIsolationTM(machine, SplitRandom(1))
        programs = [[] for _ in range(machine.config.machine.cores + 1)]
        with pytest.raises(SimulationError):
            Engine(tm, programs)


class TestTracerHooks:
    def test_all_hooks_fire(self, machine):
        events = []

        class Probe(Tracer):
            def on_begin(self, txn):
                events.append("begin")

            def on_read(self, txn, addr, site, value=None):
                events.append(("read", site))

            def on_write(self, txn, addr, site, value=None):
                events.append(("write", site))

            def on_commit(self, txn):
                events.append("commit")

        addr = machine.mvmalloc(1)

        def body():
            value = yield Read(addr, "s1")
            yield Write(addr, value + 1, "s2")

        run_program(machine, "SI-TM", [[spec(body)]], tracer=Probe())
        assert events == ["begin", ("read", "s1"), ("write", "s2"), "commit"]

    def test_promote_sites_force_promotion(self, machine):
        addr = machine.mvmalloc(1)
        seen = {}

        class Probe(Tracer):
            def on_commit(self, txn):
                seen["promoted"] = set(txn.promoted_lines)

        def body():
            yield Read(addr, "hot")
            yield Write(addr + 0, 1)  # make it a writer so commit validates

        run_program(machine, "SI-TM", [[spec(body)]], tracer=Probe(),
                    promote_sites={"hot"})
        line = machine.address_map.line_of(addr)
        assert line in seen["promoted"]
