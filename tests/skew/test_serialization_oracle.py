"""Serialization-graph oracle tests.

The strongest end-to-end correctness statement in the suite: for random
contended workloads, every system that claims (conflict-)serializability
must produce an acyclic committed-history conflict graph, while plain SI
may produce cycles — and when it does, every cycle must contain two
consecutive rw antidependencies (the classic SI theorem).
"""

import pytest

from repro.common.rng import SplitRandom
from repro.sim.history import History
from repro.sim.machine import Machine
from repro.skew.serialization import (
    cycles,
    is_conflict_serializable,
    precedence_graph,
    si_anomaly_cycles,
)
from repro.tm.ops import Compute, Read, Write

from tests.conftest import record_history, spec

SERIALIZABLE = [("2PL", "latest"), ("SONTM", "latest"),
                ("SSI-TM", "snapshot"), ("LogTM", "latest")]


def contended_programs(machine, rng, threads=4, txns=20, cells=6):
    """Transfers + scans over few cells: dense conflicts of every kind."""
    base = machine.mvmalloc(cells * 8)
    for i in range(cells):
        machine.plain_store(base + i * 8, 10)

    def transfer(src, dst):
        def body():
            a = yield Read(base + src * 8)
            yield Compute(2)
            yield Write(base + src * 8, a - 1)
            b = yield Read(base + dst * 8)
            yield Write(base + dst * 8, b + 1)
        return body

    def scan():
        total = 0
        for i in range(cells):
            v = yield Read(base + i * 8)
            total += v
        return total

    programs = []
    for tid in range(threads):
        thread_rng = rng.split(tid)
        specs = []
        for _ in range(txns):
            if thread_rng.random() < 0.3:
                specs.append(spec(scan, "scan"))
            else:
                src, dst = thread_rng.distinct(2, 0, cells)
                specs.append(spec(transfer(src, dst), "transfer"))
        programs.append(specs)
    return programs


def record(system, seed):
    machine = Machine()
    rng = SplitRandom(seed)
    programs = contended_programs(machine, rng)
    return record_history(machine, system, programs, seed=seed)


class TestSerializableSystems:
    @pytest.mark.parametrize("system,mode", SERIALIZABLE)
    def test_committed_histories_acyclic(self, system, mode):
        for seed in range(4):
            trace = record(system, seed)
            assert is_conflict_serializable(trace, read_mode=mode), \
                (system, seed, cycles(trace, mode))


class TestSnapshotIsolation:
    def test_si_transfer_history_acyclic(self):
        """Transfers read-and-write both accounts: SI detects every
        harmful overlap as write-write, so these histories serialize."""
        for seed in range(4):
            trace = record("SI-TM", seed)
            # any cycle that does appear must be a legal SI anomaly shape
            si_anomaly_cycles(trace)  # raises on theorem violation

    def test_si_write_skew_cycle_detected_by_oracle(self):
        """The Listing 1 anomaly shows up as a conflict-graph cycle."""
        machine = Machine()
        checking = machine.mvmalloc(1)
        saving = machine.mvmalloc(1)
        machine.plain_store(checking, 60)
        machine.plain_store(saving, 60)

        def withdraw(from_checking):
            def body():
                c = yield Read(checking)
                s = yield Read(saving)
                yield Compute(10)
                if c + s > 100:
                    if from_checking:
                        yield Write(checking, c - 100)
                    else:
                        yield Write(saving, s - 100)
            return body

        anomaly_seen = False
        for seed in range(8):
            history = record_history(machine, "SI-TM",
                                     [[spec(withdraw(True), "w1")],
                                      [spec(withdraw(False), "w2")]],
                                     seed=seed)
            machine.plain_store(checking, 60)
            machine.plain_store(saving, 60)
            found = si_anomaly_cycles(history)
            if found:
                anomaly_seen = True
        assert anomaly_seen


class TestGraphMechanics:
    def test_wr_edge_direction(self, machine):
        addr = machine.mvmalloc(1)

        def writer():
            yield Write(addr, 5)

        def reader():
            yield Read(addr)

        history = record_history(machine, "2PL",
                                 [[spec(writer, "w"), spec(reader, "r")]])
        graph = precedence_graph(history, "latest")
        writer_txn, reader_txn = history.committed()
        assert graph.has_edge(writer_txn.uid, reader_txn.uid)
        assert graph[writer_txn.uid][reader_txn.uid]["kind"] == "wr"

    def test_ww_chain(self, machine):
        addr = machine.mvmalloc(1)

        def writer(value):
            def body():
                yield Write(addr, value)
            return body

        history = record_history(
            machine, "2PL", [[spec(writer(1), "a"), spec(writer(2), "b")]])
        graph = precedence_graph(history, "latest")
        first, second = history.committed()
        assert graph.has_edge(first.uid, second.uid)

    def test_own_writes_no_self_edges(self, machine):
        addr = machine.mvmalloc(1)

        def rmw():
            yield Write(addr, 1)
            value = yield Read(addr)
            yield Write(addr, value + 1)

        history = record_history(machine, "SI-TM", [[spec(rmw, "rmw")]])
        graph = precedence_graph(history, "snapshot")
        assert not any(a == b for a, b in graph.edges)

    def test_unknown_mode_rejected(self, machine):
        from repro.common.errors import SkewToolError

        with pytest.raises(SkewToolError):
            precedence_graph(History("none", "snapshot"),
                             read_mode="psychic")
