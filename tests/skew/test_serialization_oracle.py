"""Serialization-graph oracle tests.

The strongest end-to-end correctness statement in the suite: for random
contended workloads, every system that claims (conflict-)serializability
must produce an acyclic committed-history conflict graph, while plain SI
may produce cycles — and when it does, every cycle must contain two
adjacent rw antidependencies: ``(ww ∪ wr) ; rw?`` stays acyclic.
"""

import pytest

from repro.common.rng import SplitRandom, derive_seed
from repro.sim.engine import Engine
from repro.sim.history import History, HistoryRecorder
from repro.sim.machine import Machine
from repro.skew.serialization import (
    find_cycle,
    is_conflict_serializable,
    precedence_graph,
    si_violation,
)
from repro.tm import SYSTEMS
from repro.tm.ops import Compute, Read, Write
from repro.workloads import PAPER_ORDER, REGISTRY

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
                (system, seed, find_cycle(precedence_graph(trace, mode)))


class TestSnapshotIsolation:
    def test_si_transfer_history_acyclic(self):
        """Transfers read-and-write both accounts: SI detects every
        harmful overlap as write-write, so these histories serialize."""
        for seed in range(4):
            trace = record("SI-TM", seed)
            # any cycle that does appear must be a legal SI anomaly shape
            assert si_violation(trace) is None, seed

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
            assert si_violation(history) is None, seed
            if not is_conflict_serializable(history, "snapshot"):
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
        assert graph == {writer_txn.uid: {reader_txn.uid: {"wr"}},
                         reader_txn.uid: {}}

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
        assert graph == {first.uid: {second.uid: {"ww"}}, second.uid: {}}

    def test_own_writes_no_self_edges(self, machine):
        addr = machine.mvmalloc(1)

        def rmw():
            yield Write(addr, 1)
            value = yield Read(addr)
            yield Write(addr, value + 1)

        history = record_history(machine, "SI-TM", [[spec(rmw, "rmw")]])
        graph = precedence_graph(history, "snapshot")
        assert not any(uid in successors
                       for uid, successors in graph.items())

    def test_unknown_mode_rejected(self, machine):
        from repro.common.errors import SkewToolError

        with pytest.raises(SkewToolError):
            precedence_graph(History("none", "snapshot"),
                             read_mode="psychic")


class TestFindCycle:
    def test_acyclic(self):
        assert find_cycle({1: [2, 3], 2: [3], 3: []}) is None

    def test_cycle_nodes_in_order(self):
        assert find_cycle({1: [2], 2: [3], 3: [4, 2], 4: []}) == [2, 3]

    def test_self_loop(self):
        assert find_cycle({1: [1]}) == [1]

    def test_long_chain_needs_no_recursion(self):
        chain = {node: [node + 1] for node in range(50_000)}
        chain[50_000] = []
        assert find_cycle(chain) is None
        chain[50_000] = [0]
        assert len(find_cycle(chain)) == 50_001


#: the paper's ten workloads and yada: STAMP plus the microbenchmarks
ELEVEN_WORKLOADS = PAPER_ORDER + ["yada"]


def record_cell(workload, system, threads=16, seed=1):
    """The test-profile cell ``run_once`` runs, with a recorder attached."""
    machine = Machine()
    rng = SplitRandom(derive_seed(seed, workload, system, threads))
    instance = REGISTRY.create(workload, profile="test").setup(
        machine, threads, rng.split("workload"))
    tm = SYSTEMS[system](machine, rng.split("tm"))
    recorder = HistoryRecorder.for_system(tm)
    Engine(tm, instance.programs, tracer=recorder).run()
    return recorder.history


class TestWorkloadCells:
    """The graph rules on every workload at 16 threads: the SI rule is
    one search, so even the cells with thousands of SI-TM cycles
    (vacation, list, genome) are decided in milliseconds."""

    @pytest.mark.parametrize("workload", ELEVEN_WORKLOADS)
    def test_sitm_cell_is_si(self, workload):
        history = record_cell(workload, "SI-TM")
        assert history.committed()
        assert si_violation(history) is None

    @pytest.mark.parametrize("workload", ELEVEN_WORKLOADS)
    def test_ssitm_cell_serializable(self, workload):
        history = record_cell(workload, "SSI-TM")
        assert is_conflict_serializable(history, read_mode="snapshot")
