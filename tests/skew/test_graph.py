"""Dependency-graph analysis tests."""

from repro.sim.machine import Machine
from repro.skew.graph import find_write_skews
from repro.tm.ops import Compute, Read, Write

from tests.conftest import record_history, spec


def analyse(machine, programs, seed=7):
    return find_write_skews(
        record_history(machine, "SI-TM", programs, seed=seed))


class TestWriteSkewDetection:
    def test_classic_two_transaction_skew(self, machine):
        """Crossed read/write sets form a 2-cycle."""
        a, b = machine.mvmalloc(1), machine.mvmalloc(1)

        def t1():
            yield Read(a, "t1.read")
            yield Compute(50)
            yield Write(b, 1, "t1.write")

        def t2():
            yield Read(b, "t2.read")
            yield Compute(50)
            yield Write(a, 1, "t2.write")

        report = analyse(machine, [[spec(t1, "t1")], [spec(t2, "t2")]])
        assert not report.clean
        sites = report.all_read_sites()
        assert "t1.read" in sites and "t2.read" in sites

    def test_one_directional_conflict_clean(self, machine):
        a = machine.mvmalloc(1)

        def reader():
            yield Read(a, "r")
            yield Compute(50)

        def writer():
            yield Compute(10)
            yield Write(a, 1, "w")

        report = analyse(machine, [[spec(reader)], [spec(writer)]])
        assert report.clean

    def test_sequential_crossed_sets_clean(self, machine):
        """The same access pattern without overlap is not a skew."""
        a, b = machine.mvmalloc(1), machine.mvmalloc(1)

        def t1():
            yield Read(a, "t1.read")
            yield Write(b, 1, "t1.write")

        def t2():
            yield Read(b, "t2.read")
            yield Write(a, 1, "t2.write")

        # both on ONE thread: they can never overlap
        report = analyse(machine, [[spec(t1), spec(t2)]])
        assert report.clean

    def test_write_write_pairs_excluded(self, machine):
        """WW conflicts are SI's own business, not skew edges: a txn that
        also writes what it read of the other is handled by validation."""
        a = machine.mvmalloc(1)

        def rmw():
            value = yield Read(a, "rmw.read")
            yield Compute(30)
            yield Write(a, value + 1, "rmw.write")

        report = analyse(machine, [[spec(rmw)], [spec(rmw)]])
        assert report.clean  # one aborts; committed pair not concurrent


class TestGraphShape:
    def test_nodes_are_committed_only(self, machine):
        a = machine.mvmalloc(1)

        def rmw():
            value = yield Read(a)
            yield Compute(30)
            yield Write(a, value + 1)

        history = record_history(machine, "SI-TM",
                                 [[spec(rmw) for _ in range(3)],
                                  [spec(rmw) for _ in range(3)]])
        assert find_write_skews(history).committed == 6

    def test_witness_carries_labels_and_addrs(self, machine):
        a, b = machine.mvmalloc(1), machine.mvmalloc(1)

        def t1():
            yield Read(a, "s1")
            yield Compute(50)
            yield Write(b, 1)

        def t2():
            yield Read(b, "s2")
            yield Compute(50)
            yield Write(a, 1)

        report = analyse(machine, [[spec(t1, "alpha")], [spec(t2, "beta")]])
        witness = report.witnesses[0]
        assert set(witness.labels) == {"alpha", "beta"}
        assert witness.addrs == {a, b}
