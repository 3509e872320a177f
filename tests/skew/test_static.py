"""Static footprint analyzer tests (the Dias-style alternative, §5.1)."""

import pytest

from repro.common.errors import SkewToolError
from repro.skew.static import FootprintAnalyzer
from repro.structures import TxLinkedList
from repro.tm.ops import Compute, Read, Write


class TestFootprints:
    def test_read_only_operation(self, machine):
        addr = machine.mvmalloc(1)

        def probe():
            yield Read(addr, "probe")

        analyzer = FootprintAnalyzer(machine)
        analyzer.add_operation("probe", probe)
        report = analyzer.analyse()
        footprint = report.footprints[0]
        assert footprint.is_read_only
        assert footprint.reads == {addr}

    def test_control_flow_follows_committed_state(self, machine):
        flag = machine.mvmalloc(1)
        a, b = machine.mvmalloc(1), machine.mvmalloc(1)
        machine.plain_store(flag, 1)

        def branchy():
            value = yield Read(flag, "flag")
            if value:
                yield Write(a, 1, "then")
            else:
                yield Write(b, 1, "else")

        analyzer = FootprintAnalyzer(machine)
        analyzer.add_operation("branchy", branchy)
        report = analyzer.analyse()
        assert report.footprints[0].writes == {a}

    def test_writes_not_applied_to_state(self, machine):
        addr = machine.mvmalloc(1)

        def writer():
            yield Write(addr, 99)

        analyzer = FootprintAnalyzer(machine)
        analyzer.add_operation("w", writer)
        analyzer.analyse()
        assert machine.plain_load(addr) == 0

    def test_own_writes_visible_within_operation(self, machine):
        addr = machine.mvmalloc(1)
        out = machine.mvmalloc(1)

        def rmw():
            yield Write(addr, 5)
            value = yield Read(addr)
            yield Write(out, value)

        analyzer = FootprintAnalyzer(machine)
        analyzer.add_operation("rmw", rmw)
        report = analyzer.analyse()
        # the shadowed read returned 5, so both writes are in the footprint
        assert report.footprints[0].writes == {addr, out}


class TestSkewDetection:
    def test_classic_crossed_pair(self, machine):
        a, b = machine.mvmalloc(1), machine.mvmalloc(1)

        def t1():
            yield Read(a, "t1.r")
            yield Compute(1)
            yield Write(b, 1)

        def t2():
            yield Read(b, "t2.r")
            yield Compute(1)
            yield Write(a, 1)

        analyzer = FootprintAnalyzer(machine)
        analyzer.add_operation("t1", t1)
        analyzer.add_operation("t2", t2)
        report = analyzer.analyse()
        assert len(report.candidates) == 1
        candidate = report.candidates[0]
        assert candidate.ops == ("t1", "t2")
        assert candidate.read_sites == {"t1.r", "t2.r"}
        assert report.promotion_sites() == {"t1.r", "t2.r"}

    def test_overlapping_writes_excluded(self, machine):
        a = machine.mvmalloc(1)

        def rmw():
            value = yield Read(a)
            yield Write(a, value + 1)

        analyzer = FootprintAnalyzer(machine)
        analyzer.add_operation("x", rmw)
        analyzer.add_operation("y", rmw)
        assert analyzer.analyse().clean

    def test_read_only_pairs_excluded(self, machine):
        a = machine.mvmalloc(1)

        def reader():
            yield Read(a)

        def writer():
            yield Read(a)
            yield Write(a + 8, 1)

        analyzer = FootprintAnalyzer(machine)
        analyzer.add_operation("r", reader)
        analyzer.add_operation("w", writer)
        assert analyzer.analyse().clean

    def test_finds_listing2_from_one_state(self, machine):
        """The list anomaly falls out of a single populated list."""
        lst = TxLinkedList(machine)  # unsafe variant
        lst.populate([1, 2, 3, 4])
        analyzer = FootprintAnalyzer(machine)
        analyzer.add_operation("remove(2)", lambda: lst.remove(2))
        analyzer.add_operation("remove(3)", lambda: lst.remove(3))
        report = analyzer.analyse()
        assert not report.clean
        assert any(site.startswith("list.remove")
                   for site in report.promotion_sites())

    def test_fixed_list_clean(self, machine):
        lst = TxLinkedList(machine, skew_safe=True)
        lst.populate([1, 2, 3, 4])
        analyzer = FootprintAnalyzer(machine)
        analyzer.add_operation("remove(2)", lambda: lst.remove(2))
        analyzer.add_operation("remove(3)", lambda: lst.remove(3))
        assert analyzer.analyse().clean

    def test_no_operations_rejected(self, machine):
        with pytest.raises(SkewToolError):
            FootprintAnalyzer(machine).analyse()
