"""TxArray tests."""

import pytest

from repro.sim.machine import Machine

from repro.structures import TxArray

from tests.conftest import drive_plain, mvm_lines, run_program, spec


@pytest.fixture
def array(machine):
    arr = TxArray(machine, 32)
    arr.populate(range(32))
    return arr


class TestSequential:
    def test_populate_snapshot(self, array):
        assert array.snapshot() == list(range(32))

    def test_get(self, machine, array):
        assert drive_plain(machine, array.get(5)) == 5

    def test_set(self, machine, array):
        drive_plain(machine, array.set(5, 99))
        assert array.snapshot()[5] == 99

    def test_add_returns_new_value(self, machine, array):
        assert drive_plain(machine, array.add(3, 10)) == 13

    def test_sum_all(self, machine, array):
        assert drive_plain(machine, array.sum_all()) == sum(range(32))

    def test_sum_range(self, machine, array):
        assert drive_plain(machine, array.sum_range(4, 8)) == 4 + 5 + 6 + 7

    def test_bounds_checked(self, array):
        with pytest.raises(IndexError):
            array.get(32)
        with pytest.raises(IndexError):
            array.set(-1, 0)

    def test_scan_past_the_end_raises(self, machine, array):
        with pytest.raises(IndexError):
            drive_plain(machine, array.sum_range(30, 40))

    def test_rejected_populate_stores_nothing(self, machine):
        array = TxArray(machine, 10)
        array.populate([7] * 3)
        before = array.snapshot(), mvm_lines(machine)
        with pytest.raises(IndexError):
            array.populate(range(11))
        assert (array.snapshot(), mvm_lines(machine)) == before

    def test_invalid_size(self, machine):
        with pytest.raises(ValueError):
            TxArray(machine, 0)


class TestTransactional:
    @pytest.mark.parametrize("system", ["2PL", "SONTM", "SI-TM"])
    def test_concurrent_disjoint_adds(self, system):
        machine = Machine()
        arr = TxArray(machine, 64)
        arr.populate([0] * 64)
        programs = [
            [spec(lambda i=i, t=t: arr.add(t * 16 + i % 16, 1), "add")
             for i in range(32)]
            for t in range(4)]
        stats = run_program(machine, system, programs)
        assert stats.total_commits == 128
        assert sum(arr.snapshot()) == 128

    def test_scan_is_read_only_under_si(self):
        machine = Machine()
        arr = TxArray(machine, 16)
        arr.populate([1] * 16)
        results = []

        def scan():
            total = yield from arr.sum_all()
            results.append(total)

        stats = run_program(machine, "SI-TM", [[spec(scan, "scan")]])
        assert results == [16]
        assert stats.total_aborts == 0
