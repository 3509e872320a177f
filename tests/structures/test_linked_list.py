"""TxLinkedList tests, including the Listing 2 write-skew reproduction."""

import pytest

from repro.common.errors import StructureCorrupted
from repro.sim.machine import Machine
from repro.structures import TxLinkedList
from repro.structures.base import NULL

from tests.conftest import drive_plain, run_program, spec


@pytest.fixture
def lst(machine):
    lst = TxLinkedList(machine)
    lst.populate([10, 20, 30, 40])
    return lst


class TestTraversalCap:
    """A pointer cycle (the damage a write skew can do) fails fast."""

    @pytest.fixture
    def cyclic(self, machine, lst):
        node = machine.plain_load(lst.head + 1)
        first = node
        while machine.plain_load(node + 1) != NULL:
            node = machine.plain_load(node + 1)
        machine.plain_store(node + 1, first)
        lst.TRAVERSAL_CAP = 8
        return lst

    @pytest.mark.parametrize("method", ["lookup", "insert", "remove"])
    def test_cycle_raises_naming_the_method(self, machine, cyclic, method):
        with pytest.raises(StructureCorrupted, match=f"list.{method}: "
                           "traversal exceeded 8 steps"):
            drive_plain(machine, getattr(cyclic, method)(99))


class TestSequential:
    def test_populate_sorted(self, machine):
        lst = TxLinkedList(machine)
        lst.populate([30, 10, 20])
        assert lst.to_list() == [10, 20, 30]

    def test_lookup_hit_and_miss(self, machine, lst):
        assert drive_plain(machine, lst.lookup(20)) is True
        assert drive_plain(machine, lst.lookup(25)) is False

    def test_insert_keeps_order(self, machine, lst):
        assert drive_plain(machine, lst.insert(25)) is True
        assert lst.to_list() == [10, 20, 25, 30, 40]

    def test_insert_duplicate_rejected(self, machine, lst):
        assert drive_plain(machine, lst.insert(20)) is False
        assert lst.to_list() == [10, 20, 30, 40]

    def test_insert_at_head_and_tail(self, machine, lst):
        drive_plain(machine, lst.insert(5))
        drive_plain(machine, lst.insert(99))
        assert lst.to_list() == [5, 10, 20, 30, 40, 99]

    def test_remove(self, machine, lst):
        assert drive_plain(machine, lst.remove(30)) is True
        assert lst.to_list() == [10, 20, 40]

    def test_remove_absent(self, machine, lst):
        assert drive_plain(machine, lst.remove(35)) is False

    def test_remove_head_tail(self, machine, lst):
        drive_plain(machine, lst.remove(10))
        drive_plain(machine, lst.remove(40))
        assert lst.to_list() == [20, 30]

    def test_length(self, machine, lst):
        assert drive_plain(machine, lst.length()) == 4

    def test_empty_list(self, machine):
        lst = TxLinkedList(machine)
        assert lst.to_list() == []
        assert drive_plain(machine, lst.lookup(1)) is False
        assert drive_plain(machine, lst.remove(1)) is False


class TestListing2WriteSkew:
    """Adjacent removes: broken under plain SI, fixed by skew_safe."""

    def _run(self, skew_safe, seed):
        machine = Machine()
        lst = TxLinkedList(machine, skew_safe=skew_safe)
        lst.populate([1, 2, 3, 4])
        programs = [[spec(lambda: lst.remove(2), "rm2")],
                    [spec(lambda: lst.remove(3), "rm3")]]
        run_program(machine, "SI-TM", programs, seed=seed)
        return lst.to_list()

    def test_unsafe_drops_or_resurrects_nodes(self):
        outcomes = {tuple(self._run(False, seed)) for seed in range(6)}
        assert any(out != (1, 4) for out in outcomes)

    def test_fix_forces_write_write_conflict(self):
        for seed in range(6):
            assert self._run(True, seed) == [1, 4]

    def test_fix_under_serializable_systems_consistent(self):
        for system in ("2PL", "SONTM", "SSI-TM"):
            machine = Machine()
            lst = TxLinkedList(machine)
            lst.populate([1, 2, 3, 4])
            programs = [[spec(lambda: lst.remove(2), "rm2")],
                        [spec(lambda: lst.remove(3), "rm3")]]
            run_program(machine, system, programs)
            assert lst.to_list() == [1, 4]


class TestConcurrentMix:
    @pytest.mark.parametrize("system", ["2PL", "SONTM", "SI-TM"])
    def test_mixed_operations_stay_sorted(self, system):
        machine = Machine()
        lst = TxLinkedList(machine, skew_safe=True)
        lst.populate(range(0, 40, 2))
        from repro.common.rng import SplitRandom
        rng = SplitRandom(5)
        programs = []
        for t in range(4):
            r = rng.split(t)
            specs = []
            for _ in range(25):
                key = r.randrange(40)
                if r.random() < 0.5:
                    specs.append(spec(lambda k=key: lst.insert(k), "ins"))
                else:
                    specs.append(spec(lambda k=key: lst.remove(k), "rem"))
            programs.append(specs)
        run_program(machine, system, programs)
        items = lst.to_list()
        assert items == sorted(set(items))
