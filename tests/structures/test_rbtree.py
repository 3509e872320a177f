"""TxRedBlackTree tests: CLRS invariants, model-based property tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import StructureCorrupted
from repro.sim.machine import Machine
from repro.structures import TxRedBlackTree
from repro.structures.base import NULL
from repro.structures.rbtree import RIGHT

from tests.conftest import drive_plain, run_program, spec


@pytest.fixture
def tree(machine):
    tree = TxRedBlackTree(machine)
    tree.populate([50, 30, 70, 20, 40, 60, 80])
    return tree


class TestTraversalCap:
    def test_lookup_through_a_cycle_raises(self, machine, tree):
        root = node = machine.plain_load(tree.root_ptr)
        while machine.plain_load(node + RIGHT) != NULL:
            node = machine.plain_load(node + RIGHT)
        machine.plain_store(node + RIGHT, root)
        tree.TRAVERSAL_CAP = 8
        with pytest.raises(StructureCorrupted, match="rbtree.lookup: "
                           "traversal exceeded 8 steps"):
            drive_plain(machine, tree.lookup(99))


class TestSequential:
    def test_populate_inorder(self, tree):
        assert tree.keys_inorder() == [20, 30, 40, 50, 60, 70, 80]

    def test_invariants_after_populate(self, tree):
        assert tree.check_invariants()

    def test_lookup_hit(self, machine, tree):
        assert drive_plain(machine, tree.lookup(40)) == 0

    def test_lookup_miss(self, machine, tree):
        assert drive_plain(machine, tree.lookup(41)) is None

    def test_insert_with_value(self, machine, tree):
        assert drive_plain(machine, tree.insert(45, value=9)) is True
        assert drive_plain(machine, tree.lookup(45)) == 9

    def test_insert_duplicate(self, machine, tree):
        assert drive_plain(machine, tree.insert(50)) is False

    def test_remove_leaf(self, machine, tree):
        assert drive_plain(machine, tree.remove(20)) is True
        assert tree.keys_inorder() == [30, 40, 50, 60, 70, 80]
        assert tree.check_invariants()

    def test_remove_internal_two_children(self, machine, tree):
        assert drive_plain(machine, tree.remove(30)) is True
        assert tree.keys_inorder() == [20, 40, 50, 60, 70, 80]
        assert tree.check_invariants()

    def test_remove_root(self, machine, tree):
        assert drive_plain(machine, tree.remove(50)) is True
        assert 50 not in tree.keys_inorder()
        assert tree.check_invariants()

    def test_remove_absent(self, machine, tree):
        assert drive_plain(machine, tree.remove(55)) is False

    def test_remove_until_empty(self, machine, tree):
        for key in [20, 30, 40, 50, 60, 70, 80]:
            assert drive_plain(machine, tree.remove(key)) is True
            assert tree.check_invariants()
        assert tree.keys_inorder() == []

    def test_ascending_insertions_stay_balanced(self, machine):
        tree = TxRedBlackTree(machine)
        for key in range(64):
            drive_plain(machine, tree.insert(key))
        assert tree.keys_inorder() == list(range(64))
        assert tree.check_invariants()


class TestModelBased:
    """Hypothesis: arbitrary op sequences match a Python-set model."""

    @given(st.lists(st.tuples(st.sampled_from(["insert", "remove"]),
                              st.integers(0, 30)),
                    min_size=1, max_size=120))
    @settings(max_examples=60, deadline=None)
    def test_matches_set_model(self, ops):
        machine = Machine()
        tree = TxRedBlackTree(machine)
        model = set()
        for op, key in ops:
            if op == "insert":
                expected = key not in model
                result = drive_plain(machine, tree.insert(key))
                model.add(key)
            else:
                expected = key in model
                result = drive_plain(machine, tree.remove(key))
                model.discard(key)
            assert result is expected
            assert tree.check_invariants()
        assert tree.keys_inorder() == sorted(model)


class TestConcurrent:
    @pytest.mark.parametrize("system", ["2PL", "SONTM", "SSI-TM"])
    def test_serializable_systems_unsafe_tree(self, system):
        """Serializable TMs keep even the skew-prone tree healthy."""
        machine = Machine()
        tree = TxRedBlackTree(machine)  # no promotion fix
        programs = []
        for t in range(4):
            keys = list(range(t * 20, t * 20 + 20))
            programs.append([spec(lambda k=k: tree.insert(k), "ins")
                             for k in keys])
        run_program(machine, system, programs)
        assert tree.keys_inorder() == list(range(80))
        assert tree.check_invariants()

    def test_si_with_promotion_fix(self):
        machine = Machine()
        tree = TxRedBlackTree(machine, skew_safe=True)
        programs = []
        for t in range(4):
            keys = list(range(t * 20, t * 20 + 20))
            programs.append([spec(lambda k=k: tree.insert(k), "ins")
                             for k in keys])
        run_program(machine, "SI-TM", programs)
        assert tree.keys_inorder() == list(range(80))
        assert tree.check_invariants()

    def test_lookups_are_read_only_under_si(self):
        machine = Machine()
        tree = TxRedBlackTree(machine, skew_safe=True)
        tree.populate(range(30))
        programs = [[spec(lambda k=k: tree.lookup(k), "get")
                     for k in range(30)]]
        stats = run_program(machine, "SI-TM", programs)
        assert stats.total_aborts == 0
