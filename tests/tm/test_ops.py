"""Operation-descriptor tests: a descriptor is a 4-tuple led by its kind."""

import pytest

from repro.tm.ops import (ABORT, COMPUTE, READ, WRITE, Abort, Compute, Op,
                          Read, Write)


class TestRead:
    def test_defaults(self):
        assert Read(0x40) == (READ, 0x40, "", False)

    def test_promote_flag(self):
        assert Read(1, "", True)[3] is True

    def test_repr_shows_promotion(self):
        assert repr(Read(1, "s", True)) == "('Read', 1, 's', True)"
        assert repr(Read(1)) == "('Read', 1, '', False)"

    def test_is_op(self):
        assert isinstance(Read(1), Op)

    def test_arguments_are_positional_only(self):
        assert Read(1, "s", True) == (READ, 1, "s", True)
        with pytest.raises(TypeError):
            Read(1, site="x")
        with pytest.raises(TypeError):
            Write(1, 2, site="x")
        with pytest.raises(TypeError):
            Compute(cycles=2)


class TestWrite:
    def test_fields(self):
        assert Write(0x40, 7, "s") == (WRITE, 0x40, 7, "s")

    def test_repr(self):
        assert repr(Write(0x40, 7)) == "('Write', 64, 7, '')"


class TestCompute:
    def test_default_one_cycle(self):
        assert Compute() == (COMPUTE, 1, None, None)

    def test_repr(self):
        assert repr(Compute(5)) == "('Compute', 5, None, None)"


class TestAbort:
    def test_repr(self):
        assert repr(Abort()) == "('Abort', None, None, None)"
        assert Abort() == (ABORT, None, None, None)

    def test_slots_no_dict(self):
        # descriptors are built per operation: no instance, no dict
        for op in (Read(1), Write(1, 2), Compute(), Abort()):
            assert not hasattr(op, "__dict__")


@pytest.mark.parametrize("make", [lambda: Read(1, "s"), lambda: Write(1, 2),
                                  Compute, Abort],
                         ids=["Read", "Write", "Compute", "Abort"])
def test_descriptor_is_a_plain_tuple(make):
    """Every kind has the same layout, so the engine unpacks any
    descriptor once: ``kind, addr, arg, arg2 = op``."""
    op = make()
    assert type(op) is tuple
    assert len(op) == 4
    assert op[0] in (READ, WRITE, COMPUTE, ABORT)
