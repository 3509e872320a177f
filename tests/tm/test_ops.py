"""Operation-descriptor tests."""

import pytest

from repro.tm.ops import Abort, Compute, Op, Read, Write


class TestRead:
    def test_defaults(self):
        op = Read(0x40)
        assert op.addr == 0x40
        assert op.promote is False
        assert op.site == ""

    def test_promote_flag(self):
        assert Read(1, "", True).promote is True

    def test_repr_shows_promotion(self):
        assert "promote" in repr(Read(1, "", True))
        assert "promote" not in repr(Read(1))

    def test_is_op(self):
        assert isinstance(Read(1), Op)

    def test_arguments_are_positional_only(self):
        assert Read(1, "s", True).site == "s"
        with pytest.raises(TypeError):
            Read(1, site="x")
        with pytest.raises(TypeError):
            Write(1, 2, site="x")


class TestWrite:
    def test_fields(self):
        op = Write(0x40, 7, "s")
        assert (op.addr, op.value, op.site) == (0x40, 7, "s")

    def test_repr(self):
        assert "0x40" in repr(Write(0x40, 7))


class TestCompute:
    def test_default_one_cycle(self):
        assert Compute().cycles == 1

    def test_repr(self):
        assert "5" in repr(Compute(5))


class TestAbort:
    def test_repr(self):
        assert repr(Abort()) == "Abort()"

    def test_slots_no_dict(self):
        # descriptors are allocated per operation: keep them lean
        for op in (Read(1), Write(1, 2), Compute(), Abort()):
            assert not hasattr(op, "__dict__")
