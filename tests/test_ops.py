"""Tests for the Operation node type."""

import pytest

from repro.ir.ops import Operation


class TestConstruction:
    def test_basic_mul(self):
        op = Operation("m", "mul", (8, 12))
        assert op.requirement == (12, 8)
        assert op.resource_kind == "mul"
        assert op.operand_widths == (8, 12)

    def test_basic_add(self):
        op = Operation("a", "add", (9, 14))
        assert op.requirement == (14,)
        assert op.resource_kind == "add"

    def test_sub_uses_adder(self):
        op = Operation("s", "sub", (10, 3))
        assert op.resource_kind == "add"
        assert op.requirement == (10,)

    def test_widths_coerced_to_int(self):
        op = Operation("m", "mul", (8.0, 12.0))
        assert op.operand_widths == (8, 12)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            Operation("", "mul", (8, 8))

    def test_non_string_name_rejected(self):
        # An int name would otherwise reach the solver, which sorts
        # names and fails on a mix of str and int.
        for name in (5, 5.0, None, ("m",)):
            with pytest.raises(ValueError, match="string"):
                Operation(name, "mul", (8, 8))

    def test_nonpositive_width_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            Operation("m", "mul", (8, 0))
        with pytest.raises(ValueError, match="positive"):
            Operation("m", "add", (-3, 4))

    def test_unknown_kind_rejected(self):
        with pytest.raises(KeyError):
            Operation("m", "frobnicate", (8, 8))


class TestValueSemantics:
    def test_equality_by_value(self):
        assert Operation("m", "mul", (8, 8)) == Operation("m", "mul", (8, 8))
        assert Operation("m", "mul", (8, 8)) != Operation("m", "mul", (8, 9))

    def test_hashable(self):
        ops = {Operation("m", "mul", (8, 8)), Operation("m", "mul", (8, 8))}
        assert len(ops) == 1

    def test_str_rendering(self):
        assert str(Operation("m3", "mul", (16, 12))) == "m3:mul[16x12]"
