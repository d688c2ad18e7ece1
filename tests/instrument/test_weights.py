"""Tests for the weight tables."""

import pytest

from repro.instrument.weights import UNIT_WEIGHTS, WeightTable, cycle_weight_table


def test_unit_weights_count_one_each():
    assert UNIT_WEIGHTS.weight("i32.add") == 1
    assert UNIT_WEIGHTS.block_weight(["i32.add", "nop", "end"]) == 3


def test_cycle_table_scales():
    table = cycle_weight_table(scale=10)
    assert table.weight("i64.div_s") == 580  # 58.0 cycles x10


def test_digest_is_stable_and_sensitive():
    a = cycle_weight_table()
    b = cycle_weight_table()
    assert a.digest() == b.digest()
    modified = WeightTable(dict(a.weights, **{"i32.add": 999}), a.scale, a.version)
    assert modified.digest() != a.digest()
    renamed = WeightTable(dict(a.weights), a.scale, "other-version")
    assert renamed.digest() != a.digest()


def test_unknown_instruction_rejected():
    with pytest.raises(ValueError):
        WeightTable({"i32.frob": 1})


def test_negative_weight_rejected():
    with pytest.raises(ValueError):
        WeightTable({"i32.add": -1})


def test_unlisted_instruction_defaults_to_scale():
    table = WeightTable({"i32.add": 30}, scale=10)
    assert table.weight("i64.mul") == 10
