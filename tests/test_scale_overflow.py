"""Where the W and Z recursions leave float range.

The recursions solve 32 levels at a time and round each block into the
float column; from the first value past float range on, the column
reads inf. A block is scanned for that value only when its sum is not
finite. The pins cover a first inf in the middle of a block and blocks
whose entries are all finite while their sum is not.
"""

import hashlib
import math

import numpy as np
import pytest

from skipfree import DiscountedModel, validate, w_table
from skipfree.golden import four_point_model
from skipfree.scale import _BLOCK, _LD, _store, _w_array, _w_array_alt, z_table_w

HEAVY = validate(["1/2", "0", "0", "1/2"])


def _digest(col):
    return hashlib.sha256(np.asarray(col, dtype=float).tobytes()).hexdigest()


def _first_inf(col):
    """The first level that is not finite; every level from there on is inf."""
    bad = np.flatnonzero(~np.isfinite(col))
    if not bad.size:
        return None
    assert np.isinf(col[bad[0]:]).all() and (col[bad[0]:] > 0).all()
    return int(bad[0])


def _sum_overflows(block):
    with np.errstate(over="ignore"):
        return np.isfinite(block).all() and not math.isfinite(block.sum())


# (law, v, x_max) -> ((digest, first inf) of W, of the self-check W, of Z(., 0.5))
CASES = {
    # W(1751) = 1.49e308, W(1752) is past float range: level 24 of its block
    (four_point_model, 0.8, 1800): (
        ("5281510491c364452ff7492e828ad0f5a628b0280efb2d2377ec298a5e65d7ad", 1752),
        ("cb95b60c8cb680fde7c328f932f14e0e4db76f34b5c82cc6f94975bf311132bf", 1752),
        ("f9a710d60bb9d0f4d1c14fe4a71534c91f5c70dae5de7011b0cd8ed96797248b", 1753)),
    # the block on 1440..1471 is finite with a sum past float range; W(1473) is inf
    (lambda: HEAVY, 1.0, 1500): (
        ("59774981426f04a43bfde1af2b131d1b7b45d9ad18f787a58ecee729c2bf0289", 1473),
        ("82a15ac66c2fea2f6ef3ddbd354cc3ab9d65a65d45c4f49d8c1ef60850df2ae2", 1473),
        ("b6bd5884cc8def9b52333da32facbb3444eb0185a4b52fec05fae0fda08536ba", 1475)),
    # the last block, 2848..2869, is finite with a sum past float range
    (four_point_model, 0.9, 2869): (
        ("c958cd3239a14f653093d32793f1a328fbb2006a679191dc824ff65f9e7f04c0", None),
        ("d63285d5de2e329bf7a9e14bb05d1bb929e9174546626ddb9719dafc96bacb12", None),
        ("2e2a14b5ac3598a9885af530613e765a5812d978e36ddb8407718b4eae4b1c72", None)),
}


@pytest.mark.parametrize("case", list(CASES), ids=["mid_block", "finite_sum_overflow", "last_block"])
def test_columns_past_float_range_are_pinned(case):
    law, v, x_max = case
    model = DiscountedModel(law(), v)
    cols = (_w_array(model, x_max), _w_array_alt(model, x_max), z_table_w(model, 0.5, x_max))
    assert [(_digest(c), _first_inf(c)) for c in cols] == list(CASES[case])


def test_the_cases_reach_each_branch_of_the_block_test():
    w = _w_array(DiscountedModel(four_point_model(), 0.8), 1800)
    assert _first_inf(w) % _BLOCK not in (0, _BLOCK - 1)
    w = _w_array(DiscountedModel(HEAVY, 1.0), 1500)
    assert _sum_overflows(w[1440: 1472]) and _first_inf(w) == 1473
    w = _w_array(DiscountedModel(four_point_model(), 0.9), 2869)
    assert _sum_overflows(w[2848:])


def test_a_table_whose_last_block_sum_overflows_builds():
    t = w_table(DiscountedModel(four_point_model(), 0.9), 2869)
    assert _digest(t.w_array()) == CASES[(four_point_model, 0.9, 2869)][0][0]


# extended-precision entries, written as strings: 1e400 is finite there
@pytest.mark.parametrize("blk, ok, first_inf", [
    (["1", "2", "3"], True, None),
    (["1.7e308", "1.7e308", "1"], True, None),  # the sum overflows, no entry does
    (["1", "1.7e308", "1e400", "2"], False, 2),  # past float range in mid-block
    (["1", "nan", "2"], False, 1),
    (["1e400", "1"], False, 0),
])
def test_store_rounds_a_block_and_flags_its_first_value_past_float_range(blk, ok, first_inf):
    out, floats = np.zeros(8), np.array(blk, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        assert _store(out, 3, np.array(blk, dtype=_LD)) is ok
    assert (out[:3] == 0.0).all()
    if first_inf is None:
        assert np.array_equal(out[3: 3 + len(blk)], floats) and (out[3 + len(blk):] == 0.0).all()
    else:
        assert np.array_equal(out[3: 3 + first_inf], floats[:first_inf])
        assert np.isinf(out[3 + first_inf:]).all()
