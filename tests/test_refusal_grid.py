"""Every scalar read of a scale table, and the two passage functionals that
read Z(., w) below zero, on a grid of good and bad levels.

Each call gives float bits or an error, and which error wins when a call
has several bad arguments is part of the contract: a level past x_max
first, then a family a rescaled table lacks, then a level that is not an
integer. The digests below were recorded before the accessors shared one
refusal rule, so they pin every outcome and its precedence; CHANGES.md
names each digest re-recorded since, with the outcomes that changed.
"""

import hashlib
import struct
from functools import partial

import numpy as np
import pytest

from skipfree import DiscountedModel, w_table
from skipfree import dividends as dv
from skipfree import passage as pa
from skipfree.golden import four_point_model, three_point_model

TABLES = (
    w_table(DiscountedModel(three_point_model(), 0.9), 10),
    w_table(DiscountedModel(three_point_model(), 0.9), 10, rescaled=True),
    # the rescaled W leaves float range at 1752
    w_table(DiscountedModel(four_point_model(), 0.8), 2002, rescaled=True),
)
WS = (0.5, 1.5)


def _levels(x_max):
    return (-2**70, -2, -1, -0.5, 0, 3, x_max, x_max + 1, 2**70, 2.0, 3.5, True, False,
            np.int64(4), np.float64(4.0))


def _one(name):
    return lambda t, xs: [(getattr(t, name), (x,)) for x in xs]


def _two(name):
    return lambda t, xs: [(getattr(t, name), (x, y)) for x in xs for y in xs]


def _with_w(name):
    return lambda t, xs: [(getattr(t, name), (x, w)) for x in xs for w in WS]


# accessor or functional -> the calls it makes on a table t with levels xs
CALLS = {
    **{name: _one(name) for name in ("w", "dw", "z", "dz", "z1", "dz1")},
    **{name: _two(name) for name in ("w_ratio", "w_over_dw")},
    **{name: _with_w(name) for name in ("z_at", "dzw")},
    "discounted_ruin_gf": lambda t, xs: [(partial(pa.discounted_ruin_gf, t), (x, w))
                                         for x in xs for w in WS],
    "expected_stopped_z": lambda t, xs: [(partial(pa.expected_stopped_z, t), (x, w, n))
                                         for x in xs for w in WS for n in xs],
}

PINS = {
    "discounted_ruin_gf": "6c84587b532d466f510eeb7fc93b25a6a244ca080595978311b999128845e774",
    "dw": "bd3d31f0691a66742e52e8150b551a881682b4f1e18f4d2cddc67214c3113a9d",
    "dz": "c6e0ef58f01def4b5d19cb04b9568dfe545edd8e49c6a28d24ee41a7a39d733a",
    "dz1": "1fd4fa93052efa99568e3627e2b555e5864604b72e4496a5ca3f7d91561b74ee",
    "dzw": "9dd0b9740baef88477f22c194528b94773a4cfde89571bfd5a66ded3a09cb875",
    "expected_stopped_z": "4f89479b1a5a9924201cafd2006762f23e6b26e3c7090a64c46d1a1e46e2c3cf",
    "w": "bb896449874da5d097a3b55d1ab037b3e4dcbac86b469a69e6d89294a855f66d",
    "w_over_dw": "7b0e52da85ef5439ca630ad368b8ca23bf6d222513fc84c6e3b69cb799971ca3",
    "w_ratio": "1fae77b79f2bd4c0232b647db5d6d627e2b8726ca5c4c10864a036168854cf1d",
    "z": "c01b927fb168375faa1591a08344abdec2d23e6d05ce1a00bd1b562bef62f913",
    "z1": "8d3ccd56dd1766ad1c39b2ada2186fc7d236567a332dfb4536cc3898653246ed",
    "z_at": "4d652b06632010df9894b66e5ba9232c9d3ab46ba5737c1783552998ac037e8e",
}


def _outcome(fn, args) -> str:
    """The type and float bits of a result, or the class and message of the error."""
    try:
        out = fn(*args)
    except Exception as exc:  # a bad level may also reach numpy's own errors
        return f"{type(exc).__name__}: {exc}"
    return f"{type(out).__name__} {struct.pack('<d', out).hex()}"


def _lines(name):
    for i, table in enumerate(TABLES):
        for fn, args in CALLS[name](table, _levels(table.x_max)):
            yield f"{i} {name}{args} -> {_outcome(fn, args)}"


def _digest(name):
    return hashlib.sha256("\n".join(_lines(name)).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CALLS))
def test_refusal_grid_pin(name):
    assert _digest(name) == PINS[name]


# numpy scalars, which a column view and ndarray.item index alike except
# np.True_ and np.False_, and the last level and one past it
NUMPY_LEVELS = (np.True_, np.False_, np.int32(3), np.uint64(3), np.int8(-1), np.int64(10),
                10, 11)

NUMPY_PINS = {
    "dw": "bef34fe2cdbdc96a0b4016139975ffc5c2f725f0509463f61e4e7c1113799f53",
    "dz": "d08c53fb34efcd7d0391183c526e93150fab06c61cdbd29961d6fafa7d5d4c8e",
    "dz1": "730413ae5be713a3158650e0600e220f6fb3496bbcd73623d0bde5591223060e",
    "dzw": "bd86ea6cfbd97cb008ccb4218f139efac0d6bc8fccd6e42d4b39a32b92a945a2",
    "w": "b6006faabb5b9e85bd085541e1a7fcfb211c8d45e9e5d4808d2ea43f5ecf92e6",
    "w_over_dw": "dd561e3b9707bd50584081948522dfeb3d9729157373d1a7ec3f128b52fa7b1f",
    "w_ratio": "82030656f67e77db96609fcc384a63f7e7f723bb70799f90c56eb6033014a9ef",
    "z": "c428990dab4a85a3ad542280887bc818808d5aea96b0827d3b679dc55f093e0c",
    "z1": "fa022c9a4ac0bc5c5db1391b144349d8d32d2fede29c4dc8806be1641509fe7b",
    "z_at": "5a2c08ffe15494a4b641c4de883e7ae211997e7cc6955f3395efc71e5b2db5c8",
}


@pytest.mark.parametrize("name", sorted(set(CALLS) - {"discounted_ruin_gf", "expected_stopped_z"}))
def test_numpy_levels_pin(name):
    lines = (f"{i} {name}{args} -> {_outcome(fn, args)}" for i, table in enumerate(TABLES[:2])
             for fn, args in CALLS[name](table, NUMPY_LEVELS))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == NUMPY_PINS[name]


# the same levels as np.uint64 and np.uint8, which a difference taken in
# their own type would wrap below the barrier or the target state
UNSIGNED_LEVELS = (0, 1, 2, 4)
UNSIGNED_CALLS = {
    "killed_resolvent": lambda t, xs: [(partial(pa.killed_resolvent, t), (i, j, 4))
                                       for i in xs for j in xs],
    "doubly_dividends": lambda t, xs: [(lambda b, x: dv.doubly_reflected_values(t, b, x)[0],
                                        (b, x)) for b in xs for x in xs],
    "doubly_bailouts": lambda t, xs: [(lambda b, x: dv.doubly_reflected_values(t, b, x)[1],
                                       (b, x)) for b in xs for x in xs],
}
UNSIGNED_PINS = {
    "doubly_bailouts": "2fba8a2668745af9ecfd19705db37a88762cbd05a3c75fc47f6ff0892ea80d5b",
    "doubly_dividends": "940d6ace38b6e071321139c9e0cc4777f22993fa0169ff2df0aa6ce14416cc20",
    "killed_resolvent": "73ac49b572d22577919e6253fbeffeabca82c28bf6353dab43d82544f6d82a45",
}


@pytest.mark.parametrize("name", sorted(UNSIGNED_CALLS))
def test_unsigned_levels_read_like_ints_pin(name):
    lines = []
    for i, table in enumerate(TABLES[:2]):
        want = [_outcome(fn, args) for fn, args in UNSIGNED_CALLS[name](table, UNSIGNED_LEVELS)]
        for kind in (np.uint64, np.uint8):
            levels = tuple(kind(x) for x in UNSIGNED_LEVELS)
            got = [_outcome(fn, args) for fn, args in UNSIGNED_CALLS[name](table, levels)]
            assert got == want, kind
        lines += [f"{i} {name} -> {outcome}" for outcome in want]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == UNSIGNED_PINS[name]
