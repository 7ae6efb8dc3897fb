"""Every scalar read of a scale table, and the two passage functionals that
read Z(., w) below zero, on a grid of good and bad levels.

Each call gives float bits or an error, and which error wins when a call
has several bad arguments is part of the contract: a level past x_max
first, then a family a rescaled table lacks, then a level that is not an
integer. The digests below were recorded before the accessors shared one
refusal rule, so they pin every outcome and its precedence; CHANGES.md
names each digest re-recorded since, with the outcomes that changed.

A numpy integer level must give what the Python int it equals gives, in
every scalar read and every function that takes levels, at the largest
level its dtype holds as well.
"""

import hashlib
import itertools
import struct
import warnings
from functools import partial

import numpy as np
import pytest

from skipfree import DiscountedModel, LevyChainParams, modified_geometric, w_table, wq, zq
from skipfree import dividends as dv
from skipfree import passage as pa
from skipfree import golden, scale
from skipfree.golden import cached_table, four_point_model, three_point_model

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
    "discounted_ruin_gf": "24f07f03df68587180f684f2530d0c20f4a0e4a312e775437109b80460b63d5e",
    "dw": "bd3d31f0691a66742e52e8150b551a881682b4f1e18f4d2cddc67214c3113a9d",
    "dz": "c6e0ef58f01def4b5d19cb04b9568dfe545edd8e49c6a28d24ee41a7a39d733a",
    "dz1": "1fd4fa93052efa99568e3627e2b555e5864604b72e4496a5ca3f7d91561b74ee",
    "dzw": "9dd0b9740baef88477f22c194528b94773a4cfde89571bfd5a66ded3a09cb875",
    "expected_stopped_z": "1fb7d43312065a1c03f598cb224405f7f99f101c8e09809e12f1088581c51105",
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


# every numpy integer dtype at the levels it holds of a table on 0..410, and
# at its own maximum, where a level + 1 or a difference taken in the dtype
# would wrap; the calls run with every level of the dtype, and with the last
# level any of those as a Python int, which a small dtype may not hold
DTYPES = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)
DTYPE_LEVELS = (0, 1, 2, 127, 255, 409, 410)
DTYPE_TABLES = (cached_table(four_point_model(), 0.999, 410),
                w_table(DiscountedModel(four_point_model(), 0.999), 410, rescaled=True))

# name -> (number of levels, the call on a table t and those levels)
LEVEL_CALLS = {
    **{name: (1, partial(lambda name, t, x: getattr(t, name)(x), name))
       for name in ("w", "dw", "z", "dz", "z1", "dz1")},
    "w_ratio": (2, lambda t, x, y: t.w_ratio(x, y)),
    "w_over_dw": (2, lambda t, x, b: t.w_over_dw(x, b)),
    "z_at": (1, lambda t, x: t.z_at(x, 0.5)),
    "dzw": (1, lambda t, b: t.dzw(b, 0.5)),
    "upcrossing_price": (2, lambda t, x, b: pa.upcrossing_price(t.model, x, b)),
    "two_sided_up": (2, pa.two_sided_up),
    "deficit_gf": (2, lambda t, x, b: pa.deficit_gf(t, x, b, 0.5)),
    "expected_deficit": (2, pa.expected_deficit),
    "discounted_ruin": (1, pa.discounted_ruin),
    "eventual_ruin": (1, pa.eventual_ruin),
    "discounted_ruin_gf": (1, lambda t, x: pa.discounted_ruin_gf(t, x, 0.5)),
    "killed_resolvent": (3, pa.killed_resolvent),
    "w_at_downcrossing": (2, pa.w_at_downcrossing),
    "w_at_downcrossing_upper": (3, pa.w_at_downcrossing),
    "expected_stopped_w": (2, pa.expected_stopped_w),
    "expected_stopped_z": (2, lambda t, x, n: pa.expected_stopped_z(t, x, 0.5, n)),
    "definetti_value": (2, dv.definetti_value),
    "injections_mgf": (2, lambda t, b, x: dv.injections_mgf(t, b, x, 0.5)),
    "joint_dividends_deficit": (2, lambda t, b, x: dv.joint_dividends_deficit(t, b, x, 0.5, 0.5)),
    "reflected_ruin_gf": (2, lambda t, b, x: dv.reflected_ruin_gf(t, b, x, 0.5)),
    "dividends_law_at_barrier": (1, dv.dividends_law_at_barrier),
    "dividends_law_pgf": (1, lambda t, b: dv.dividends_law_pgf(t, b, 0.5)),
    "bailout_value_reflected": (2, dv.bailout_value_reflected),
    "modified_definetti_influence": (1, lambda t, b: dv.modified_definetti_influence(t, b, 1.2)),
    "modified_definetti_value": (2, lambda t, b, x: dv.modified_definetti_value(t, b, x, 1.2)),
    "doubly_reflected_values": (2, dv.doubly_reflected_values),
    "doubly_reflected_influence": (1, lambda t, b: dv.doubly_reflected_influence(t, b, 1.2)),
    "doubly_reflected_influence_affine": (
        1, lambda t, b: dv.doubly_reflected_influence_affine(t, b, 1.2)),
    "doubly_reflected_value": (2, lambda t, b, x: dv.doubly_reflected_value(t, b, x, 1.2)),
    "multiband_diagnostics": (1, dv.multiband_diagnostics),
    **{f"optimize_barrier_{objective}": (
        2, partial(lambda objective, t, x, b_max: dv.optimize_barrier(t, objective, 1.2, x, b_max),
                   objective))
       for objective in dv.OBJECTIVES},
}


def _bits(out) -> str:
    if isinstance(out, float):
        return f"{type(out).__name__} {out.hex()}"
    if isinstance(out, tuple):
        return "(" + ", ".join(map(_bits, out)) + ")"
    return repr(out)


def _strict_outcome(fn, args) -> str:
    """_outcome under warnings as errors, for any result: a wrap in numpy warns."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = fn(*args)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return _bits(out)


def _dtype_grid(arity, call, levels_of):
    """(table rescaled, levels, their outcome, the Python-int outcome) where they differ."""
    want, diffs = {}, []
    for kind in DTYPES:
        held = levels_of(kind)
        mixed = [(*head, int(last)) for head in itertools.product(held, repeat=arity - 1)
                 for last in levels_of(np.uint64)] if arity > 1 else []
        for t in DTYPE_TABLES:
            for levels in [*itertools.product(held, repeat=arity), *mixed]:
                ints = tuple(map(int, levels))
                if (id(t), ints) not in want:
                    want[id(t), ints] = _strict_outcome(call, (t, *ints))
                got = _strict_outcome(call, (t, *levels))
                if got != want[id(t), ints]:
                    diffs.append((t.rescaled, levels, got, want[id(t), ints]))
    return diffs


def _held(kind):
    top = np.iinfo(kind).max
    return tuple(kind(x) for x in DTYPE_LEVELS if x <= top) + (kind(top),)


@pytest.mark.parametrize("name", sorted(LEVEL_CALLS))
def test_numpy_integer_levels_read_like_ints(name):
    assert _dtype_grid(*LEVEL_CALLS[name], _held) == []


# levels that size a W column of their own, so the dtype maxima stay out
OFF_TABLE_CALLS = {
    "dickson_hipp_z": lambda t, x: scale.dickson_hipp_z(t.model, 0.5, x),
    "wq": lambda t, m: wq(LevyChainParams(2.0, 0.5, t.model.dist), 0.4, m),
    "zq": lambda t, m: zq(LevyChainParams(2.0, 0.5, t.model.dist), 0.4, m),
}


@pytest.mark.parametrize("name", sorted(OFF_TABLE_CALLS))
def test_numpy_integer_levels_size_columns_like_ints(name):
    assert _dtype_grid(1, OFF_TABLE_CALLS[name], lambda kind: _held(kind)[:-1]) == []


# the golden battery's closed forms take a level and no table
MODGEOM = modified_geometric(0.6, 0.24, 0.4)
CLOSED_FORMS = {
    name: partial(lambda form, t, x: form(MODGEOM, 0.9, x), getattr(golden, name))
    for name in ("closed_form_w_modgeom", "closed_form_z_modgeom")
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_numpy_integer_levels_give_closed_forms_like_ints(name):
    assert _dtype_grid(1, CLOSED_FORMS[name], _held) == []


@pytest.mark.parametrize("rescaled", [False, True])
def test_numpy_integer_table_size_builds_like_int(rescaled):
    model = DiscountedModel(four_point_model(), 0.999)
    want = w_table(model, 255, rescaled)
    for kind in (np.uint8, np.int16, np.uint64):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = w_table(model, kind(255), rescaled)
        assert got.x_max.__class__ is int and got.tilted_w_array().tobytes() == \
            want.tilted_w_array().tobytes()
