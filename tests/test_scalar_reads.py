"""Scalar reads of the scale tables and the functionals built on them.

A scalar accessor reads one or two column entries as Python floats, and
a scalar influence evaluates its objective's scan formula on them. Both
must give the column entry, its increment or the scan's H(b) bit for
bit, nan and inf included, and every functional built on them must keep
its values, errors and messages; the digests below were recorded before
the scalar reads left numpy scalars.
"""

import hashlib
import math
import struct

import numpy as np
import pytest

from skipfree import (
    DiscountedModel,
    DomainError,
    OutOfTable,
    OverflowSignal,
    SkipfreeError,
    modified_geometric,
    w_table,
)
from skipfree import dividends as dv
from skipfree import passage as pa
from skipfree import scale
from skipfree.golden import four_point_model, three_point_model, two_point_model

LAWS = {
    "two_point": two_point_model(),
    "three_point": three_point_model(),
    "four_point": four_point_model(),
    "modified_geometric": modified_geometric(p0=0.6, p1=0.24, alpha=0.4),
}
# (law, v, x_max, rescaled tables only). At v = 1, dW rounds to 0 from
# b = 32 (two-point), 55 (three-point) and 88 (modified geometric) on, and
# from b = 1450 on for the four-point law; at v = 0.8 its rescaled W leaves
# float range at 1752.
CASES = [(law, v, 120, False) for law in LAWS for v in (0.8, 0.999, 1.0)] + [
    ("four_point", 1.0, 1502, False), ("four_point", 0.8, 2002, True)]
# x_max -> (starting levels, barriers)
LEVELS = {
    120: ((-2, 0, 3, 33, 60, 119, 120), (0, 5, 32, 57, 97, 118, 119, 120)),
    1502: ((-1, 0, 700, 1450, 1501), (0, 1448, 1450, 1478, 1499, 1501)),
    2002: ((0, 900, 1752, 2001), (0, 1700, 1751, 1752, 2001)),
}


def _tables(law, v, n, rescaled_only):
    model = DiscountedModel(LAWS[law], v)
    rescaled = w_table(model, n, rescaled=True)
    return (rescaled,) if rescaled_only else (w_table(model, n), rescaled)


# functional -> the calls it makes on a table t with levels xs and barriers bs
CALLS = {
    "two_sided_up": lambda t, xs, bs: [(pa.two_sided_up, (t, x, b)) for x in xs for b in bs],
    "deficit_gf": lambda t, xs, bs: [(pa.deficit_gf, (t, x, b, w))
                                     for x in xs for b in bs for w in (0.3, 1.0)],
    "expected_deficit": lambda t, xs, bs: [(pa.expected_deficit, (t, x, b))
                                           for x in xs for b in bs],
    "ruin": lambda t, xs, bs: [(f, (t, x)) for x in xs
                               for f in (pa.discounted_ruin, pa.eventual_ruin)],
    "discounted_ruin_gf": lambda t, xs, bs: [(pa.discounted_ruin_gf, (t, x, 0.7)) for x in xs],
    "killed_resolvent": lambda t, xs, bs: [(pa.killed_resolvent, (t, i, j, u))
                                           for i in (0, 4) for j in (0, 2) for u in bs[1:]],
    "w_at_downcrossing": lambda t, xs, bs: [(pa.w_at_downcrossing, (t, x, b, u))
                                            for x in xs for b in bs[:3] for u in (None, bs[-1])],
    "definetti_value": lambda t, xs, bs: [(dv.definetti_value, (t, b, x))
                                          for x in xs for b in bs],
    "injections_mgf": lambda t, xs, bs: [(dv.injections_mgf, (t, b, x, 0.3))
                                         for x in xs for b in bs],
    "joint_dividends_deficit": lambda t, xs, bs: [(dv.joint_dividends_deficit, (t, b, x, w, z))
                                                  for x in xs for b in bs
                                                  for w, z in ((0.3, 0.6), (1.0, 1.0))],
    "reflected_ruin_gf": lambda t, xs, bs: [(dv.reflected_ruin_gf, (t, b, x, 0.3))
                                            for x in xs for b in bs],
    "dividends_law": lambda t, xs, bs: [call for b in bs for call in (
        (dv.dividends_law_at_barrier, (t, b)), (dv.dividends_law_pgf, (t, b, 0.5)))],
    "bailout_value_reflected": lambda t, xs, bs: [(dv.bailout_value_reflected, (t, b, x))
                                                  for x in xs for b in bs],
    "modified_definetti": lambda t, xs, bs: [call for b in bs for k in (0.0, 1.2) for call in (
        (dv.modified_definetti_influence, (t, b, k)),
        *((dv.modified_definetti_value, (t, b, x, k)) for x in xs))],
    "doubly_reflected": lambda t, xs, bs: [call for b in bs for k in (0.0, 1.2) for call in (
        (dv.doubly_reflected_influence, (t, b, k)),
        (dv.doubly_reflected_influence_affine, (t, b, k)),
        *((dv.doubly_reflected_value, (t, b, x, k)) for x in xs),
        *((dv.doubly_reflected_values, (t, b, x)) for x in xs))],
}

PINS = {
    "bailout_value_reflected": "900124797bc9aa585536bcb750f997223594840e4dd32d432afcdcf9c1b3f87b",
    "deficit_gf": "36e6c6249bedd28939fc3d78c2f603745a42261d37c6a6eddd41050818c7d9fc",
    "definetti_value": "e6a7eb65604904dfa97a38854491eaabe2761ec11c870ab75a6801c80f6d310f",
    "discounted_ruin_gf": "3f493889b4d0546d7637c832afa18d77268b866826a8b5e4260addfd601ae3ee",
    "dividends_law": "40817eb2016c328a547b6af1a2db21fb3cb673cbb32ce3292f1b6a9df2e4e3be",
    "doubly_reflected": "e7700147015e51b8cfa48d4313da5ec816e947b7f26a2356a3321061a8e0232a",
    "expected_deficit": "5710aefa845f3db1cf8dfe6b00340a5235d3804703703635f038a2085f0594ec",
    "injections_mgf": "90fd5185bc5a84105a7e975de31dd4aef7a546a8e0011b06380cf4974974875d",
    "joint_dividends_deficit": "8c187aff2631c84c8827d19d4cb84b5730ef02b6a41747b9817d47f9808fce9f",
    "killed_resolvent": "70aae4cd651657e8fdbd3b17b10ab75d40076f8e4601adf1d4019d81e57af87c",
    "modified_definetti": "95940ec41a610ac85a5a63ca9bb99acc52d4349dc089345567009af6eaea03d6",
    "reflected_ruin_gf": "6900f870e1800ceca4b053d3972e15ec891f6e1123f76aa6c8d0ea0760505045",
    "ruin": "1e69400a721c55d8c448187738740a1f0aea9b3c5f92151e451eab9c6db90da7",
    "two_sided_up": "6d2b31b21b80be1a01856beedb18752c262fef04e7920f55af3622ce4af24cd0",
    "w_at_downcrossing": "58cb8cb7b157f5573467ef385d1716fb973945941f6e20edbb975d9d9781efe3",
}


def _outcome(fn, args) -> bytes:
    """The float bits of a result, or the class and message of the error it raised."""
    try:
        out = fn(*args)
    except SkipfreeError as exc:
        return f"{type(exc).__name__}: {exc}".encode()
    return b"".join(struct.pack("<d", val) for val in np.atleast_1d(out).tolist())


def _digest(functional):
    h = hashlib.sha256()
    for law, v, n, rescaled_only in CASES:
        xs, bs = LEVELS[n]
        for table in _tables(law, v, n, rescaled_only):
            for fn, args in CALLS[functional](table, xs, bs):
                h.update(_outcome(fn, args) + b"|")
    return h.hexdigest()


@pytest.mark.parametrize("functional", sorted(CALLS))
def test_scalar_functional_pin(functional):
    assert _digest(functional) == PINS[functional]


def _same(got, want):
    """Equal as float64, nan equal to nan; got must hold Python floats."""
    assert all(type(val) is float for val in got)
    assert np.array_equal(np.asarray(got, dtype=float), np.asarray(want, dtype=float),
                          equal_nan=True)


@pytest.mark.parametrize("law, v, n, rescaled_only", CASES[:-1])
def test_scalar_reads_equal_the_columns(law, v, n, rescaled_only):
    table, rescaled = _tables(law, v, n, rescaled_only)
    levels, steps = range(n + 1), range(n)
    W, Z, Z1 = table.w_array(), table.zw_array(1.0), table._z1_values()
    Zw = table.zw_array(0.3)
    _same([table.w(x) for x in levels], W)
    _same([table.z(x) for x in levels], Z)
    _same([table.z1(x) for x in levels], Z1)
    _same([table.z_at(x, 0.3) for x in levels], Zw)
    _same([table.dw(b) for b in steps], W[1:] - W[:-1])
    _same([table.dz(b) for b in steps], Z[1:] - Z[:-1])
    _same([table.dz1(b) for b in steps], Z1[1:] - Z1[:-1])
    _same([table.dzw(b, 0.3) for b in steps], Zw[1:] - Zw[:-1])
    _same([table.w_ratio(x, 57) for x in levels], W / W[57])
    with np.errstate(divide="ignore"):
        _same([table.w_over_dw(13, b) for b in steps], W[13] / (W[1:] - W[:-1]))
        _same([dv.definetti_value(table, b, 0) for b in steps], W[0] / (W[1:] - W[:-1]))
    # the scalar influences give the scan's H(b), inf and nan where dW is 0
    for objective, influence in (("modified_definetti", dv.modified_definetti_influence),
                                 ("doubly_reflected", dv.doubly_reflected_influence)):
        if objective == "doubly_reflected" and v == 1.0:
            continue
        for k in (0.0, 1.2):
            trace = dv.optimize_barrier(table, objective, k, 0, n - 1).trace
            _same([influence(table, b, k) for b in steps], [h for _, h in trace])
    tilted, phi = rescaled.tilted_w_array(), rescaled.phi
    _same([rescaled.w_ratio(x, 57) for x in levels],
          [tilted[x] / tilted[57] * phi ** float(57 - x) for x in levels])
    with np.errstate(divide="ignore"):
        _same([rescaled.w_over_dw(13, b) for b in steps],
              [tilted[13] / (tilted[b + 1] - phi * tilted[b]) * phi ** float(b + 1 - 13)
               for b in steps])


def test_saturated_influences_equal_the_scan():
    # four-point law at v = 1: dW is 0 at 31 b in 1450..1500, dZ1 is not
    table = _tables("four_point", 1.0, 1502, False)[0]
    for k in (0.0, 1.2):
        trace = [h for _, h in dv.optimize_barrier(table, "modified_definetti", k, 0, 1500).trace]
        assert sum(not math.isfinite(h) for h in trace) == 31
        _same([dv.modified_definetti_influence(table, b, k) for b in range(1501)], trace)
        # a numpy k: the same values, and no warning at dW = 0
        _same([dv.modified_definetti_influence(table, b, np.float64(k))
               for b in range(1450, 1501)], trace[1450:])
    # modified geometric law at v = 1: k = 1 / dZ1(97) gives 0 / 0 at b = 97
    table = _tables("modified_geometric", 1.0, 120, False)[0]
    k = 1.0 / table.dz1(97)
    trace = [h for _, h in dv.optimize_barrier(table, "modified_definetti", k, 0, 118).trace]
    assert math.isnan(trace[97])
    _same([dv.modified_definetti_influence(table, b, k) for b in range(119)], trace)
    assert struct.pack("<d", dv.modified_definetti_influence(table, 97, k)) == \
        struct.pack("<d", trace[97])


PLAIN = w_table(DiscountedModel(LAWS["three_point"], 0.9), 10)
RESCALED = w_table(DiscountedModel(LAWS["three_point"], 0.9), 10, rescaled=True)
PAST_RANGE = w_table(DiscountedModel(LAWS["four_point"], 0.8), 2002, rescaled=True)
BEYOND = "x = {} beyond table range 0..10"
NEGATIVE = "difference index must be nonnegative"


@pytest.mark.parametrize("call, error, message", [
    (lambda: PLAIN.w(11), OutOfTable, BEYOND.format(11)),
    (lambda: PLAIN.w_ratio(3, 11), OutOfTable, BEYOND.format(11)),
    (lambda: PLAIN.w_ratio(11, 3), OutOfTable, BEYOND.format(11)),
    (lambda: PLAIN.w_ratio(-1, 11), OutOfTable, BEYOND.format(11)),
    (lambda: PLAIN.w_ratio(3, -1), DomainError, "denominator index must be nonnegative"),
    (lambda: PLAIN.w_over_dw(3, 10), OutOfTable, BEYOND.format(11)),
    (lambda: PLAIN.w_over_dw(11, 3), OutOfTable, BEYOND.format(11)),
    (lambda: PLAIN.w_over_dw(3, -1), DomainError, NEGATIVE),
    (lambda: PLAIN.dw(10), OutOfTable, BEYOND.format(11)),
    (lambda: PLAIN.dw(-1), DomainError, NEGATIVE),
    (lambda: PLAIN.z(11), OutOfTable, BEYOND.format(11)),
    (lambda: PLAIN.dz(10), OutOfTable, BEYOND.format(11)),
    (lambda: PLAIN.dz(-1), DomainError, NEGATIVE),
    (lambda: PLAIN.z1(11), OutOfTable, BEYOND.format(11)),
    (lambda: PLAIN.dz1(-3), DomainError, NEGATIVE),
    (lambda: PLAIN.z_at(11, 0.5), OutOfTable, BEYOND.format(11)),
    (lambda: PLAIN.z_at(3, 1.5), DomainError, "transform argument 1.5 outside (0, 1]"),
    (lambda: PLAIN.z_at(-1, 0.0), DomainError, "transform argument 0.0 outside (0, 1]"),
    (lambda: PLAIN.dzw(10, 0.5), OutOfTable, BEYOND.format(11)),
    (lambda: PLAIN.dzw(-1, 0.5), DomainError, NEGATIVE),
    (lambda: PLAIN.dzw(3, 2.0), DomainError, "transform argument 2.0 outside (0, 1]"),
    (lambda: RESCALED.w(11), OutOfTable, BEYOND.format(11)),
    (lambda: RESCALED.z(3), DomainError, "Z is unavailable on a rescaled table"),
    (lambda: RESCALED.z(11), OutOfTable, BEYOND.format(11)),
    (lambda: RESCALED.dz(3), DomainError, "Z is unavailable on a rescaled table"),
    (lambda: RESCALED.dz(10), OutOfTable, BEYOND.format(11)),
    (lambda: RESCALED.z1(3), DomainError, "Z1 is unavailable on a rescaled table"),
    (lambda: RESCALED.dz1(3), DomainError, "Z1 is unavailable on a rescaled table"),
    (lambda: RESCALED.z_at(3, 0.5), DomainError, "Z(., w) is unavailable on a rescaled table"),
    (lambda: RESCALED.dzw(3, 0.5), DomainError, "Z(., w) is unavailable on a rescaled table"),
    (lambda: RESCALED.dzw(10, 0.5), OutOfTable, BEYOND.format(11)),
    (lambda: dv.modified_definetti_influence(RESCALED, 3, 1.2), DomainError,
     "Z1 is unavailable on a rescaled table"),
    (lambda: dv.modified_definetti_influence(PLAIN, 10, 1.2), OutOfTable, BEYOND.format(11)),
    (lambda: dv.modified_definetti_influence(PLAIN, 3, -1.0), DomainError,
     "penalty factor k must be nonnegative"),
    (lambda: dv.doubly_reflected_influence(PLAIN, -1, 1.2), DomainError, NEGATIVE),
    (lambda: PAST_RANGE.w(1800), OverflowSignal, "W(1800) exceeds float range"),
    (lambda: PAST_RANGE.dw(1751), OverflowSignal, "W(1752) exceeds float range"),
    (lambda: PAST_RANGE.dw(1900), OverflowSignal, "W(1901) exceeds float range"),
    (lambda: dv.dividends_law_at_barrier(PAST_RANGE, 1760), OverflowSignal,
     "W(1761) exceeds float range"),
    (lambda: PAST_RANGE.w_ratio(1800, 10), OverflowSignal, "W(1800)/W(10) exceeds float range"),
])
def test_errors_keep_their_type_and_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("call, level", [
    (lambda: PLAIN.w(3.5), "3.5"),
    (lambda: PLAIN.w(True), "True"),
    (lambda: PLAIN.w_ratio(2, 2.0), "2.0"),
    (lambda: PLAIN.w_ratio(2.5, 4), "2.5"),
    (lambda: PLAIN.w_over_dw(1.5, 4), "1.5"),
    (lambda: PLAIN.w_over_dw(1, 4.0), "4.0"),
    (lambda: PLAIN.dw(2.5), "2.5"),
    (lambda: PLAIN.dw(True), "True"),
    (lambda: PLAIN.z(np.float64(2.0)), "np.float64(2.0)"),
    (lambda: PLAIN.dz(0.5), "0.5"),
    (lambda: PLAIN.z1(1.5), "1.5"),
    (lambda: PLAIN.dz1(0.5), "0.5"),
    (lambda: PLAIN.z_at(2.5, 0.5), "2.5"),
    (lambda: PLAIN.dzw(True, 0.5), "True"),
    (lambda: RESCALED.w(3.5), "3.5"),
    (lambda: RESCALED.w_ratio(2, 2.0), "2.0"),
    # a level below zero is not read, but the other level is
    (lambda: PLAIN.w_ratio(-1, 3.5), "3.5"),
    (lambda: PLAIN.w_ratio(-0.5, True), "True"),
    (lambda: RESCALED.w_ratio(-2, np.float64(4.0)), "np.float64(4.0)"),
    (lambda: PLAIN.w_over_dw(-1, 2.0), "2.0"),
    (lambda: PLAIN.w_over_dw(-1, False), "False"),
    (lambda: RESCALED.w_over_dw(-2, np.True_), "np.True_"),
    (lambda: pa.two_sided_up(PLAIN, 2.5, 5), "2.5"),
    (lambda: dv.modified_definetti_influence(PLAIN, 2.5, 1.2), "2.5"),
])
def test_non_integer_levels_raise_domain_error(call, level):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == f"level {level} is not an integer"


def test_numpy_integer_levels_read_like_ints():
    for x in (0, 3, 9):
        assert PLAIN.w(np.int64(x)) == PLAIN.w(x)
        assert PLAIN.dz1(np.int32(x)) == PLAIN.dz1(x)
        assert PLAIN.w_ratio(np.int64(x), np.int16(10)) == PLAIN.w_ratio(x, 10)
    # a rescaled read takes phi to y - x, which unsigned numpy levels would wrap
    for table in (PLAIN, RESCALED):
        for x, y in ((10, 3), (3, 7), (0, 9)):
            _same([table.w_ratio(x, np.uint64(y)), table.w_ratio(np.uint64(x), y),
                   table.w_over_dw(x, np.uint64(y)), table.w_over_dw(np.uint64(x), y)],
                  [table.w_ratio(x, y)] * 2 + [table.w_over_dw(x, y)] * 2)
    # a numpy level below zero gives the boundary value as a Python float
    _same([PLAIN.z_at(np.int8(-1), 0.5), PLAIN.z_at(np.int64(-3), 0.25)], [0.5, 0.015625])


def test_recent_zw_column_is_read_in_place():
    # z_at and dzw read the last column zw_array returned; any other w goes
    # through zw_array, which keeps the 8 most recently used in order
    table = w_table(DiscountedModel(LAWS["four_point"], 0.999), 60)
    ws = [0.05 + i / 25 for i in range(12)]
    for i, w in enumerate(ws):
        want = scale.z_table_w(table.model, w, 60)
        assert table.z_at(7, w) == want[7]
        assert table.dzw(7, w) == want[8] - want[7]
        assert table.z_at(7, ws[0]) == scale.z_table_w(table.model, ws[0], 60)[7]
        assert list(table._zw) == ([w for w in ws[1: i + 1] if w != ws[0]] + [ws[0]])[-8:]


def test_recent_zw_view_follows_every_column_change():
    # z_at, dzw and zw_array interleaved over more w than the table keeps: every
    # read is the entry of a freshly computed column, bit for bit
    table = w_table(DiscountedModel(LAWS["three_point"], 0.9), 40)
    ws = [0.05 + i / 11 for i in range(10)]
    assert len(ws) > scale._ZW_KEPT
    fresh = {w: scale.z_table_w(table.model, w, 40) for w in ws}
    rng = np.random.default_rng(7)
    for _ in range(400):
        w, x, kind = ws[rng.integers(10)], int(rng.integers(40)), rng.integers(3)
        col = fresh[w]
        if kind == 0:
            _same([table.z_at(x, w)], [col[x]])
        elif kind == 1:
            _same([table.dzw(x, w)], [col[x + 1] - col[x]])
        else:
            assert np.array_equal(table.zw_array(w), col)
        assert len(table._zw) <= scale._ZW_KEPT
