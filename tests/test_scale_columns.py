"""The scale tables read as columns: W once per table, each barrier scan one pass.

A rescaled table multiplies its tilted column out once, with the Python
products W(x) = (W(x) phi^x) * phi^-x, and every W reader takes that
column. Each influence is one elementwise expression in the increments
of W, Z and Z1; a scan applies it to b = 0..b_max and the public
per-b functions to a single b, so both must agree bit for bit with the
quotient of the per-b differences.
"""

import math

import numpy as np
import pytest

from skipfree import DiscountedModel, OverflowSignal, modified_geometric, w_table
from skipfree.dividends import (
    _influence,
    doubly_reflected_influence,
    doubly_reflected_value,
    modified_definetti_influence,
    modified_definetti_value,
    multiband_diagnostics,
    optimize_barrier,
)
from skipfree.scale import z_table_w


def _bits(values):
    """The float bits, every nan as one: numpy's 0 / 0 sets a nan's sign bit
    and Python's math.nan does not, which no reader of a nan sees."""
    values = np.asarray(values, dtype=float)
    return np.where(np.isnan(values), math.nan, values).view(np.int64)


def _quotient(num, den):
    """num / den on Python floats, with a zero denominator giving +-inf, or
    nan at 0 / 0, as the scans report a dW that rounded to 0."""
    if den != 0.0:
        return num / den
    return math.copysign(math.inf, num) if num != 0.0 else math.nan


def _check_scan(table, objective, k, b_max, per_b):
    r = optimize_barrier(table, objective, k, 1, b_max)
    assert [b for b, _ in r.trace] == list(range(b_max + 1))
    trace = [h for _, h in r.trace]
    assert all(type(h) is float for h in trace)
    assert np.array_equal(_bits(trace), _bits(per_b))
    # b_star and ties follow max() and index() over the per-b list
    best = max(per_b)
    assert r.b_star == per_b.index(best)
    assert r.ties == tuple(b for b, h in enumerate(per_b) if h == best)
    return trace


@pytest.mark.parametrize("law", ["three_point", "four_point"])
@pytest.mark.parametrize("v", [0.8, 0.999])
def test_rescaled_w_array_is_w_bit_for_bit(law, v, request):
    rt = w_table(DiscountedModel(request.getfixturevalue(law), v), 400, rescaled=True)
    phi = rt.phi
    products = [t * phi ** float(-x) for x, t in enumerate(rt.tilted_w_array().tolist())]
    assert np.array_equal(_bits(rt.w_array()), _bits(products))
    assert np.array_equal(_bits([rt.w(x) for x in range(401)]), _bits(products))
    assert np.array_equal(_bits([rt.dw(b) for b in range(400)]), _bits(np.diff(products)))


@pytest.mark.parametrize("v", [0.999, 1.0])
def test_scans_equal_per_b_influences(three_point, v):
    t = w_table(DiscountedModel(three_point, v), 402)
    b_max, k = 400, 1.2
    dw = [t.dw(b) for b in range(b_max + 1)]
    dz1 = [t.dz1(b) for b in range(b_max + 1)]
    per_b = [modified_definetti_influence(t, b, 0.0) for b in range(b_max + 1)]
    trace = _check_scan(t, "definetti", 0.0, b_max, per_b)
    assert np.array_equal(_bits(trace), _bits([_quotient(1.0, d) for d in dw]))
    per_b = [modified_definetti_influence(t, b, k) for b in range(b_max + 1)]
    trace = _check_scan(t, "modified_definetti", k, b_max, per_b)
    assert np.array_equal(_bits(trace), _bits([_quotient(1.0 - k * z, d)
                                               for z, d in zip(dz1, dw)]))
    if v == 1.0:
        # W saturates and dW rounds to 0 from b = 55 on: H is inf there
        assert dw[55] == 0.0 and trace[55] == math.inf
        return
    dz = [t.dz(b) for b in range(b_max + 1)]
    per_b = [doubly_reflected_influence(t, b, k) for b in range(b_max + 1)]
    trace = _check_scan(t, "doubly_reflected", k, b_max, per_b)
    assert np.array_equal(_bits(trace), _bits([(1.0 - k * z1) / z
                                               for z1, z in zip(dz1, dz)]))


def test_saturated_scan_with_inf_and_nan_entries():
    # modified geometric law at v = 1: dW rounds to 0 from b = 88 on while
    # dZ1 still takes values of a few ulps of either sign, so a penalty of
    # 1 / dZ1(97) gives 0 / 0 at b = 97 and +-inf elsewhere
    t = w_table(DiscountedModel(modified_geometric(p0=0.6, p1=0.24, alpha=0.4), 1.0), 400)
    b_max = 398
    k = 1.0 / t.dz1(97)
    assert t.dw(97) == 0.0 and 1.0 - k * t.dz1(97) == 0.0
    per_b = [modified_definetti_influence(t, b, k) for b in range(b_max + 1)]
    trace = _check_scan(t, "modified_definetti", k, b_max, per_b)
    assert math.isnan(trace[97])
    assert math.inf in trace and -math.inf in trace
    assert np.array_equal(_bits(trace), _bits(
        [_quotient(1.0 - k * t.dz1(b), t.dw(b)) for b in range(b_max + 1)]))


@pytest.mark.parametrize("law", ["three_point", "modgeom"])
def test_scalar_values_read_the_scan_column_bit_for_bit(law, request):
    # at v = 1, W saturates and dW rounds to 0 well before b = 600, where the
    # scalar influence falls back to the scan's inf; v = 0.999 for double reflection
    dist, b_max, k = request.getfixturevalue(law), 600, 1.2
    # objective, v, its scalar influence and value, the column its value weighs H by
    for objective, v, influence, value, col in (
            ("modified_definetti", 1.0, modified_definetti_influence,
             modified_definetti_value, "w"),
            ("doubly_reflected", 0.999, doubly_reflected_influence,
             doubly_reflected_value, "z")):
        t = w_table(DiscountedModel(dist, v), b_max + 1)
        scan = _influence(objective, t, k, 0, b_max).tolist()
        if v == 1.0:
            assert t.dw(b_max) == 0.0 and scan[b_max] == math.inf
        assert np.array_equal(_bits([influence(t, b, k) for b in range(b_max + 1)]),
                              _bits(scan))
        read = getattr(t, col)
        for x in (-3, 0, 7, 300, b_max + 5):
            want = [float(max(x - b, 0)) + read(min(x, b)) * scan[b] + k * t.z1(min(x, b))
                    for b in range(b_max + 1)]
            got = [value(t, b, x, k) for b in range(b_max + 1)]
            assert all(type(g) is float for g in got)
            assert np.array_equal(_bits(got), _bits(want))


def test_rescaled_definetti_scan_equals_per_b_influence(four_point):
    rt = w_table(DiscountedModel(four_point, 0.8), 1502, rescaled=True)
    per_b = [_quotient(1.0, rt.dw(b)) for b in range(1501)]
    _check_scan(rt, "definetti", 0.0, 1500, per_b)


def test_rescaled_scan_past_float_range_names_first_level(four_point):
    rt = w_table(DiscountedModel(four_point, 0.8), 2002, rescaled=True)
    assert math.isfinite(rt.w(1751))
    message = r"^W\(1752\) exceeds float range$"
    with pytest.raises(OverflowSignal, match=message):
        optimize_barrier(rt, "definetti", 0.0, 0, 2000)
    with pytest.raises(OverflowSignal, match=message):
        multiband_diagnostics(rt, 2000)
    with pytest.raises(OverflowSignal, match=message):
        rt.dw(1751)
    with pytest.raises(OverflowSignal, match=r"^W\(1800\) exceeds float range$"):
        rt.w(1800)
    with pytest.raises(OverflowSignal):
        rt.w_array()


def test_zw_columns_are_kept_for_the_recent_w(four_point):
    # a sweep: the same three w on every pass, and one w no pass asked for before
    model = DiscountedModel(four_point, 0.999)
    table = w_table(model, 300)
    fixed = (0.4, 0.7, 0.95)
    first = {w: table.zw_array(w) for w in fixed}
    for i in range(40):
        w = 0.05 + i / 50
        assert np.array_equal(table.zw_array(w), z_table_w(model, w, 300))
        for f in fixed:
            col = table.zw_array(f)
            assert col is first[f]  # kept, not rebuilt
            assert np.array_equal(col, z_table_w(model, f, 300))
        assert len(table._zw) <= 8
