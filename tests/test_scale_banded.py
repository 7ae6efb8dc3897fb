"""The blocked scale recursions against exact arithmetic and closed forms.

W, tilted W and Z(., w) are solved in blocks in extended precision,
reaching back over the last L values for a largest claim L, or over a
band of three for the modified geometric law. These tests hold their
accuracy to what the dense prefix recursion they replaced achieved, and
cover the stop at the first overflow.
"""

import math
import random
from decimal import Decimal, localcontext

import numpy as np
import pytest

from skipfree import DiscountedModel, OverflowSignal, modified_geometric, validate, w_table
from skipfree.golden import closed_form_w_modgeom, closed_form_z_modgeom
from skipfree.scale import _w_array, _w_array_alt, _w_array_tilted, z_table_w

FOUR_POINT = validate(["3/4", "1/20", "1/10", "0", "0", "0", "0", "1/10"])
THREE_POINT = validate(["2/3", "2/9", "0", "1/9"])
MODGEOM = modified_geometric(p0=0.6, p1=0.24, alpha=0.4)
# alpha^32 = 0.034: the geometric tail reaches back across many blocks
SLOW_TAIL = modified_geometric(p0=0.8, p1=0.15, alpha=0.9)


def _law32():
    """32 atoms: p_0 and 31 claim sizes in 1..63, claim mean 0.8."""
    rng = random.Random(32)
    sizes = sorted(rng.sample(range(1, 64), 31))
    masses = [rng.randint(1, 100) for _ in sizes]
    denom = math.ceil(sum(k * m for k, m in zip(sizes, masses)) / 0.8)
    pmf = ["0"] * (sizes[-1] + 1)
    pmf[0] = f"{denom - sum(masses)}/{denom}"
    for k, m in zip(sizes, masses):
        pmf[k] = f"{m}/{denom}"
    return validate(pmf)


LAWS = {"four_point": FOUR_POINT, "three_point": THREE_POINT, "law32": _law32()}

# Largest relative error of W(0..8000) against _decimal_w for the dense
# prefix recursion the banded one replaced, rounded up in the third digit.
ENVELOPE = {
    ("four_point", 0.999): 4.74e-14,
    ("four_point", 1.0): 6.50e-12,
    ("three_point", 0.999): 1.08e-13,
    ("three_point", 1.0): 9.91e-13,
    ("law32", 0.999): 4.78e-14,
    ("law32", 1.0): 1.39e-12,
}


def _decimal_w(dist, v, n):
    """W(0..n) at 60 digits, from the same float p_k and v as the library."""
    with localcontext() as ctx:
        ctx.prec = 60
        p = [Decimal(x) for x in dist.pmf]
        inv_v = 1 / Decimal(v)
        band = [(k, pk) for k, pk in enumerate(p) if k and pk]
        w = [1 / p[0]]
        for x in range(n):
            s = sum(pk * w[x + 1 - k] for k, pk in band if k <= x + 1)
            w.append((w[x] * inv_v - s) / p[0])
        return w


def _closed(fn, dist, v, n):
    """A closed form on 0..n, with inf where it leaves float range."""
    out = []
    for x in range(n + 1):
        try:
            out.append(fn(dist, v, x))
        except OverflowError:
            out.append(math.inf)
    return np.array(out)


@pytest.mark.parametrize("law, v", sorted(ENVELOPE))
def test_w_within_dense_envelope(law, v):
    dist = LAWS[law]
    got = _w_array(DiscountedModel(dist, v), 8000)
    assert np.isfinite(got).all()
    exact = _decimal_w(dist, v, 8000)
    err = max(abs(Decimal(float(a)) / b - 1) for a, b in zip(got, exact))
    assert err <= ENVELOPE[law, v]


def _decimal_w_modgeom(dist, v, n):
    """W(0..n) at 60 digits for the modified geometric law, from the
    library's float p_0, p_1, alpha and v. The float closed form is no
    oracle at this level: its powers of phi are 2.5e-12 off at n = 8000."""
    with localcontext() as ctx:
        ctx.prec = 60
        p0, p1, a = Decimal(dist.p0), Decimal(dist.p1), Decimal(dist.alpha)
        tail, inv_v = (1 - p0 - p1) * (1 - a), 1 / Decimal(v)
        w, g = [1 / p0], Decimal(0)
        for x in range(n):
            s = p1 * w[x] + g
            g = a * g + tail * w[x]
            w.append((w[x] * inv_v - s) / p0)
        return w


def test_modgeom_w_within_dense_envelope():
    # the dense recursion measured 5.16e-14 here
    got = _w_array(DiscountedModel(MODGEOM, 0.999), 8000)
    exact = _decimal_w_modgeom(MODGEOM, 0.999, 8000)
    err = max(abs(Decimal(float(a)) / b - 1) for a, b in zip(got, exact))
    assert err <= 5.17e-14


@pytest.mark.parametrize("dist", [MODGEOM, SLOW_TAIL], ids=["alpha0.4", "alpha0.9"])
@pytest.mark.parametrize("v", [0.8, 0.999])
def test_modgeom_recursions_match_closed_forms(dist, v):
    n = 4000
    model = DiscountedModel(dist, v)
    w_closed = _closed(closed_form_w_modgeom, dist, v, n)
    z_closed = _closed(closed_form_z_modgeom, dist, v, n)
    with np.errstate(over="ignore"):
        untilt = model.phi_v ** -np.arange(n + 1, dtype=float)
        untilted = _w_array_tilted(model, n) * untilt
    for got, want in ((_w_array(model, n), w_closed), (_w_array_alt(model, n), w_closed),
                      (untilted, np.where(np.isfinite(untilt), w_closed, math.inf)),
                      (z_table_w(model, 1.0, n), z_closed)):
        fin = np.isfinite(want)
        assert fin[:500].all()
        assert np.max(np.abs(got[fin] / want[fin] - 1.0)) <= 1e-10


def test_overflow_stops_at_first_inf():
    w = _w_array(DiscountedModel(FOUR_POINT, 0.8), 8000)
    first = int(np.argmin(np.isfinite(w)))
    assert 0 < first < 8000
    assert np.isfinite(w[:first]).all()
    assert (w[first:] == math.inf).all()
    with pytest.raises(OverflowSignal,
                       match=r"^W exceeds float range on 0\.\.8000; retry with rescaled=True$"):
        w_table(DiscountedModel(FOUR_POINT, 0.8), 8000)


def test_one_atom_law_builds():
    # every claim is 0, so the walk climbs one unit a step and W(x) = v^-x
    model = DiscountedModel(validate(["1"]), 0.9)
    table = w_table(model, 50)
    assert table.w_array() == pytest.approx(0.9 ** -np.arange(51.0), rel=1e-13)
    assert w_table(model, 50, rescaled=True).tilted_w_array() == pytest.approx(
        table.tilted_w_array(), rel=1e-13)
    assert z_table_w(model, 1.0, 50) == pytest.approx(table.zw_array(1.0), rel=1e-13)


@pytest.mark.parametrize("x_max", [0, 1, 3, 6])
def test_table_shorter_than_largest_claim(x_max):
    model = DiscountedModel(FOUR_POINT, 0.999)
    short, long = w_table(model, x_max), w_table(model, 400)
    assert np.array_equal(short.w_array(), long.w_array()[: x_max + 1])
    assert np.array_equal(short.zw_array(0.3), long.zw_array(0.3)[: x_max + 1])
    assert np.array_equal(w_table(model, x_max, rescaled=True).tilted_w_array(),
                          w_table(model, 400, rescaled=True).tilted_w_array()[: x_max + 1])


@pytest.mark.parametrize("law", ["four_point", "law32", "modgeom"])
@pytest.mark.parametrize("x_max", [31, 32, 33, 100])
def test_prefix_does_not_depend_on_table_length(law, x_max):
    # blocks are laid from level 0 at a fixed size, so a table's entries
    # do not depend on where it ends, across block edges as well
    model = DiscountedModel(MODGEOM if law == "modgeom" else LAWS[law], 0.999)
    for build in (_w_array, _w_array_alt, _w_array_tilted,
                  lambda m, n: z_table_w(m, 0.3, n)):
        assert np.array_equal(build(model, x_max), build(model, 400)[: x_max + 1])
