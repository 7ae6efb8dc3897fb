"""Scale table recursions, conventions, asymptotics, and guard rails."""

import warnings

import numpy as np
import pytest

from skipfree import (DiscountedModel, DomainError, OutOfTable, OverflowSignal,
                      asymptotic_constant, validate, w_table)
from skipfree.golden import (FOUR_POINT_V, cached_table, dickson_hipp_z, gf_residual,
                             w_determinant_oracle, z_gf_residual)
from skipfree.scale import z_table_w


def test_w_starts_at_inverse_p0(three_tab, two_tab, gsy_tab, modgeom_tab):
    for t in (three_tab, two_tab, gsy_tab, modgeom_tab):
        assert t.w(0) == pytest.approx(1.0 / t.model.dist.p0, rel=1e-15)
        assert t.w(-1) == 0.0
        assert t.w(-7) == 0.0


def test_w_satisfies_recursion(three_tab, modgeom_tab):
    for t in (three_tab, modgeom_tab):
        d, v = t.model.dist, t.v
        for x in range(0, 60):
            lhs = d.p0 * t.w(x + 1)
            rhs = t.w(x) / v - sum(
                d.p(y + 1) * t.w(x - y) for y in range(x + 1)
            )
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_w_spot_values_four_point(gsy_tab):
    assert gsy_tab.w(0) == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert gsy_tab.w(1) == pytest.approx(1.690668, abs=1e-5)
    assert gsy_tab.w(2) == pytest.approx(1.965991, abs=1e-5)
    assert gsy_tab.dw(0) > gsy_tab.dw(1)


def test_w_nondecreasing(three_tab, two_tab, gsy_tab, modgeom_tab):
    for t in (three_tab, two_tab, gsy_tab, modgeom_tab):
        arr = t.w_array()
        assert np.all(np.diff(arr) >= -1e-12 * arr[:-1])


def test_index_guards(three_tab):
    with pytest.raises(OutOfTable):
        three_tab.w(three_tab.x_max + 1)
    with pytest.raises(OutOfTable):
        three_tab.dw(three_tab.x_max)
    with pytest.raises(OutOfTable):
        three_tab.z1(three_tab.x_max + 1)


def test_esscher_limit_and_bound(three_tab):
    t = three_tab
    a = asymptotic_constant(t.model)
    seq = [t.w(x) * t.phi ** (x + 1) for x in range(0, 401)]
    assert all(b >= a_ - 1e-12 for a_, b in zip(seq, seq[1:]))
    assert seq[-1] == pytest.approx(a, rel=1e-10)
    for y in range(0, 401, 20):
        assert t.w(y) <= a * t.phi ** (-(y + 1)) * (1.0 + 1e-12)


def test_asymptotic_constant_undiscounted(three_tab_v1):
    # at v = 1 the constant is 1 / (1 - mean); the table reaches it
    a = asymptotic_constant(three_tab_v1.model)
    assert a == pytest.approx(2.25, rel=1e-14)
    assert three_tab_v1.w(400) == pytest.approx(2.25, rel=1e-12)


def test_asymptotic_constant_critical_is_infinite():
    crit = DiscountedModel(validate(["1/2", "0", "1/2"]), 1.0)
    assert asymptotic_constant(crit) == np.inf


def test_one_atom_law_asymptotics():
    # all mass at 0: W(x) = Z(x, w) = v^-x, and pgf' = 0 gives A = v
    model = DiscountedModel(validate(["1"]), 0.9)
    assert asymptotic_constant(model) == 0.9
    zw = z_table_w(model, 0.5, 30)
    for x in (0, 7, 30):
        assert dickson_hipp_z(model, 0.5, x) == pytest.approx(zw[x], rel=1e-12)
        assert zw[x] == pytest.approx(0.9 ** -x, rel=1e-12)


def test_z_conventions(three_tab):
    t = three_tab
    assert t.z(0) == 1.0
    assert t.z(-3) == 1.0
    assert t.z_at(-3, 0.7) == pytest.approx(0.7**3, rel=1e-15)
    for x in range(0, 50, 7):
        expect = 1.0 + (1.0 / t.v - 1.0) * sum(t.w(y) for y in range(x))
        assert t.z(x) == pytest.approx(expect, rel=1e-14)


def test_z_at_unit_argument_is_plain_z(three_tab, modgeom_tab):
    for t in (three_tab, modgeom_tab):
        for x in range(0, 40, 5):
            assert t.z_at(x, 1.0) == pytest.approx(t.z(x), rel=1e-12)
            assert t.dzw(x, 1.0) == pytest.approx(t.dz(x), rel=1e-10, abs=1e-12)


def test_z1_conventions(three_tab, three_tab_v1):
    assert three_tab.z1(0) == 0.0
    assert three_tab.z1(-2) == -2.0
    assert three_tab_v1.z1(1) == pytest.approx(1.0 / 3.0, rel=1e-13)
    m = three_tab.model.dist.mean
    for b in range(0, 50, 7):
        expect = three_tab.z(b) - (1.0 - m) * three_tab.w(b)
        assert three_tab.dz1(b) == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_dz_is_scaled_w(three_tab):
    for b in range(0, 40, 5):
        expect = (1.0 / three_tab.v - 1.0) * three_tab.w(b)
        assert three_tab.dz(b) == pytest.approx(expect, rel=1e-12)


def test_generating_function_residuals(three_tab):
    model = three_tab.model
    z = 0.5 * model.phi_v
    assert abs(gf_residual(three_tab, z, 400)) < 1e-10
    assert abs(z_gf_residual(three_tab, z, 400)) < 1e-10
    with pytest.raises(DomainError):
        gf_residual(three_tab, model.phi_v * 1.1, 100)
    with pytest.raises(DomainError):
        gf_residual(three_tab, 0.0, 100)


def test_residuals_read_only_the_table_they_are_given(three_tab):
    z = 0.5 * three_tab.phi
    for residual in (gf_residual, z_gf_residual):
        assert residual(three_tab, z, three_tab.x_max) < 1e-10
        with pytest.raises(OutOfTable, match=r"x = 411 beyond table range 0\.\.410"):
            residual(three_tab, z, three_tab.x_max + 1)
        with pytest.raises(DomainError, match="x_max must be nonnegative"):
            residual(three_tab, z, -1)
    rescaled = w_table(three_tab.model, 40, rescaled=True)
    assert gf_residual(rescaled, z, 40) < 1e-10
    with pytest.raises(DomainError, match="unavailable on a rescaled table"):
        z_gf_residual(rescaled, z, 40)


def test_tables_compare_and_hash_by_identity(three_tab):
    a, b = (w_table(three_tab.model, 40) for _ in range(2))
    assert a == a and a != b
    assert len({a, b}) == 2 and hash(a) != hash(b)
    assert len(repr(three_tab)) < 100


def test_determinant_oracle(three_tab_09):
    model = three_tab_09.model
    det = w_determinant_oracle(model, 12)
    for x in range(12):
        assert det[x] == pytest.approx(three_tab_09.w(x), rel=1e-9)
    with pytest.raises(DomainError):
        w_determinant_oracle(model, 13)
    with pytest.raises(DomainError):
        w_determinant_oracle(DiscountedModel(model.dist, 1.0), 5)


def test_dickson_hipp_route_to_z(three_tab_09):
    model = three_tab_09.model
    w = 0.5 * model.phi_v
    zw = three_tab_09.zw_array(w)
    for x in (0, 10, 25):
        assert dickson_hipp_z(model, w, x) == pytest.approx(zw[x], rel=1e-10)
    with pytest.raises(DomainError):
        dickson_hipp_z(model, model.phi_v, 3)
    crit = DiscountedModel(validate(["1/2", "0", "1/2"]), 1.0)
    with pytest.raises(DomainError):
        dickson_hipp_z(crit, 0.5, 3)


@pytest.mark.parametrize("x, want", [(-1, 0.5), (np.int8(-1), 0.5), (np.int64(-3), 0.125)])
def test_dickson_hipp_below_zero_is_a_python_float(three_point, x, want):
    z = dickson_hipp_z(DiscountedModel(three_point, 0.9), 0.5, x)
    assert type(z) is float and z == want


def test_killing_equivalence(three_tab_09):
    """W at discount v equals the undiscounted W of the killed and
    tilted claim law, up to the tilt factor phi^(x+1) / v."""
    t = three_tab_09
    d, v, f = t.model.dist, t.v, t.phi
    killed = validate([v * d.p(k) * f ** (k - 1) for k in range(4)])
    kt = w_table(DiscountedModel(killed, 1.0), 30)
    for x in range(31):
        assert kt.w(x) == pytest.approx(t.w(x) * f ** (x + 1) / v, rel=1e-12)


def test_overflow_paths():
    grow = DiscountedModel(validate(["1/50", "0", "49/50"]), 0.5)
    with pytest.raises(OverflowSignal):
        w_table(grow, 410)
    rt = w_table(grow, 410, rescaled=True)
    assert rt.rescaled
    assert rt.w_ratio(200, 199) == pytest.approx(99.507575, abs=1e-4)
    assert np.isfinite(rt.tilted_w_array()).all()
    with pytest.raises(OverflowSignal):
        rt.w(400)
    with pytest.raises(DomainError):
        rt.z(5)


def test_rescaled_w_past_float_range_raises_without_warning(four_point):
    # phi^-x is finite at x = 1752 but W(1752) = tilted * phi^-x is not
    rt = w_table(DiscountedModel(four_point, 0.8), 3000, rescaled=True)
    assert np.isfinite(rt.phi ** -1752.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowSignal):
            rt.w(1752)


def test_rescaled_matches_plain_in_range(three_tab_09):
    rt = w_table(three_tab_09.model, 120, rescaled=True)
    for x in range(0, 121, 10):
        assert rt.w(x) == pytest.approx(three_tab_09.w(x), rel=1e-10)
    assert rt.w_ratio(30, 10) == pytest.approx(
        three_tab_09.w(30) / three_tab_09.w(10), rel=1e-10
    )
    assert rt.w_over_dw(5, 10) == pytest.approx(
        three_tab_09.w(5) / three_tab_09.dw(10), rel=1e-10
    )


def test_w_over_dw_saturated_is_inf_without_warning(three_tab_v1):
    # at v = 1 W creeps up by less than an ulp a level, and dW(99)
    # rounds to zero on both tables
    rt = w_table(three_tab_v1.model, 120, rescaled=True)
    assert three_tab_v1.dw(99) == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rt.w_over_dw(5, 99) == np.inf
        assert three_tab_v1.w_over_dw(5, 99) == np.inf


def test_w_table_input_guards(three_tab_09):
    with pytest.raises(DomainError):
        w_table(three_tab_09.model, -1)


def test_gsy_table_phi(gsy_tab):
    assert gsy_tab.v == FOUR_POINT_V
    assert gsy_tab.phi == pytest.approx(cached_table(
        gsy_tab.model.dist, FOUR_POINT_V, 410).phi, abs=0)
    assert 0.0 < gsy_tab.phi < 1.0
