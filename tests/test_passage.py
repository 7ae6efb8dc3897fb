"""First passage, ruin, deficit transforms, and the killed resolvent.

The heavyweight cross-check here is an independent value-iteration
oracle: iterate the one-step expectation operator on a finite band
until it converges, and compare against the scale-function formulas.
"""

import hashlib
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

import exact_reference as exact
from skipfree import (
    DomainError,
    DiscountedModel,
    NoConvergence,
    OutOfTable,
    OverflowSignal,
    deficit_gf,
    discounted_ruin,
    discounted_ruin_gf,
    eventual_ruin,
    eventual_survival_transform,
    expected_deficit,
    expected_stopped_w,
    expected_stopped_z,
    finite_time_ruin,
    killed_resolvent,
    modified_geometric,
    ruin_double_transform,
    ruin_limit_ratio,
    survival_double_transform,
    two_sided_up,
    upcrossing_price,
    validate,
    w_at_downcrossing,
    w_table,
)
from skipfree import passage
from skipfree.golden import cached_table, four_point_model, three_point_model, two_point_model


def _value_iterate(dist, v, w, b, sweeps=3000):
    """E_x[v^T w^(-X_T); ruin before reaching b] by fixed-point sweeps."""
    vals = np.zeros(b + 1)
    kmax = dist.max_claim
    for _ in range(sweeps):
        new = np.empty_like(vals)
        for x in range(b):
            s = 0.0
            for k in range(kmax + 1):
                p = dist.p(k)
                if p == 0.0:
                    continue
                y = x + 1 - k
                if y < 0:
                    s += p * w ** float(-y)
                elif y < b:
                    s += p * vals[y]
            new[x] = v * s
        new[b] = 0.0
        vals = new
    return vals


def test_two_sided_up_boundaries(three_tab_09):
    assert two_sided_up(three_tab_09, 6, 6) == 1.0
    assert two_sided_up(three_tab_09, -1, 6) == 0.0
    vals = [two_sided_up(three_tab_09, x, 6) for x in range(7)]
    assert all(0.0 < a < 1.0 for a in vals[:-1])
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_two_sided_up_matches_value_iteration(three_point, three_tab_09):
    v, upper = 0.9, 6
    vals = np.zeros(upper + 1)
    vals[upper] = 1.0
    for _ in range(3000):
        new = vals.copy()
        for x in range(upper):
            s = 0.0
            for k in range(three_point.max_claim + 1):
                y = x + 1 - k
                if y >= 0:
                    s += three_point.p(k) * vals[y]
            new[x] = v * s
        vals = new
    for x in range(upper):
        assert two_sided_up(three_tab_09, x, upper) == pytest.approx(
            vals[x], abs=1e-13
        )


def test_upcrossing_price_is_phi_power(three_tab_09):
    model = three_tab_09.model
    assert upcrossing_price(model, 5, 5) == 1.0
    assert upcrossing_price(model, 7, 5) == 1.0
    assert upcrossing_price(model, 2, 5) == pytest.approx(model.phi_v**3, rel=1e-14)


def test_deficit_gf_matches_value_iteration(three_point, three_tab_09):
    for w in (0.6, 1.0):
        dp = _value_iterate(three_point, 0.9, w, 6)
        for x in range(6):
            assert deficit_gf(three_tab_09, x, 6, w) == pytest.approx(
                dp[x], abs=1e-13
            )
    assert deficit_gf(three_tab_09, 6, 6, 0.7) == 0.0


def test_expected_deficit_sign_and_alias(three_tab_09):
    for x in range(5):
        assert expected_deficit(three_tab_09, x, 6) <= 0.0


def test_discounted_ruin_matches_value_iteration(three_point, three_tab_09):
    # an upper barrier at 80 is invisible below machine precision
    dp = _value_iterate(three_point, 0.9, 1.0, 80, sweeps=1500)
    for x in range(10):
        assert discounted_ruin(three_tab_09, x) == pytest.approx(dp[x], abs=1e-12)


def test_discounted_ruin_gf_matches_value_iteration(three_point, three_tab_09):
    dp = _value_iterate(three_point, 0.9, 0.7, 80, sweeps=1500)
    for x in range(10):
        assert discounted_ruin_gf(three_tab_09, x, 0.7) == pytest.approx(
            dp[x], abs=1e-12
        )
    assert discounted_ruin_gf(three_tab_09, -2, 0.7) == pytest.approx(0.7**2)


def test_ruin_version_guards(three_tab, three_tab_v1):
    with pytest.raises(DomainError):
        discounted_ruin(three_tab_v1, 2)
    with pytest.raises(DomainError):
        eventual_ruin(three_tab, 2)


def test_eventual_ruin_closed_form(three_tab_v1):
    for x in range(12):
        expect = 0.4 * 0.5**x - (-1.0 / 3.0) ** x / 15.0
        assert eventual_ruin(three_tab_v1, x) == pytest.approx(expect, abs=1e-12)


def test_eventual_ruin_supercritical_is_one(heavy):
    table = cached_table(heavy, 1.0, 60)
    for x in (0, 3, 10):
        assert eventual_ruin(table, x) == 1.0


def test_eventual_survival_transform(three_point, three_tab_v1):
    z = 0.5
    partial = sum(
        z**x * (1.0 - eventual_ruin(three_tab_v1, x)) for x in range(200)
    )
    assert eventual_survival_transform(three_point, z) == pytest.approx(
        partial, rel=1e-13
    )


def test_double_transforms_sum_to_product_kernel(three_tab_09):
    # summing ruin + survival over all x and n factorizes exactly,
    # on both sides of phi_v
    model = three_tab_09.model
    v = model.v
    for z in (0.4, 0.9):
        total = ruin_double_transform(model, z) + survival_double_transform(model, z)
        assert total == pytest.approx(1.0 / ((1.0 - z) * (1.0 - v)), rel=1e-12)
    with pytest.raises(DomainError):
        survival_double_transform(model, model.phi_v)
    with pytest.raises(DomainError):
        survival_double_transform(model, 1.0)


def test_ruin_double_transform_refuses_z_as_survival_does(three_tab_09):
    # z = 1 is refused before 1 / ((1 - z)(1 - v)) is formed, with survival's message
    model = three_tab_09.model
    for z in (1.0, 0.0, model.phi_v):
        with pytest.raises(DomainError) as ruin:
            ruin_double_transform(model, z)
        with pytest.raises(DomainError) as survival:
            survival_double_transform(model, z)
        assert type(ruin.value) is DomainError and str(ruin.value) == str(survival.value)
    assert str(ruin.value).startswith("need z in (0, 1) distinct from phi_v; got")


def test_finite_time_ruin_small_horizons(three_point):
    dp = finite_time_ruin(three_point, 4, 10)
    assert dp.ruin.shape == (5, 11)
    assert np.all(dp.ruin[0] == 0.0)
    for x in range(11):
        assert dp.ruin[1, x] == pytest.approx(three_point.tail(x + 1), abs=1e-15)
    # complement identity, exact
    assert np.max(np.abs(dp.ruin + dp.survival - 1.0)) < 1e-12
    # monotone in horizon
    assert np.all(np.diff(dp.ruin, axis=0) >= -1e-15)


def test_finite_time_ruin_compares_and_hashes_by_identity(three_point):
    a, b = finite_time_ruin(three_point, 4, 10), finite_time_ruin(three_point, 4, 10)
    assert a == a and a != b
    assert len({a, b}) == 2


def test_finite_time_ruin_peaks_near_its_output(three_point):
    # the identity is checked 64 rows at a time, so no temporary as large as the output
    finite_time_ruin(three_point, 10, 10)
    tracemalloc.start()
    try:
        dp = finite_time_ruin(three_point, 400, 400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * (dp.ruin.nbytes + dp.survival.nbytes)


def test_finite_time_ruin_reports_the_identity_gap_of_every_row(three_point, monkeypatch):
    # 131 rows: two full blocks of 64 and a last one of 3
    dp = finite_time_ruin(three_point, 130, 20)
    gap = float(np.max(np.abs(dp.ruin + dp.survival - 1.0)))
    monkeypatch.setattr(passage, "_IDENTITY_TOL", -1.0)
    with pytest.raises(NoConvergence) as info:
        finite_time_ruin(three_point, 130, 20)
    assert str(info.value) == f"ruin + survival identity violated by {gap:.3e}"


def test_finite_time_ruin_modified_geometric(modgeom):
    dp = finite_time_ruin(modgeom, 3, 8)
    assert np.max(np.abs(dp.ruin + dp.survival - 1.0)) < 1e-12
    # horizon-1 row against the tail function
    for x in range(9):
        assert dp.ruin[1, x] == pytest.approx(modgeom.tail(x + 1), rel=1e-13, abs=1e-15)


def test_finite_time_ruin_tables_are_pinned(three_point, two_point, four_point, modgeom):
    # bit for bit; (3, 2) keeps x_max below the four-point law's largest claim
    parts = []
    for dist in (three_point, two_point, four_point, modgeom):
        for n, x_max in ((12, 20), (40, 10), (3, 2)):
            dp = finite_time_ruin(dist, n, x_max)
            parts.append(hashlib.sha256(dp.ruin.tobytes() + dp.survival.tobytes()).hexdigest())
    digest = hashlib.sha256("|".join(parts).encode()).hexdigest()
    assert digest == "7fc7432257f796859a5159d83dbaade23c3bebca00bb482441e17f2f401842f8"


def test_killed_resolvent_matches_linear_solve(three_point, three_tab_09):
    upper = 8
    v = 0.9
    q = np.zeros((upper, upper))
    for x in range(upper):
        for k in range(three_point.max_claim + 1):
            y = x + 1 - k
            if 0 <= y < upper:
                q[x, y] += three_point.p(k)
    green = np.linalg.inv(np.eye(upper) - v * q)
    for i in range(upper):
        for j in range(upper):
            assert killed_resolvent(three_tab_09, i, j, upper) == pytest.approx(
                green[i, j], abs=1e-12
            )


def test_w_at_downcrossing_conventions(three_point, three_tab_09):
    assert w_at_downcrossing(three_tab_09, 2, 4) == pytest.approx(
        three_tab_09.w(2), rel=1e-15
    )
    # a very distant wall is equivalent to none
    free = w_at_downcrossing(three_tab_09, 6, 4)
    far = w_at_downcrossing(three_tab_09, 6, 4, upper=110)
    assert far == pytest.approx(free, rel=1e-9)
    assert w_at_downcrossing(three_tab_09, 25, 4, upper=20) == 0.0
    # independent oracle: absorb below b collecting v^t W(landing)
    v, b, upper = 0.9, 4, 90
    vals = np.zeros(upper + 1)
    for _ in range(1500):
        new = np.zeros_like(vals)
        for x in range(b, upper):
            s = 0.0
            for k in range(three_point.max_claim + 1):
                p = three_point.p(k)
                if p == 0.0:
                    continue
                y = x + 1 - k
                if y < b:
                    s += p * three_tab_09.w(y)
                elif y < upper:
                    s += p * vals[y]
            new[x] = v * s
        vals = new
    assert free == pytest.approx(vals[6], abs=1e-12)


def test_expected_stopped_are_martingales(three_tab_09):
    t = three_tab_09
    for n in range(11):
        assert expected_stopped_w(t, 3, n) == pytest.approx(t.w(3), rel=1e-12)
        assert expected_stopped_z(t, 3, 0.6, n) == pytest.approx(
            t.z_at(3, 0.6), rel=1e-12
        )
    with pytest.raises(OutOfTable):
        expected_stopped_w(t, 115, 10)


@pytest.mark.parametrize("call, error, message", [
    (lambda t: expected_stopped_z(t, 3, 0.5, 3.5), DomainError, "horizon 3.5 is not an integer"),
    (lambda t: expected_stopped_w(t, 3, True), DomainError, "horizon True is not an integer"),
    (lambda t: expected_stopped_z(t, -1, 0.5, 2.0), DomainError, "horizon 2.0 is not an integer"),
    (lambda t: expected_stopped_w(t, -1, -1), DomainError, "horizon must be nonnegative"),
    (lambda t: expected_stopped_w(t, 2.0, 3), DomainError, "level 2.0 is not an integer"),
    (lambda t: expected_stopped_z(t, True, 0.5, 3), DomainError, "level True is not an integer"),
    (lambda t: expected_stopped_z(t, np.int64(4), 0.5, 2**70), OutOfTable,
     f"need the table up to x + n = {2**70 + 4}"),
    (lambda t: expected_stopped_w(t, 2**70, np.int64(4)), OutOfTable,
     f"need the table up to x + n = {2**70 + 4}"),
    # a level that is not an integer is refused before x + n is formed
    (lambda t: expected_stopped_w(t, 3.5, 2**70), DomainError, "level 3.5 is not an integer"),
])
def test_expected_stopped_refuse_bad_levels(three_tab_09, call, error, message):
    with pytest.raises(error) as info:
        call(three_tab_09)
    assert type(info.value) is error and str(info.value) == message


def test_expected_stopped_refuse_a_rescaled_table_before_the_dp(monkeypatch):
    # the four-point W leaves float range at 1752 on this table
    rescaled = w_table(DiscountedModel(four_point_model(), 0.8), 2002, rescaled=True)

    def no_dp(*args):
        raise AssertionError("the DP ran")

    monkeypatch.setattr(passage, "_stopped_dp", no_dp)
    with pytest.raises(DomainError, match=r"Z\(\., w\) is unavailable on a rescaled table"):
        expected_stopped_z(rescaled, 0, 0.5, 2002)
    with pytest.raises(DomainError, match="Z"):
        expected_stopped_z(rescaled, 2, 0.5, 3)
    with pytest.raises(DomainError, match="level 2.0 is not an integer"):
        expected_stopped_z(rescaled, 2.0, 0.5, 3)
    with pytest.raises(OverflowSignal, match=r"W\(1752\) exceeds float range"):
        expected_stopped_w(rescaled, 0, 2002)


# the grid kappa(w) is pinned on: five laws, six discounts (v = 1 left out on
# the supercritical law), and w at fixed points and at fractions of phi_v
KAPPA_LAWS = {
    "three_point": three_point_model(),
    "two_point": two_point_model(),
    "four_point": four_point_model(),
    "modgeom": modified_geometric(0.6, 0.24, 0.4),
    "heavy": validate(["1/2", "0", "0", "1/2"]),
}
KAPPA_V = (0.8, 0.85, 0.9, 0.99, 0.999, 1.0)


def _kappa_grid():
    cases = []
    for name, dist in KAPPA_LAWS.items():
        for v in KAPPA_V:
            if v == 1.0 and dist.mean > 1.0:
                continue
            f = DiscountedModel(dist, v).phi_v
            ws = (0.05, 0.3 * f, 0.7, 0.9 * f, f, (f + 1.0) / 2.0, 1.0)
            cases += [(name, v, w) for w in dict.fromkeys(ws)]
    return cases


KAPPA_GRID = _kappa_grid()


def test_kappa_grid_has_195_cases():
    assert len(KAPPA_GRID) == 195


@pytest.mark.parametrize("law, v", [(law, v) for law in KAPPA_LAWS for v in KAPPA_V
                                    if v < 1.0 or KAPPA_LAWS[law].mean <= 1.0])
def test_ruin_limit_ratio_is_the_closed_form(law, v):
    dist = KAPPA_LAWS[law]
    table = w_table(DiscountedModel(dist, v), 2)
    for name, vv, w in KAPPA_GRID:
        if (name, vv) == (law, v):
            want = exact.kappa(dist, v, w)
            assert abs(Decimal(ruin_limit_ratio(table, w)) / want - 1) <= Decimal("1e-12"), w


def test_ruin_limit_ratio_at_w_1_is_alpha_v():
    for dist in KAPPA_LAWS.values():
        for v in KAPPA_V[:-1]:
            table = w_table(DiscountedModel(dist, v), 0)
            assert ruin_limit_ratio(table, 1.0) == pytest.approx(table._alpha_v, rel=1e-12)


def test_ruin_limit_ratio_reads_no_column(three_point):
    model = DiscountedModel(three_point, 0.9)
    want = ruin_limit_ratio(w_table(model, 400), 0.7)
    rescaled = w_table(model, 20, rescaled=True)
    for table in (w_table(model, 0), w_table(model, 1), rescaled):
        assert ruin_limit_ratio(table, 0.7) == want
    for w in (0.0, 1.5, float("nan")):
        with pytest.raises(DomainError, match=r"^transform argument .* outside \(0, 1\]$"):
            ruin_limit_ratio(rescaled, w)
    # the deficit transform still reads Z(x, w), which a rescaled table lacks
    with pytest.raises(DomainError, match=r"Z\(\., w\) is unavailable on a rescaled table"):
        discounted_ruin_gf(rescaled, 2, 0.7)


def test_discounted_ruin_gf_is_eventual_ruin_at_v_1():
    for dist in KAPPA_LAWS.values():
        table = w_table(DiscountedModel(dist, 1.0), 30)
        for x in range(-3, 31):
            assert discounted_ruin_gf(table, x, 1.0) == eventual_ruin(table, x), x


def test_discounted_ruin_gf_does_not_depend_on_table_length():
    for dist in KAPPA_LAWS.values():
        for v in (0.9, 0.999):
            short, long = (w_table(DiscountedModel(dist, v), n) for n in (20, 400))
            for w in (0.3, 0.7, 1.0):
                for x in range(21):
                    assert discounted_ruin_gf(short, x, w) == discounted_ruin_gf(long, x, w)
