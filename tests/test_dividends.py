"""Barrier dividend values, capital injections, and the barrier scan."""

from fractions import Fraction

import numpy as np
import pytest

import exact_reference as exact
from skipfree import (
    Degenerate,
    DiscountedModel,
    DomainError,
    bailout_value_reflected,
    definetti_value,
    dividends_law_at_barrier,
    dividends_law_pgf,
    doubly_reflected_influence,
    doubly_reflected_influence_affine,
    doubly_reflected_value,
    doubly_reflected_values,
    injections_mgf,
    joint_dividends_deficit,
    modified_definetti_influence,
    modified_definetti_value,
    multiband_diagnostics,
    optimize_barrier,
    reflected_ruin_gf,
    validate,
    w_table,
)
from skipfree.dividends import _strict_local_minima
from skipfree.golden import cached_table


@pytest.fixture(scope="module")
def degenerate_tab():
    deg = validate(["1/2", "1/2"])
    return w_table(DiscountedModel(deg, 1.0), 20)


def test_definetti_closed_form_at_zero(three_tab_09):
    d = three_tab_09.model.dist
    v = three_tab_09.v
    expect = d.p0 * v / (1.0 - d.p1 * v - d.p0 * v)
    assert definetti_value(three_tab_09, 0, 0) == pytest.approx(expect, rel=1e-12)
    assert definetti_value(three_tab_09, 0, 0) == pytest.approx(3.0, rel=1e-12)


def test_definetti_above_barrier_pays_excess(three_tab_09):
    base = definetti_value(three_tab_09, 4, 4)
    assert definetti_value(three_tab_09, 4, 9) == pytest.approx(base + 5.0, rel=1e-12)
    with pytest.raises(DomainError):
        definetti_value(three_tab_09, -1, 0)


def test_degenerate_model_raises(degenerate_tab):
    with pytest.raises(Degenerate):
        definetti_value(degenerate_tab, 3, 1)
    with pytest.raises(Degenerate):
        modified_definetti_influence(degenerate_tab, 3, 1.0)
    with pytest.raises(Degenerate):
        bailout_value_reflected(degenerate_tab, 3, 1)
    with pytest.raises(Degenerate):
        optimize_barrier(degenerate_tab, "definetti", 0.0, 0, 10)
    with pytest.raises(Degenerate):
        joint_dividends_deficit(degenerate_tab, 3, 1, 1.0, 1.0)


def test_modified_at_zero_penalty_is_definetti(three_tab_09):
    for b in range(12):
        assert modified_definetti_influence(three_tab_09, b, 0.0) == pytest.approx(
            1.0 / three_tab_09.dw(b), rel=1e-14
        )
        for x in range(b + 1):
            assert modified_definetti_value(three_tab_09, b, x, 0.0) == pytest.approx(
                definetti_value(three_tab_09, b, x), rel=1e-12
            )
    with pytest.raises(DomainError):
        modified_definetti_influence(three_tab_09, 2, -0.5)


def test_injections_mgf_conventions(three_tab_09):
    assert injections_mgf(three_tab_09, 5, 5, 0.6) == 1.0
    assert injections_mgf(three_tab_09, 5, 9, 0.6) == 1.0
    vals = [injections_mgf(three_tab_09, b, 0, 0.6) for b in (2, 4, 8)]
    assert vals[0] > vals[1] > vals[2] > 0.0
    with pytest.raises(DomainError):
        injections_mgf(three_tab_09, 5, 2, 1.5)
    with pytest.raises(DomainError):
        injections_mgf(three_tab_09, -1, 0, 0.6)


def test_joint_transform_collapses_to_ruin_gf(three_tab_09):
    b = 5
    for w in (0.5, 1.0):
        for x in range(b + 1):
            assert joint_dividends_deficit(three_tab_09, b, x, w, 1.0) == pytest.approx(
                reflected_ruin_gf(three_tab_09, b, x, w), rel=1e-12, abs=1e-14
            )
    above = joint_dividends_deficit(three_tab_09, b, b + 3, 0.5, 0.8)
    at = joint_dividends_deficit(three_tab_09, b, b, 0.5, 0.8)
    assert above == pytest.approx(0.8**3 * at, rel=1e-13)
    with pytest.raises(DomainError):
        joint_dividends_deficit(three_tab_09, b, 2, 0.5, 1.4)


def test_reflected_ruin_gf_bounds(three_tab_09):
    b = 6
    for x in range(b + 1):
        val = reflected_ruin_gf(three_tab_09, b, x, 1.0)
        assert 0.0 < val <= 1.0
    assert reflected_ruin_gf(three_tab_09, b, b + 4, 1.0) == pytest.approx(
        reflected_ruin_gf(three_tab_09, b, b, 1.0), rel=1e-15
    )


def test_dividends_law_geometric(three_tab_09):
    d = three_tab_09.model.dist
    v = three_tab_09.v
    theta0 = dividends_law_at_barrier(three_tab_09, 0)
    assert theta0 == pytest.approx(1.0 - d.p0 * v / (1.0 - d.p1 * v), rel=1e-13)
    assert theta0 == pytest.approx(0.25, rel=1e-13)
    for b in (0, 2, 5):
        theta = dividends_law_at_barrier(three_tab_09, b)
        assert 0.0 < theta < 1.0
        # mean of the geometric count equals W(b) / dW(b)
        mean = (1.0 - theta) / theta
        assert mean == pytest.approx(
            three_tab_09.w(b) / three_tab_09.dw(b), rel=1e-12
        )
        # pgf agrees with the geometric series
        for t in (0.3, 0.9, 1.0):
            series = sum(theta * (1.0 - theta) ** j * t**j for j in range(400))
            assert dividends_law_pgf(three_tab_09, b, t) == pytest.approx(
                series, rel=1e-12
            )
    with pytest.raises(DomainError):
        dividends_law_pgf(three_tab_09, 2, 0.0)


@pytest.mark.parametrize("t", [0.5, 1.0])
def test_dividends_law_pgf_rejects_negative_barrier(three_tab_09, t):
    # as dividends_law_at_barrier does; t = 1 used to return 1.0 for any b
    with pytest.raises(DomainError, match="barrier must be nonnegative"):
        dividends_law_pgf(three_tab_09, -1, t)


def test_bailout_value_nonnegative_below_barrier(three_tab_09, gsy_tab):
    for table, b in ((three_tab_09, 6), (gsy_tab, 10)):
        for x in range(b + 1):
            assert bailout_value_reflected(table, b, x) >= 0.0
        assert bailout_value_reflected(table, b, b + 5) == pytest.approx(
            bailout_value_reflected(table, b, b), rel=1e-12
        )


def test_doubly_reflected_conventions(gsy_tab):
    div0, bail0 = doubly_reflected_values(gsy_tab, 25, 0)
    divm, bailm = doubly_reflected_values(gsy_tab, 25, -4)
    assert divm == div0
    assert bailm == pytest.approx(bail0 + 4.0, abs=1e-12)
    divs = [doubly_reflected_values(gsy_tab, 25, x)[0] for x in range(26)]
    assert all(d > 0.0 for d in divs)
    assert all(b > a for a, b in zip(divs, divs[1:]))
    above = doubly_reflected_values(gsy_tab, 25, 30)[0]
    assert above == pytest.approx(divs[25] + 5.0, rel=1e-12)


def test_doubly_reflected_needs_discounting(three_tab_v1):
    with pytest.raises(DomainError):
        doubly_reflected_values(three_tab_v1, 5, 2)
    with pytest.raises(DomainError):
        doubly_reflected_influence(three_tab_v1, 5, 1.0)


def test_doubly_value_combines_both_accounts(gsy_tab):
    k = 1.2
    for x in (0, 10, 25):
        div, bail = doubly_reflected_values(gsy_tab, 25, x)
        assert doubly_reflected_value(gsy_tab, 25, x, k) == pytest.approx(
            div - k * bail, rel=1e-10
        )


def test_affine_influence_shares_maximizer(gsy_tab):
    k = 1.2
    h = [doubly_reflected_influence(gsy_tab, b, k) for b in range(61)]
    ha = [doubly_reflected_influence_affine(gsy_tab, b, k) for b in range(61)]
    assert h.index(max(h)) == ha.index(max(ha)) == 24


def test_strict_local_minima_edge_rules():
    assert _strict_local_minima([3, 1, 1, 2]) == [1]
    assert _strict_local_minima([2, 2, 2]) == []
    assert _strict_local_minima([3, 2, 1]) == []
    assert _strict_local_minima([1, 2]) == [0]
    assert _strict_local_minima([2, 1, 3, 0, 4]) == [1, 3]


def _strict_local_minima_loop(vals):
    """The per-value loop the array version replaced, kept as its reference."""
    runs = []
    for i, v in enumerate(vals):
        if not runs or runs[-1][0] != v:
            runs.append((float(v), i))
    out = []
    for r, (val, start) in enumerate(runs):
        left_ok = r == 0 or runs[r - 1][0] > val
        right_ok = r < len(runs) - 1 and runs[r + 1][0] > val
        if left_ok and right_ok:
            out.append(start)
    return out


def test_strict_local_minima_matches_loop():
    rng = np.random.default_rng(11)
    for n in [1, 2, 3, 5, 40] * 40:
        vals = rng.integers(0, 4, n).astype(float)
        vals[rng.random(n) < 0.1] = np.nan
        assert _strict_local_minima(vals) == _strict_local_minima_loop(vals.tolist())


def test_multiband_two_point(two_tab):
    assert multiband_diagnostics(two_tab, 50) == [0, 2]
    with pytest.raises(DomainError):
        multiband_diagnostics(two_tab, -1)


def test_optimizer_contract_morrill(two_tab):
    res = optimize_barrier(two_tab, "modified_definetti", 3.2, 0, 50)
    assert res.b_star == 2
    assert res.ties == (2,)
    assert res.attained
    assert res.lemma_case == "guaranteed"
    assert len(res.trace) == 51
    assert res.trace[2][1] == max(h for _, h in res.trace)
    payload = res.to_jsonable()
    assert set(payload) == {
        "objective", "k", "b_star", "value", "attained", "lemma_case", "ties", "trace",
    }
    assert payload["trace"][0].keys() == {"b", "H"}


def test_optimizer_rim_semantics(gsy_tab):
    narrow = optimize_barrier(gsy_tab, "modified_definetti", 1.2, 0, 45)
    wide = optimize_barrier(gsy_tab, "modified_definetti", 1.2, 0, 60)
    assert narrow.b_star == wide.b_star == 40
    assert not narrow.attained  # 40 sits in the final fifth of 0..45
    assert wide.attained


def test_optimizer_input_guards(three_tab_09):
    with pytest.raises(DomainError):
        optimize_barrier(three_tab_09, "martingale", 0.0, 0, 10)
    with pytest.raises(DomainError):
        optimize_barrier(three_tab_09, "definetti", 0.0, 0, -2)
    with pytest.raises(DomainError):
        optimize_barrier(three_tab_09, "modified_definetti", -1.0, 0, 10)


def test_optimizer_lemma_case_heuristic(three_tab_09):
    res = optimize_barrier(three_tab_09, "definetti", 0.0, 7, 30)
    assert res.b_star == 0
    assert res.lemma_case == "heuristic"
    assert res.value == pytest.approx(7.0 + definetti_value(three_tab_09, 0, 0), rel=1e-12)


def test_dominance_of_the_best_barrier(three_tab_09, two_tab, gsy_tab):
    # the winning barrier beats every other barrier at every start
    # at or below it
    for table, b_max in ((three_tab_09, 30), (two_tab, 50), (gsy_tab, 60)):
        res = optimize_barrier(table, "definetti", 0.0, 0, b_max)
        for b in range(0, b_max + 1, 5):
            for x in range(0, res.b_star + 1):
                assert definetti_value(table, res.b_star, x) >= definetti_value(
                    table, b, x
                ) * (1.0 - 1e-12)


def test_gsy_modified_argmax_matches_exact_arithmetic(four_point, gsy_tab):
    """Recompute the influence in exact rationals over a window around
    the float argmax; the float scan must agree."""
    p = (Fraction(3, 4), Fraction(1, 20), Fraction(1, 10), 0, 0, 0, 0, Fraction(1, 10))
    w, z = exact.columns(exact.Law(p), Fraction(999, 1000), 47)
    mean = sum(k * q for k, q in enumerate(p))
    k = Fraction(12, 10)
    exact_h = {}
    for b in range(35, 46):
        dz1 = z[b] - (1 - mean) * w[b]
        exact_h[b] = (1 - k * dz1) / (w[b + 1] - w[b])
    exact_argmax = max(exact_h, key=exact_h.get)
    assert exact_argmax == 40
    res = optimize_barrier(gsy_tab, "modified_definetti", 1.2, 0, 60)
    assert res.b_star == exact_argmax
