"""Claim distribution construction, validation, and transforms."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skipfree import (
    DiscountedModel,
    DomainError,
    NonPositiveP0,
    NotADistribution,
    SkipfreeError,
    WrongKind,
    from_jsonable,
    modified_geometric,
    validate,
)


def test_validate_exact_fractions(three_point):
    assert three_point.p0 == pytest.approx(2.0 / 3.0, abs=0)
    assert three_point.p1 == pytest.approx(2.0 / 9.0, abs=0)
    assert three_point.max_claim == 3
    assert three_point.mean == pytest.approx(float(Fraction(5, 9)), abs=1e-15)


def test_validate_accepts_mixed_input_types():
    d = validate([Fraction(1, 2), 0.25, "1/4"])
    assert d.pmf == (0.5, 0.25, 0.25)


def test_validate_trims_trailing_zeros():
    d = validate(["1/2", "1/2", "0", "0"])
    assert d.max_claim == 1
    assert len(d.pmf) == 2


def test_validate_rejects_bad_input():
    with pytest.raises(NonPositiveP0):
        validate(["0", "1"])
    with pytest.raises(NotADistribution):
        validate(["1/2", "-1/4", "3/4"])
    with pytest.raises(NotADistribution):
        validate(["1/2", "1/4"])
    with pytest.raises(NotADistribution):
        validate([])


def test_pgf_basics(three_point):
    assert three_point.pgf(1.0) == pytest.approx(1.0, abs=1e-15)
    # direct power sum
    z = 0.7
    direct = sum(three_point.p(k) * z**k for k in range(4))
    assert three_point.pgf(z) == pytest.approx(direct, rel=1e-15)
    assert three_point.pgf_prime(1.0) == pytest.approx(three_point.mean, rel=1e-15)
    for bad in (0.0, -0.3, 1.2):
        with pytest.raises(DomainError):
            three_point.pgf(bad)


def test_pgf_prime_is_the_derivative(three_point, modgeom):
    # pins the convention at interior points, where sum k p_k z^k and
    # sum k p_k z^(k-1) differ
    h = 1e-6
    for d in (three_point, modgeom):
        for z in (0.3, 0.8):
            numeric = (d.pgf(z + h) - d.pgf(z - h)) / (2.0 * h)
            assert d.pgf_prime(z) == pytest.approx(numeric, rel=1e-7)


def test_pmf_upto_and_tail(three_point):
    arr = three_point.pmf_upto(6)
    assert isinstance(arr, np.ndarray)
    assert arr.shape == (7,)
    assert arr[:4] == pytest.approx(list(three_point.pmf))
    assert arr[4:] == pytest.approx([0.0, 0.0, 0.0])
    assert three_point.tail(0) == pytest.approx(1.0 - three_point.p0, rel=1e-15)
    assert three_point.tail(3) == 0.0


def test_modified_geometric_pmf_shape(modgeom):
    # atoms at 0 and 1, geometric decay with ratio alpha beyond
    assert modgeom.kind == "modified_geometric"
    assert modgeom.max_claim is None
    assert modgeom.p(0) == pytest.approx(0.6)
    assert modgeom.p(1) == pytest.approx(0.24)
    beyond = 1.0 - 0.6 - 0.24
    for k in range(2, 8):
        expect = beyond * (1.0 - 0.4) * 0.4 ** (k - 2)
        assert modgeom.p(k) == pytest.approx(expect, rel=1e-14)
    assert modgeom.tail(4) == pytest.approx(beyond * 0.4**3, rel=1e-13)


def test_modified_geometric_pgf_matches_series(modgeom):
    for z in (0.3, 0.8, 1.0):
        series = sum(modgeom.p(k) * z**k for k in range(200))
        assert modgeom.pgf(z) == pytest.approx(series, rel=1e-12)
    mean_series = sum(k * modgeom.p(k) for k in range(200))
    assert modgeom.mean == pytest.approx(mean_series, rel=1e-12)
    assert modgeom.pgf_prime(1.0) == pytest.approx(modgeom.mean, rel=1e-13)


def test_modified_geometric_alpha_zero_truncates():
    d = modified_geometric(p0=0.5, p1=0.2, alpha=0.0)
    assert d.p(2) == pytest.approx(0.3)
    assert d.p(3) == 0.0
    assert d.tail(2) == 0.0


def test_modified_geometric_rejects_bad_parameters():
    with pytest.raises(NotADistribution):
        modified_geometric(p0=0.5, p1=0.5, alpha=0.3)
    with pytest.raises(NotADistribution):
        modified_geometric(p0=0.5, p1=0.2, alpha=1.0)
    with pytest.raises(NotADistribution):
        modified_geometric(p0=0.5, p1=-0.1, alpha=0.3)
    with pytest.raises(NonPositiveP0):
        modified_geometric(p0=0.0, p1=0.4, alpha=0.3)


def test_json_round_trip(three_point, modgeom):
    for d in (three_point, modgeom):
        back = from_jsonable(d.to_jsonable())
        assert back.kind == d.kind
        for k in range(6):
            assert back.p(k) == pytest.approx(d.p(k), rel=1e-15)
    text = json.dumps(three_point.to_jsonable())
    assert from_jsonable(text).pmf == three_point.pmf


def test_from_jsonable_rejects_unknown_type():
    with pytest.raises(WrongKind):
        from_jsonable({"type": "zeta", "s": 2.0})


@pytest.mark.parametrize("obj", [
    {"type": "table", "pmf": ["1", "1e400"]},
    {"type": "table", "pmf": [1.5, -0.5]},
    {"type": "table"},
    {"type": "modified_geometric", "p0": 0.5, "alpha": 0.3},
    {"type": "table", "pmf": [float("nan"), 1.0]},
    {"type": "table", "pmf": [0.5, float("inf")]},
    {"type": "modified_geometric", "p0": 0.5, "p1": 0.2, "alpha": float("inf")},
    {"type": "modified_geometric", "p0": "-1e400", "p1": 0.2, "alpha": 0.3},
    {"type": "table", "pmf": 5},
    '{"type": "table", "pmf": [NaN, 1]}',
    '{"type": "table", "pmf": [',
])
def test_from_jsonable_rejects_malformed_models(obj):
    with pytest.raises((NotADistribution, NonPositiveP0)):
        from_jsonable(obj)


def test_p0_rounding_to_zero_is_rejected():
    with pytest.raises(NonPositiveP0):
        validate(["1e-400", "1"])
    with pytest.raises(NonPositiveP0):
        modified_geometric(p0="1e-400", p1=0.5, alpha=0.3)


_SCALARS = (
    st.none() | st.booleans() | st.integers(-(10**400), 10**400)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(["1", "1/2", "2/3", "0", "-1/4", "1e400", "-1e400", "1e-400",
                       "nan", "inf", "1/0", "x"])
    | st.text(max_size=6)
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=12,
)
_MODELS = st.fixed_dictionaries(
    {"type": st.sampled_from(["table", "modified_geometric"]) | _JSON},
    optional={"pmf": st.lists(_SCALARS, max_size=6) | _JSON,
              "p0": _SCALARS, "p1": _SCALARS, "alpha": _SCALARS},
)


@settings(max_examples=300, deadline=None)
@given(obj=_MODELS | _JSON)
def test_model_json_raises_only_library_errors(obj):
    for parse in (from_jsonable, validate):
        try:
            parse(obj)
        except SkipfreeError:
            pass


def test_discounted_model_fields(three_point):
    dm = DiscountedModel(three_point, 0.9)
    assert 0.0 < dm.phi_v < 1.0
    assert dm.subcritical
    with pytest.raises(DomainError):
        DiscountedModel(three_point, 0.0)
    with pytest.raises(DomainError):
        DiscountedModel(three_point, 1.1)


def test_discounted_model_supercritical(heavy):
    dm = DiscountedModel(heavy, 1.0)
    assert not dm.subcritical
    assert dm.phi_v < 1.0


@settings(max_examples=40, deadline=None)
@given(
    raw=st.lists(st.integers(min_value=0, max_value=50), min_size=2, max_size=8).filter(
        lambda xs: xs[0] > 0 and sum(xs) > 0
    )
)
def test_validate_normalizes_any_weights(raw):
    total = sum(raw)
    d = validate([Fraction(w, total) for w in raw])
    assert d.pgf(1.0) == pytest.approx(1.0, abs=1e-12)
    # pgf is nondecreasing on (0, 1]
    zs = np.linspace(0.05, 1.0, 12)
    vals = [d.pgf(z) for z in zs]
    assert all(b - a >= -1e-12 for a, b in zip(vals, vals[1:]))
    assert abs(sum(d.p(k) for k in range(len(raw) + 1)) - 1.0) < 1e-12
