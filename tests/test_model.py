"""Claim distribution construction, validation, and transforms."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skipfree import (
    ClaimDistribution,
    Degenerate,
    DiscountedModel,
    DomainError,
    NonPositiveP0,
    NotADistribution,
    SkipfreeError,
    WrongKind,
    from_jsonable,
    modified_geometric,
    phi,
    validate,
    w_table,
)
from skipfree import dividends as dv


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


def test_a_bool_is_no_probability():
    # True == 1 and False == 0, but a flag is not a probability
    for bad in ([True, False], [np.True_], ["1/2", True]):
        with pytest.raises(NotADistribution, match="unsupported probability type bool"):
            validate(bad)
    with pytest.raises(NotADistribution, match="unsupported probability type bool"):
        modified_geometric(0.5, False, 0.4)
    with pytest.raises(NotADistribution, match="unsupported probability type bool"):
        from_jsonable('{"type": "table", "pmf": [true]}')


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


def test_pgf_matches_polyval_bit_for_bit():
    # pgf and pgf_prime take numpy polyval's operation order on floats
    rng = np.random.default_rng(1708)
    for size in list(range(1, 131)) * 2:
        weights = rng.random(size)
        weights[0] += 0.1
        d = validate((weights / weights.sum()).tolist())
        slopes = [k * p for k, p in enumerate(d.pmf)][1:] or [0.0]
        for z in (float(rng.uniform(1e-3, 1.0)), 1.0):
            assert d.pgf(z) == float(np.polynomial.polynomial.polyval(z, d.pmf))
            assert d.pgf_prime(z) == float(np.polynomial.polynomial.polyval(z, slopes))


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


@pytest.mark.parametrize("p0, p1", [
    (0.7, 0.3), ("0.7", "0.3"), (0.1, 0.2 + 0.7), (0.5, 0.5 - 1e-13)])
def test_modified_geometric_rejects_a_tail_within_rounding(p0, p1):
    # 0.7 + 0.3 as floats falls short of 1 by 5.55e-17: a tail of no mass,
    # which the v = 1 degenerate check does not see
    obj = {"type": "modified_geometric", "p0": p0, "p1": p1, "alpha": 0.5}
    with pytest.raises(NotADistribution, match="^p0 \\+ p1 must be below 1 by more than 1e-12"):
        from_jsonable(obj)
    assert modified_geometric(p0=0.5, p1=0.5 - 1e-11, alpha=0.5).tail_mass > 0.0


@pytest.mark.parametrize("kwargs, error", [
    (dict(kind="modified_geometric", pmf=(0.5, 0.1), alpha=1.0), NotADistribution),
    (dict(kind="modified_geometric", pmf=(0.5, 0.1), alpha=1.5), NotADistribution),
    (dict(kind="modified_geometric", pmf=(0.5, 0.1), alpha=-0.1), NotADistribution),
    (dict(kind="modified_geometric", pmf=(0.5, 0.1), alpha=float("nan")), NotADistribution),
    (dict(kind="modified_geometric", pmf=(0.5, -0.1), alpha=0.3), NotADistribution),
    (dict(kind="modified_geometric", pmf=(0.5, 0.6), alpha=0.3), NotADistribution),
    (dict(kind="modified_geometric", pmf=(0.5, 0.1, 0.4), alpha=0.3), NotADistribution),
    (dict(kind="modified_geometric", pmf=(0.0, 0.1), alpha=0.3), NonPositiveP0),
    (dict(kind="tabel", pmf=(0.5, 0.5)), WrongKind),
    (dict(kind=["table"], pmf=(1.0,)), WrongKind),
    (dict(kind="table", pmf=(0.5, 0.7)), NotADistribution),
    (dict(kind="table", pmf=(0.5, -0.2, 0.7)), NotADistribution),
    (dict(kind="table", pmf=()), NotADistribution),
    (dict(kind="table", pmf=(0.5, float("nan"), 0.5)), NotADistribution),
    (dict(kind="table", pmf=(0.5, float("inf"))), NotADistribution),
    (dict(kind="table", pmf=(1.5,)), NotADistribution),
    (dict(kind="table", pmf=(0.5, 0.5 + 1e-11)), NotADistribution),
    (dict(kind="table", pmf=(0.0, 1.0)), NonPositiveP0),
    (dict(kind="modified_geometric", pmf=()), NotADistribution),
])
def test_direct_construction_keeps_the_error_contract(kwargs, error):
    with pytest.raises(error):
        ClaimDistribution(**kwargs)


def test_direct_construction_of_valid_laws():
    d = ClaimDistribution(kind="modified_geometric", pmf=(0.6, 0.24), alpha=0.4)
    assert d == modified_geometric(p0=0.6, p1=0.24, alpha=0.4)
    # p0 + p1 that rounds to 1 leaves an empty tail, not an error
    assert ClaimDistribution(kind="modified_geometric", pmf=(0.5, 0.5), alpha=0.3).mean == 0.5
    assert ClaimDistribution(kind="table", pmf=(0.5, 0.5)) == validate(["1/2", "1/2"])
    # a sum within the tolerance of validate still builds
    assert ClaimDistribution(kind="table", pmf=(0.5, 0.5 + 1e-13)).max_claim == 1


def test_direct_modified_geometric_tail_within_tolerance_is_empty():
    # 0.7 + 0.3 as floats leaves 5.55e-17: rounding, not a tail
    d = ClaimDistribution(kind="modified_geometric", pmf=(0.7, 0.3), alpha=0.5)
    assert d.tail_mass == 0.0 and d.tail(1) == 0.0 and d.mean == 0.3
    t = w_table(DiscountedModel(d, 1.0), 20)
    for value in (dv.definetti_value, dv.bailout_value_reflected):
        with pytest.raises(Degenerate):
            value(t, 5, 2)
    # a tail past the tolerance is kept as it stands
    assert ClaimDistribution(kind="modified_geometric", pmf=(0.6, 0.24), alpha=0.4).tail_mass \
        == 1.0 - 0.6 - 0.24
    assert ClaimDistribution(kind="modified_geometric", pmf=(0.5, 0.5 - 1e-11),
                             alpha=0.4).tail_mass == 1.0 - 0.5 - (0.5 - 1e-11)


def test_phi_v_is_solved_never_passed(three_point):
    with pytest.raises(TypeError):
        DiscountedModel(three_point, 0.9, 0.5)
    with pytest.raises(TypeError):
        DiscountedModel(three_point, 0.9, phi_v=0.5)
    assert DiscountedModel(three_point, 0.9).phi_v == phi(three_point, 0.9)


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


@pytest.mark.parametrize("obj, error", [
    ({"type": "table", "pmf": ["1e999999999"]}, NotADistribution),
    ({"type": "table", "pmf": ["1", "-1E+999_999_999"]}, NotADistribution),
    ({"type": "table", "pmf": ["1e-999999999", "1"]}, NonPositiveP0),
    ({"type": "modified_geometric", "p0": " 5e-999999999 ", "p1": 0.5, "alpha": 0.3},
     NonPositiveP0),
])
def test_far_exponents_are_decided_at_once(obj, error, deadline):
    with deadline(1.0), pytest.raises(error):
        from_jsonable(obj)


@pytest.mark.parametrize("pmf", [
    ["1/2", "1/2", "1e-2000"],
    ["1/2", "0.5e-0", "0.25e-500", "0"],
    ["0.7", "0.3", "0e5000"],
    ["1", "3.5e-1000"],
    ["1e-5000", "1"],
    ["1", "2.5e+5000"],
    ["0.25e1", "1"],
    ["1e-330", "1"],
    ["0.999999999999999", "1e-15", "1e-460"],
])
def test_exponent_cap_keeps_exact_outcome(pmf):
    """Capping a far exponent gives the pmf floats, or the error, that the
    exact rationals give."""
    def outcome(values):
        try:
            return validate(values).pmf
        except SkipfreeError as exc:
            return type(exc)
    assert outcome(pmf) == outcome([Fraction(x) for x in pmf])


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


def test_one_atom_law_has_zero_pgf_slope():
    d = validate(["1"])
    assert d.pgf_prime(0.5) == d.pgf_prime(1.0) == 0.0


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
