"""Smallest positive root of the Lundberg equation and passage-time laws."""

import itertools
import math
import statistics
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exact_reference as exact
from skipfree import DomainError, WrongKind, modified_geometric, phi, upcrossing_pmf, validate
from skipfree.golden import (MODGEOM_CASES, THREE_POINT_V, four_point_model, root_pair,
                             three_point_model, two_point_model)
from skipfree.model import ClaimDistribution


def test_phi_known_values(three_point, heavy):
    assert phi(three_point, THREE_POINT_V) == pytest.approx(0.8, abs=1e-12)
    assert phi(three_point, 1.0) == 1.0
    # two equal atoms at 0 and 3: the root at v=1 solves x^2 + x = 1
    assert phi(heavy, 1.0) == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, abs=1e-12)


def test_phi_deterministic_walk_is_v():
    d = validate(["1"])
    for v in (0.3, 0.77, 1.0):
        assert phi(d, v) == v


def test_phi_critical_model_is_one():
    d = validate(["1/2", "0", "1/2"])
    assert phi(d, 1.0) == 1.0


def test_phi_solves_fixed_point(three_point, modgeom):
    for d in (three_point, modgeom):
        for v in (0.5, 0.85, 0.99, 1.0):
            root = phi(d, v)
            assert 0.0 < root <= 1.0
            assert root == pytest.approx(v * d.pgf(root), abs=1e-13)


def test_phi_monotone_in_v(three_point):
    vs = np.linspace(0.4, 1.0, 13)
    roots = [phi(three_point, v) for v in vs]
    assert all(b > a for a, b in zip(roots, roots[1:]))


def test_root_pair_factorizes_denominator(modgeom):
    v = 0.85
    pair = root_pair(modgeom, v)
    assert pair.phi_v == pytest.approx(phi(modgeom, v), abs=1e-12)
    assert pair.R_v > 1.0
    # p(z) - z/v == k (z - phi)(z - R) / (1 - alpha z) on the whole line
    for z in (0.2, 0.5, 0.9, 1.3):
        lhs = float(exact.pgf(exact.law(modgeom), Decimal(z))[0]) - z / v
        rhs = pair.k_v * (z - pair.phi_v) * (z - pair.R_v) / (1.0 - modgeom.alpha * z)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_root_pair_needs_modified_geometric(three_point):
    with pytest.raises(WrongKind):
        root_pair(three_point, 0.9)


def _brute_upcrossing(b, n_max):
    """First-passage law to level b by exhaustive claim enumeration."""
    probs = {0: Fraction(2, 3), 1: Fraction(2, 9), 3: Fraction(1, 9)}
    out = [Fraction(0)] * (n_max + 1)
    if b == 0:
        out[0] = Fraction(1)
        return out
    for n in range(1, n_max + 1):
        for seq in itertools.product(probs, repeat=n):
            x = 0
            hit_at = None
            for t, c in enumerate(seq, start=1):
                x += 1 - c
                if x == b:
                    hit_at = t
                    break
            if hit_at == n:
                out[n] += math.prod(probs[c] for c in seq[:n])
    return out


def test_upcrossing_pmf_matches_enumeration(three_point):
    brute = _brute_upcrossing(1, 5)
    lib = upcrossing_pmf(three_point, 1, 5)
    for n in range(6):
        assert lib[n] == pytest.approx(float(brute[n]), abs=1e-14)
    assert float(brute[2]) == pytest.approx(4.0 / 27.0, abs=0)


def test_upcrossing_pmf_level_zero_is_immediate(three_point):
    pmf = upcrossing_pmf(three_point, 0, 4)
    assert pmf[0] == 1.0
    assert pmf[1:] == pytest.approx([0.0, 0.0, 0.0, 0.0])


def test_upcrossing_transform_is_phi_power(three_point):
    v, b = 0.9, 3
    pmf = upcrossing_pmf(three_point, b, 400)
    transform = sum(v**n * p for n, p in enumerate(pmf))
    assert transform == pytest.approx(phi(three_point, v) ** b, abs=1e-12)


def test_lagrange_series_sums_to_phi(three_point, two_point):
    for d, v in ((three_point, 0.9), (two_point, 65.0 / 72.0)):
        assert exact.lagrange_series(d, v, 200) == pytest.approx(phi(d, v), abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(v=st.floats(min_value=0.3, max_value=1.0))
def test_phi_bracket_property(v):
    d = validate(["2/3", "2/9", "0", "1/9"])
    root = phi(d, v)
    assert 0.0 < root <= 1.0
    assert abs(root - v * d.pgf(root)) < 1e-12


def _rel_err(dist, v):
    # at v = 1, p_0 is read so that 1 is a root, as it is for the exact law
    want = exact.root(exact.law(dist, unit=v == 1.0), v)
    return float(abs(Decimal(phi(dist, v)) - want) / want)


def _grid():
    """(law, v): golden, near-critical and seeded random laws at discounts from
    1e-20 to 1, with v = 1 only where the mean is above 1."""
    laws = [three_point_model(), two_point_model(), four_point_model(),
            validate(["1/2", "0", "0", "1/2"]), modified_geometric(0.6, 0.24, 0.4),
            validate(["1/2", "0", "1/2"]), validate(["1"])]
    laws += [validate([Fraction(1, 2) - Fraction(eps), 0, Fraction(1, 2) + Fraction(eps)])
             for eps in ("1e-3", "1e-6", "1e-9", "1e-12", "1e-15")]
    rng = np.random.default_rng(20170818)
    for _ in range(25):
        weights = rng.integers(0, 100, int(rng.integers(2, 41)))
        weights[0] += 1
        laws.append(validate([Fraction(int(k), int(weights.sum())) for k in weights]))
    vs = (1e-20, 1e-8, 0.05, 0.3, 0.8, 0.9, 0.99, 0.999, 0.999999)
    return [(d, v) for d in laws for v in vs + ((1.0,) if d.mean > 1.0 else ())]


def test_phi_matches_decimal_root(monkeypatch):
    steps = []
    slope = ClaimDistribution.pgf_prime

    def counted(self, z):  # one derivative per Newton step
        steps[-1] += 1
        return slope(self, z)

    monkeypatch.setattr(ClaimDistribution, "pgf_prime", counted)
    errors = []
    for d, v in _grid():
        steps.append(0)
        errors.append(_rel_err(d, v))
    assert len(errors) > 300
    assert max(errors) <= 1e-13
    assert statistics.median(errors) <= 1e-16
    assert max(steps) <= 64
    assert _rel_err(three_point_model(), 1e-20) <= 1e-15


@pytest.mark.parametrize("alpha, p0, p1, v0", MODGEOM_CASES)
def test_phi_matches_modgeom_quadratic(alpha, p0, p1, v0):
    d = modified_geometric(p0, p1, alpha)
    for v in (v0, 1e-8, 0.5, 0.9, 0.999):
        with localcontext() as ctx:
            ctx.prec = 80
            a, q0, q1, vd = (Decimal(x) for x in (d.alpha, d.p0, d.p1, v))
            # the quadratic of root_pair: k xi^2 + b xi + p0 = 0, phi its smaller root
            k = (1 - a) * (1 - q0) - q1 + a / vd
            b = q1 - a * q0 - 1 / vd
            want = (-b - (b * b - 4 * k * q0).sqrt()) / (2 * k)
            assert abs(Decimal(phi(d, v)) - want) / want <= Decimal("4e-16")


def test_phi_next_to_one_stays_at_or_below_v():
    # rounding in v * pgf(xi) - xi near 1 keeps the residual positive past the
    # root, and on this law the steps went on past 1
    d, v = validate(["7/26", "16/26", "3/26"]), 1.0 - 2.0**-53
    assert phi(d, v) <= v
    assert _rel_err(d, v) <= 1e-15


def test_phi_one_ulp_above_critical_is_p0_over_p2():
    eps = Fraction(2.0**-53)
    d = validate([Fraction(1, 2) - eps, 0, Fraction(1, 2) + eps])
    assert d.mean > 1.0
    assert phi(d, 1.0) == d.pmf[0] / d.pmf[2] < 1.0


@pytest.mark.parametrize("pmf, v", [(["1e-300", "1"], 1e-310), (["1/2", "0", "0", "1/2"], 5e-324)])
def test_phi_below_float_range_is_refused(pmf, v):
    with pytest.raises(DomainError, match=f"the Lundberg root at v = {v} lies below float range"):
        phi(validate(pmf), v)


def test_phi_subnormal_root():
    # xi = v (1/10 + 9/10 xi) has the root v / (10 - 9 v), which is v / 10 to float precision
    assert phi(validate(["1/10", "9/10"]), 1e-310) == 1e-311
