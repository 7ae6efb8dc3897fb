"""Smallest positive root of the Lundberg equation and passage-time laws."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skipfree import (
    NoConvergence,
    WrongKind,
    lagrange_series,
    phi,
    root_pair,
    upcrossing_pmf,
    validate,
)
from skipfree.golden import THREE_POINT_V
from skipfree.lundberg import _MAXITER, _XTOL, _bisect


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
    alpha = modgeom.alpha
    # p(z) - z/v == k (z - phi)(z - R) / (1 - alpha z) on the whole line
    for z in (0.2, 0.5, 0.9, 1.3):
        lhs = modgeom.pgf(z) - z / v if z <= 1.0 else (
            modgeom.p0
            + modgeom.p1 * z
            + (1.0 - modgeom.p0 - modgeom.p1) * (1.0 - alpha) * z**2 / (1.0 - alpha * z)
            - z / v
        )
        rhs = pair.k_v * (z - pair.phi_v) * (z - pair.R_v) / (1.0 - alpha * z)
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
        assert lagrange_series(d, v, 200) == pytest.approx(phi(d, v), abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(v=st.floats(min_value=0.3, max_value=1.0))
def test_phi_bracket_property(v):
    d = validate(["2/3", "2/9", "0", "1/9"])
    root = phi(d, v)
    assert 0.0 < root <= 1.0
    assert abs(root - v * d.pgf(root)) < 1e-12


def test_bisect_matches_scipy_bit_for_bit():
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(20170820)
    cases = []
    for _ in range(300):
        roots = np.sort(rng.uniform(-3.0, 3.0, 3))
        lo, hi = np.sort(rng.uniform(-4.0, 4.0, 2))
        f = lambda x, r=roots: float((x - r[0]) * (x - r[1]) * (x - r[2]))
        if f(lo) * f(hi) <= 0.0:
            cases.append((f, float(lo), float(hi)))
    for _ in range(300):  # the Lundberg function g on its brackets in phi
        w = rng.integers(0, 50, int(rng.integers(2, 9)))
        w[0] += 1
        d = validate([Fraction(int(k), int(w.sum())) for k in w])
        v = float(rng.uniform(0.01, 1.0))
        g = lambda x, d=d, v=v: x - v * d.pgf(x)
        lo = v
        while g(lo) > 0.0:
            lo *= 0.5
        if g(v) > 0.0:
            cases.append((g, lo, v))
    cases.append((lambda x: x - 0.25, 0.25, 1.0))  # a root at an endpoint
    assert len(cases) > 400
    for f, lo, hi in cases:
        want = optimize.bisect(f, lo, hi, xtol=_XTOL, maxiter=_MAXITER)
        assert _bisect(f, lo, hi) == want


def test_bisect_that_cannot_converge_raises_library_error():
    # 200 halvings of [0, 1e300] leave a step far above the tolerance at 1e250
    with pytest.raises(NoConvergence):
        _bisect(lambda x: x - 1e250, 0.0, 1e300)
