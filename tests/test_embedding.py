"""Reading the tables as scale functions of a lattice Levy process."""

import math

import pytest

from skipfree import DiscountedModel, DomainError, OverflowSignal, validate, w_table
from skipfree.embedding import LevyChainParams, laplace_exponent, phi_q, wq, zq


@pytest.fixture(scope="module")
def params(request):
    from skipfree.golden import three_point_model

    return LevyChainParams(dist=three_point_model(), gamma=2.0, h=0.5)


def test_parameter_validation(three_point):
    with pytest.raises(DomainError):
        LevyChainParams(dist=three_point, gamma=0.0, h=1.0)
    with pytest.raises(DomainError):
        LevyChainParams(dist=three_point, gamma=1.0, h=-0.5)


def test_levy_mass(params):
    # claims of size 1 do not move the spatially rescaled walk
    assert params.levy_mass == pytest.approx(2.0 * (1.0 - 2.0 / 9.0), rel=1e-15)


def test_laplace_exponent_edges(params):
    assert laplace_exponent(params, 0.0) == 0.0
    with pytest.raises(DomainError):
        laplace_exponent(params, -0.1)
    # direct jump-sum evaluation
    beta = 0.3
    d, g, h = params.dist, params.gamma, params.h
    direct = g * (
        math.exp(beta * h) * sum(d.p(k) * math.exp(-beta * h * k) for k in range(4))
        - 1.0
    )
    assert laplace_exponent(params, beta) == pytest.approx(direct, rel=1e-14)


def test_phi_q_inverts_the_exponent(params):
    assert phi_q(params, 0.0) == 0.0
    assert math.copysign(1.0, phi_q(params, 0.0)) == 1.0  # not -0.0
    for q in (0.25, 1.0, 3.0):
        root = phi_q(params, q)
        assert root > 0.0
        assert laplace_exponent(params, root) == pytest.approx(q, abs=1e-10)
    qs = (0.1, 0.5, 1.0, 2.0)
    roots = [phi_q(params, q) for q in qs]
    assert all(b > a for a, b in zip(roots, roots[1:]))


def test_phi_q_positive_at_zero_for_downward_drift():
    heavy = validate(["1/2", "0", "0", "1/2"])
    p = LevyChainParams(dist=heavy, gamma=1.0, h=1.0)
    expect = -math.log((math.sqrt(5.0) - 1.0) / 2.0)
    assert phi_q(p, 0.0) == pytest.approx(expect, abs=1e-12)


def test_wq_zq_base_values(params):
    assert wq(params, 1.0, 0) == pytest.approx(
        1.0 / (params.gamma * params.h * params.dist.p0), rel=1e-14
    )
    assert zq(params, 1.0, 0) == 1.0


def test_wq_asymptotic_growth(params):
    """wq(m) e^(-Phi(q)(m+1)h) approaches 1 / psi'(Phi(q))."""
    q = 1.0
    root = phi_q(params, q)
    eps = 1e-4
    slope = (
        laplace_exponent(params, root + eps) - laplace_exponent(params, root - eps)
    ) / (2.0 * eps)
    m = 200
    scaled = wq(params, q, m) * math.exp(-root * (m + 1) * params.h)
    assert scaled == pytest.approx(1.0 / slope, rel=1e-6)


def test_padding_overflow_falls_back_to_exact_table(four_point):
    # the padded table (0..2047) overflows, W(1100) ~ 8.6e168 does not
    p = LevyChainParams(dist=four_point, gamma=2.0, h=0.5)
    table = w_table(DiscountedModel(four_point, 2.0 / 2.4), 1100)
    with pytest.raises(OverflowSignal):
        w_table(DiscountedModel(four_point, 2.0 / 2.4), 2048)
    assert wq(p, 0.4, 1100) == table.w(1100) / (2.0 * 0.5)
    assert zq(p, 0.4, 1100) == table.z(1100)
    with pytest.raises(OverflowSignal):
        wq(p, 0.4, 4000)
