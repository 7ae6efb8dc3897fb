"""Lundberg roots and first-passage time distributions.

For discount v in (0, 1], phi_v is the smallest root in (0, 1] of the
Lundberg equation xi = v * pgf(xi). It equals the expected discounted
cost E[v^tau] of the first passage one level up, so phi_v^b prices a
climb of b levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoConvergence, WrongKind
from .model import _DISCOUNT, MODIFIED_GEOMETRIC, ClaimDistribution, _int_arg, _real_arg

_XTOL = 1e-15
_RTOL = 2.0**-50  # 4 machine epsilons, scipy's default
_MAXITER = 200


def _bisect(f, xa: float, xb: float) -> float:
    """Root of f on a sign-changing bracket [xa, xb], by the steps of
    scipy.optimize.bisect at xtol = _XTOL, so it returns the same float."""
    fa = f(xa)
    if fa == 0.0:
        return xa
    if f(xb) == 0.0:
        return xb
    dm = xb - xa
    for _ in range(_MAXITER):
        dm *= 0.5
        xm = xa + dm
        fm = f(xm)
        if fm * fa >= 0.0:
            xa = xm
        if fm == 0.0 or abs(dm) < _XTOL + _RTOL * abs(xm):
            return xm
    raise NoConvergence(f"bisection did not converge in {_MAXITER} steps")


def phi(dist: ClaimDistribution, v: float) -> float:
    """Smallest root in (0, 1] of xi = v * pgf(xi).

    For v = 1 the root is exactly 1 when the claim mean is at most 1;
    otherwise it is found by bisection, which is guaranteed to converge
    because xi - v * pgf(xi) is negative at 0 and nonnegative at v.
    """
    v = _real_arg(v, "v", _DISCOUNT)

    def g(xi: float) -> float:
        return xi - v * dist.pgf(xi)

    if v == 1.0:
        if dist.mean <= 1.0:
            return 1.0
        hi = 0.5
        while g(hi) <= 0.0:
            hi = 0.5 * (1.0 + hi)
            if 1.0 - hi < 1e-14:
                # mean barely above 1; the root is indistinguishable from 1
                return 1.0
        lo = hi
        while g(lo) > 0.0:
            lo *= 0.5
        return float(_bisect(g, lo, hi))

    upper = g(v)
    if upper <= 0.0:
        # only possible when pgf(v) = 1, i.e. all mass at zero
        return v
    lo = v
    while g(lo) > 0.0:
        lo *= 0.5
    return float(_bisect(g, lo, v))


@dataclass(frozen=True)
class RootPair:
    """Both roots of the quadratic Lundberg equation of a modified
    geometric claim law, with the quadratic's leading coefficient."""

    phi_v: float
    R_v: float
    k_v: float


def root_pair(dist: ClaimDistribution, v: float) -> RootPair:
    """Closed-form Lundberg roots for a modified geometric claim law.

    Clearing the geometric denominator turns the Lundberg equation into
    k_v * xi^2 + (p1 - alpha*p0 - 1/v) * xi + p0 = 0 with
    k_v = (1 - alpha)(1 - p0) - p1 + alpha / v. The larger root R_v is
    computed with the numerically stable branch and phi_v recovered from
    the product of roots, phi_v * R_v = p0 / k_v.
    """
    if dist.kind != MODIFIED_GEOMETRIC:
        raise WrongKind("root_pair requires a modified geometric distribution")
    v = _real_arg(v, "v", _DISCOUNT)
    p0, p1, a = dist.p0, dist.p1, dist.alpha
    k_v = (1.0 - a) * (1.0 - p0) - p1 + a / v
    b = p1 - a * p0 - 1.0 / v
    disc = b * b - 4.0 * k_v * p0
    if disc < 0.0:
        if disc < -1e-12:
            raise DomainError("Lundberg quadratic has no real roots")
        disc = 0.0
    big = (-b + math.sqrt(disc)) / (2.0 * k_v)
    small = p0 / (k_v * big)
    return RootPair(phi_v=small, R_v=big, k_v=k_v)


def _convolution_powers(dist: ClaimDistribution, n_max: int):
    """Yield (n, dense pmf of C_1 + ... + C_n truncated at n_max)."""
    base = dist.pmf_upto(n_max)
    conv = np.zeros(n_max + 1)
    conv[0] = 1.0
    for n in range(1, n_max + 1):
        conv = np.convolve(conv, base)[: n_max + 1]
        yield n, conv


def upcrossing_pmf(dist: ClaimDistribution, b: int, n_max: int) -> np.ndarray:
    """P[first passage to level b takes exactly n steps], n = 0..n_max.

    Starting from 0, Kemperman's formula gives the probability as
    (b / n) * P[C_1 + ... + C_n = n - b] for n >= b >= 1; entries below
    n = b are zero and b = 0 is the unit mass at n = 0.
    """
    b = _int_arg(b, 0, "level", "target level must be nonnegative")
    n_max = _int_arg(n_max, 0, "n_max")
    out = np.zeros(n_max + 1)
    if b == 0:
        out[0] = 1.0
        return out
    for n, conv in _convolution_powers(dist, n_max):
        if n >= b:
            out[n] = b / n * conv[n - b]
    return out


def lagrange_series(dist: ClaimDistribution, v: float, n_max: int) -> float:
    """Partial sum of the Lagrange inversion series for phi_v.

    phi_v = sum over n >= 1 of v^n / n * P[C_1 + ... + C_n = n - 1].
    Useful as an independent cross-check of the bisection root.
    """
    n_max, v = _int_arg(n_max, 0, "n_max"), _real_arg(v, "v", _DISCOUNT)
    total = 0.0
    vn = 1.0
    for n, conv in _convolution_powers(dist, n_max):
        vn *= v
        total += vn / n * conv[n - 1]
    return total
