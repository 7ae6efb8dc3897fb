"""Lundberg roots and first-passage time distributions.

For discount v in (0, 1], phi_v is the smallest root in (0, 1] of the
Lundberg equation xi = v * pgf(xi). It equals the expected discounted
cost E[v^tau] of the first passage one level up, so phi_v^b prices a
climb of b levels.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .model import _DISCOUNT, ClaimDistribution, _int_arg, _real_arg


def phi(dist: ClaimDistribution, v: float) -> float:
    """Smallest root in (0, 1] of xi = v * pgf(xi).

    For v = 1 the root is exactly 1 when the claim mean is at most 1;
    otherwise Newton's method finds it from v * p_0, a point at or below
    it. A root whose start v * p_0 rounds to 0 lies below float range and
    raises DomainError.
    """
    v = _real_arg(v, "v", _DISCOUNT)
    if v == 1.0 and dist.mean <= 1.0:
        return 1.0
    x0 = v * dist.p0
    if x0 == 0.0:
        raise DomainError(f"the Lundberg root at v = {v} lies below float range")
    return _newton(dist, v, x0)


def _newton(dist: ClaimDistribution, v: float, x: float) -> float:
    """Newton's method on g(xi) = xi - v * pgf(xi) from an x at or below phi_v.

    g is concave, so each tangent meets zero at or below the root: the
    iterates rise to it, and the loop ends once the residual -g(x) or the
    step is no longer positive, or once a step would pass v, which lies
    above the root. At v = 1 the residual is taken as (1 - x)(1 - pgf[1, x]),
    with the divided difference pgf[1, x] summed from nonnegative terms,
    since v * pgf(x) - x cannot tell phi_v apart from the second root at 1.
    """
    while True:
        if v == 1.0:
            r = (1.0 - x) * (1.0 - dist._pgf_slope(x, 1.0))
        else:
            r = v * dist.pgf(x) - x
        slope = 1.0 - v * dist.pgf_prime(x)
        if not (r > 0.0 and slope > 0.0):
            return x
        step = r / slope
        if not x < x + step <= v:  # a step past v is rounding noise
            return x
        x += step


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
    base, conv = dist.pmf_upto(n_max), np.eye(1, n_max + 1)[0]
    for n in range(1, n_max + 1):
        conv = np.convolve(conv, base)[: n_max + 1]  # C_1 + ... + C_n, truncated at n_max
        if n >= b:
            out[n] = b / n * conv[n - b]
    return out
