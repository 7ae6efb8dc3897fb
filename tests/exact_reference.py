"""Exact references the tests hold the library against, in Fraction or Decimal.

A Law is a claim law's atoms p_0..p_L and a geometric tail past them,
p_k = tail * (1 - alpha) * alpha^(k - L - 1) for k > L. `law` reads them
from a ClaimDistribution's floats, each as the Decimal it equals; a test
may give exact rationals instead. Also here: the Lagrange series for the
Lundberg root, a float cross-check no library module calls.
"""

from decimal import Decimal, localcontext
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from skipfree.model import _DISCOUNT, ClaimDistribution, _int_arg, _real_arg


class Law(NamedTuple):
    atoms: tuple
    tail: object = 0
    alpha: object = 0


def law(dist: ClaimDistribution, unit: bool = False) -> Law:
    """dist's floats as a Law. With unit, p_0 is read as 1 - sum_{k >= 1} p_k, so
    that 1 is a root of xi = pgf(xi) as for the exact law; floats are dyadic, so
    1100 digits hold that sum exactly."""
    atoms, tail = [Decimal(p) for p in dist.pmf], Decimal(dist.tail_mass)
    if unit:
        with localcontext() as ctx:
            ctx.prec = 1100
            atoms[0] = 1 - sum(atoms[1:]) - tail
    return Law(tuple(atoms), tail, Decimal(dist.alpha))


def pgf(law: Law, z) -> tuple:
    """(pgf(z), pgf'(z)): Horner over the atoms, plus the tail's closed form."""
    p = dp = 0
    for c in reversed(law.atoms):
        dp = p + z * dp
        p = c + z * p
    if law.tail:
        m, a = len(law.atoms), law.alpha
        geo, den = law.tail * (1 - a) * z ** (m - 1), 1 - a * z
        p += geo * z / den
        dp += geo * (m - (m - 1) * a * z) / (den * den)
    return p, dp


def columns(law: Law, v, n: int) -> tuple[list, list]:
    """(W(0..n), Z(0..n)) at discount v (read as the atoms' type), Decimals at 60
    digits: W(0) = 1 / p_0, p_0 W(x + 1) = W(x) / v - sum_{k >= 1} p_k W(x + 1 - k)
    and Z(x) = 1 + (1 / v - 1) sum_{y < x} W(y)."""
    with localcontext() as ctx:
        ctx.prec = 60
        p0, inv_v, m = law.atoms[0], 1 / type(law.atoms[0])(v), len(law.atoms)
        band = [(k, pk) for k, pk in enumerate(law.atoms) if k and pk]
        geo = law.tail * (1 - law.alpha)
        w, g = [1 / p0], 0  # g: the tail's sum_{k >= m} p_k W(x + 1 - k)
        for x in range(n):
            s = sum(pk * w[x + 1 - k] for k, pk in band if k <= x + 1) + g
            if geo and x + 2 >= m:
                g = law.alpha * g + geo * w[x + 2 - m]
            w.append((w[x] * inv_v - s) / p0)
        cum = [0, *accumulate(w[:-1])]  # sum_{y < x} W(y)
        return w, [1 + (inv_v - 1) * c for c in cum]


def root(law: Law, v, digits: int = 80) -> Decimal:
    """The smallest root of xi = v * pgf(xi), by Newton's method from v * p_0,
    which rises to it, to a step below 10^(10 - digits) relative."""
    with localcontext() as ctx:
        ctx.prec = digits
        v = Decimal(v)
        x, tol = v * law.atoms[0], Decimal(10) ** (10 - digits)
        while True:
            p, dp = pgf(law, x)
            step = (v * p - x) / (1 - v * dp)
            x += step
            if abs(step) <= x * tol:
                return x


def kappa(dist: ClaimDistribution, v, w) -> Decimal:
    """kappa(w) = phi (1/v - pgf[w, phi]) at 60 digits, with the pgf's divided
    difference, on dist's floats: phi is 1 at v = 1 where the mean is at most 1,
    else root."""
    lw = law(dist)
    with localcontext() as ctx:
        ctx.prec = 60
        v, w = Decimal(v), Decimal(w)
        f = Decimal(1) if v == 1 and dist.mean <= 1.0 else root(lw, v, 60)
        slope = pgf(lw, f)[1] if w == f else (pgf(lw, w)[0] - pgf(lw, f)[0]) / (w - f)
        return f * (1 / v - slope)


def lagrange_series(dist: ClaimDistribution, v: float, n_max: int) -> float:
    """Partial sum of the Lagrange inversion series for phi_v: the sum over
    n >= 1 of v^n / n * P[C_1 + ... + C_n = n - 1]."""
    n_max, v = _int_arg(n_max, 0, "n_max"), _real_arg(v, "v", _DISCOUNT)
    base, conv = dist.pmf_upto(n_max), np.eye(1, n_max + 1)[0]
    total, vn = 0.0, 1.0
    for n in range(1, n_max + 1):
        conv = np.convolve(conv, base)[: n_max + 1]  # C_1 + ... + C_n, truncated at n_max
        vn *= v
        total += vn / n * conv[n - 1]
    return total
