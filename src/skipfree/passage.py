"""First-passage and ruin functionals built on the scale tables.

Conventions throughout: ruin means the walk drops below zero, which by
skip-freeness can only happen through a claim; upward passage hits its
target exactly. Negative starting points are treated as already ruined
and starting at or above an upper barrier as already absorbed there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoConvergence, OutOfTable
from .model import _TRANSFORM, ClaimDistribution, DiscountedModel, _int_arg, _real_arg
from .scale import ScaleTable, _z_tail_terms

_IDENTITY_TOL = 1e-12
_UPPER = "upper barrier must be nonnegative"
_NM = "n and x_max must be nonnegative"
_CHECK_ROWS = 64  # rows of the finite-horizon DP whose identity is checked at once
_SURVIVAL_Z = "need z in (0, 1) distinct from phi_v; got {}"


def upcrossing_price(model: DiscountedModel, x: int, b: int) -> float:
    """E_x[v^tau] for the unrestricted first passage up to level b.

    Equals phi_v^(b - x) because each level climbed costs an
    independent factor phi_v; 1 when already at or above b, at any integer x and b.
    """
    x, b = _int_arg(x, None, "level"), _int_arg(b, None, "level")
    if x >= b:
        return 1.0
    return model.phi_v ** float(b - x)


def two_sided_up(table: ScaleTable, x: int, upper: int) -> float:
    """E_x[v^tau; reach upper before ruin] = W(x) / W(upper): 1 at x >= upper
    and 0 at x < 0, already absorbed or ruined."""
    if x.__class__ is not int or upper.__class__ is not int or upper < 0:
        x, upper = _int_arg(x, None, "level"), _int_arg(upper, 0, "level", _UPPER)
    if x >= upper:
        return 1.0
    return table.w_ratio(x, upper)


def deficit_gf(table: ScaleTable, x: int, b: int, w: float) -> float:
    """E_x[v^tau * w^(-X_tau); ruin before reaching b].

    Z(x, w) minus the two-sided passage price times Z(b, w); zero when
    the start is already at or above the upper level b, and w^(-x) at x < 0.
    """
    if x.__class__ is not int or b.__class__ is not int or b < 0:
        x, b = _int_arg(x, None, "level"), _int_arg(b, 0, "level", _UPPER)
    if x >= b:
        if w.__class__ is not float or not 0.0 < w <= 1.0:  # refused though no Z(., w) is read
            _real_arg(w, "w", _TRANSFORM)
        return 0.0
    return table.z_at(x, w) - table.w_ratio(x, b) * table.z_at(b, w)


def expected_deficit(table: ScaleTable, x: int, b: int) -> float:
    """E_x[v^tau * X_tau; ruin before reaching b], a nonpositive number:
    0 at x >= b and x itself at x < 0."""
    if x.__class__ is not int or b.__class__ is not int or b < 0:
        x, b = _int_arg(x, None, "level"), _int_arg(b, 0, "level", _UPPER)
    if x >= b:
        return 0.0
    return table.z1(x) - table.w_ratio(x, b) * table.z1(b)


def discounted_ruin(table: ScaleTable, x: int) -> float:
    """E_x[v^tau; ruin in finite time] for v < 1.

    Z(x) - alpha_v * W(x) with alpha_v = phi_v (1 - v) / (v (1 - phi_v)),
    which the table computes when it is built; 1 at x < 0, already ruined.
    """
    if x.__class__ is not int:
        x = _int_arg(x, None, "level")
    if table.v >= 1.0:
        raise DomainError("discounted ruin needs v < 1; see eventual_ruin")
    if x < 0:
        return 1.0
    return table.z(x) - table._alpha_v * table.w(x)


def eventual_ruin(table: ScaleTable, x: int) -> float:
    """Probability of ruin ever happening, for v = 1.

    1 - (1 - mean) * W(x) in the subcritical case; ruin is certain when
    the claim mean is at least 1, and at x < 0.
    """
    if x.__class__ is not int:
        x = _int_arg(x, None, "level")
    if table.v != 1.0:
        raise DomainError("eventual ruin is the v = 1 case")
    if x < 0:
        return 1.0
    drift = table._drift  # 1 - mean
    if drift <= 0.0:
        return 1.0
    return 1.0 - drift * table.w(x)


def ruin_limit_ratio(table: ScaleTable, w: float) -> float:
    """kappa(w), the limit of Z(b, w) / W(b) as b grows, for w in (0, 1].

    The closed form phi_v * (1/v - pgf[w, phi_v]), with the pgf's divided
    difference (its slope at w = phi_v), which sums only nonnegative terms;
    since phi_v = v * pgf(phi_v) it equals (pgf(w) - w/v) * phi_v / (phi_v - w)
    off w = phi_v. At v = 1 and w = 1 it is (1 - mean)^+, the constant
    eventual_ruin reads. It reads the table's model and no column, so it is
    the same for every table length, rescaled tables included.
    """
    w = _real_arg(w, "w", _TRANSFORM)
    if table.v == 1.0 and w == 1.0:
        return max(table._drift, 0.0)
    return table.phi * (1.0 / table.v - table.model.dist._pgf_slope(w, table.phi))


def discounted_ruin_gf(table: ScaleTable, x: int, w: float) -> float:
    """E_x[v^tau * w^(-X_tau); ruin in finite time], no upper barrier.

    Z(x, w) - kappa(w) * W(x) with kappa(w) = ruin_limit_ratio(table, w), so
    it reads levels x only: any table through x gives the same bits, and at
    v = 1 and w = 1 it is eventual_ruin(table, x). w^(-x) at x < 0.
    """
    x = _int_arg(x, None, "level")
    zx = table.z_at(x, w)
    return zx if x <= -1 else zx - ruin_limit_ratio(table, w) * table.w(x)


@dataclass(frozen=True, eq=False)
class RuinDP:
    """Exact finite-horizon ruin and survival probabilities.

    ruin[m, x] = P_x[ruin by time m] and survival[m, x] is its
    complement, for m = 0..n and x = 0..x_max. It holds arrays, so ==
    and hash go by identity.
    """

    n: int
    x_max: int
    ruin: np.ndarray
    survival: np.ndarray


def _ruin_rows(dist: ClaimDistribution, n: int, x_max: int):
    """Yield finite_time_ruin's rows m = 0..n, (survival, ruin) on 0..x_max, as
    views the next row overwrites; then raise NoConvergence where ruin +
    survival = 1 failed by more than 1e-12, checked _CHECK_ROWS rows at a time.

    Works backward in remaining horizon over a state band wide enough
    that no boundary truncation ever enters the rows.
    """
    top = x_max + n
    kernel = dist.pmf_upto(top + 2 if dist.max_claim is None else dist.max_claim)
    tails = np.array([dist.tail(x + 1) for x in range(top + 1)])
    s, r = np.ones(top + 1), np.zeros(top + 1)
    sums, maxima = np.empty((min(n + 1, _CHECK_ROWS), x_max + 1)), []
    for m in range(n + 1):
        if m:
            width = top - m
            s[: width + 1] = np.convolve(kernel, s[: width + 2])[1 : width + 2]
            r[: width + 1] = np.convolve(kernel, r[: width + 2])[1 : width + 2] + tails[: width + 1]
        k = m % _CHECK_ROWS
        np.add(r[: x_max + 1], s[: x_max + 1], out=sums[k])
        if k == len(sums) - 1 or m == n:
            block = sums[: k + 1]
            block -= 1.0
            maxima.append(np.max(np.abs(block, out=block)))
        yield s[: x_max + 1], r[: x_max + 1]
    gap = float(np.max(maxima))
    if gap > _IDENTITY_TOL:
        raise NoConvergence(f"ruin + survival identity violated by {gap:.3e}")


def finite_time_ruin(dist: ClaimDistribution, n: int, x_max: int) -> RuinDP:
    """Dynamic program for ruin within n steps, exact in the claim law.

    Fills RuinDP from the rows of _ruin_rows, whose complement identity
    ruin + survival = 1 is asserted to 1e-12.
    """
    n, x_max = _int_arg(n, 0, "horizon", _NM), _int_arg(x_max, 0, "x_max", _NM)
    surv, ruin = np.empty((n + 1, x_max + 1)), np.empty((n + 1, x_max + 1))
    for m, (s, r) in enumerate(_ruin_rows(dist, n, x_max)):
        surv[m], ruin[m] = s, r
    return RuinDP(n=n, x_max=x_max, ruin=ruin, survival=surv)


def killed_resolvent(table: ScaleTable, i: int, j: int, upper: int) -> float:
    """Expected discounted visits to j from i before leaving [0, upper-1].

    (W(upper - 1 - j) * W(i) / W(upper) - W(i - j - 1)) / v; zero when
    either state lies outside the band, i or j below 0 or from upper on.
    """
    i, j, upper = (_int_arg(level, None, "level") for level in (i, j, upper))
    if not 1 <= upper <= table.x_max:
        raise DomainError("upper must lie inside the table")
    if not (0 <= i < upper and 0 <= j < upper):
        return 0.0
    val = table.w(upper - 1 - j) * table.w_ratio(i, upper) - table.w(i - j - 1)
    return val / table.v


def w_at_downcrossing(
    table: ScaleTable, x: int, b: int, upper: int | None = None
) -> float:
    """E_x[v^tau * W(X_tau)] at the first passage below level b.

    With an upper killing barrier the value is
    W(x) - W(x - b) * W(upper) / W(upper - b); without one the barrier
    is pushed to infinity and the ratio tends to phi_v^(-b). W(x) at x < b,
    so 0 at x < 0, and 0 at x >= upper.
    """
    x = _int_arg(x, None, "level")
    b = _int_arg(b, 0, "level", "crossing level must be nonnegative")
    upper = upper if upper is None else _int_arg(upper, None, "level")
    if x < b:
        return table.w(x)
    if upper is None:
        return table.w(x) - table.w(x - b) * table.phi ** float(-b)
    if x >= upper:
        return 0.0
    return table.w(x) - table.w(x - b) * table.w(upper) / table.w(upper - b)


def survival_double_transform(model: DiscountedModel, z: float) -> float:
    """Closed form of sum_n sum_x v^n z^x P_x[no ruin through n].

    (z / (1 - z) - phi_v / (1 - phi_v)) / (z - v * pgf(z)), valid for
    z in (0, 1) away from phi_v and for phi_v < 1.
    """
    f, z = model.phi_v, _real_arg(z, "z", _SURVIVAL_Z, ends="()")
    if z == f:
        raise DomainError(_SURVIVAL_Z.format(z))
    if f >= 1.0:
        raise DomainError("transform diverges when phi_v = 1")
    num = z / (1.0 - z) - f / (1.0 - f)
    return num / (z - model.v * model.dist.pgf(z))


def ruin_double_transform(model: DiscountedModel, z: float) -> float:
    """Closed form of sum_n sum_x v^n z^x P_x[ruin by n], for v < 1 and z as survival's."""
    if model.v >= 1.0:
        raise DomainError("double transform needs v < 1")
    z = _real_arg(z, "z", _SURVIVAL_Z, ends="()")
    return 1.0 / ((1.0 - z) * (1.0 - model.v)) - survival_double_transform(model, z)


def eventual_survival_transform(dist: ClaimDistribution, z: float) -> float:
    """Closed form of sum_x z^x P_x[no ruin ever]: (1 - mean)^+ / (pgf(z) - z)."""
    z, m = _real_arg(z, "z", "need z in (0, 1); got {}", ends="()"), dist.mean
    if m >= 1.0:
        return 0.0
    return (1.0 - m) / (dist.pgf(z) - z)


def _stopped_dp(table: ScaleTable, x: int, n: int, w: float | None):
    """Mass evolution of the walk killed at ruin, with exact tail sums.

    Returns (alive mass vector over 0..x+n, accumulated discounted
    absorbed value). The absorbed value is zero when w is None and
    v^t * w^(-deficit) summed exactly otherwise.
    """
    model = table.model
    v = model.v
    levels = x + n + 1
    p = model.dist.pmf_upto(levels + 1)
    tails = _z_tail_terms(model, w, levels) if w is not None else None
    q = np.zeros(levels)
    q[x] = 1.0
    absorbed = 0.0
    disc = 1.0
    for _ in range(n):
        disc *= v
        if tails is not None:
            absorbed += disc * (q @ tails)
        # the mass at i moves to i + 1 - k with probability p_k
        q = np.convolve(q, p[::-1])[len(p) - 2: len(p) - 2 + levels]
    return q, absorbed, disc


def expected_stopped_w(table: ScaleTable, x: int, n: int) -> float:
    """Exact E_x[v^(n and tau) * W(X at n and tau)] over n steps.

    The stopped, discounted W sequence is a martingale, so the result
    should reproduce W(x) for every horizon; useful as an oracle, and 0 at
    x < 0. The horizon n and the start x are checked first, then x + n
    against the table, and W(0..x+n) is read before the DP runs.
    """
    n, x = _int_arg(n, 0, "horizon"), _int_arg(x, None, "level")
    if x < 0:
        return 0.0
    if table.x_max < x + n:
        raise OutOfTable(f"need the table up to x + n = {x + n}")
    vals = table._w_through(0, x + n)[: x + n + 1]
    q, _, disc = _stopped_dp(table, x, n, None)
    return float(disc * np.dot(q, vals))


def expected_stopped_z(table: ScaleTable, x: int, w: float, n: int) -> float:
    """Exact E_x[v^(n and tau) * Z(X at n and tau, w)] over n steps.

    w^(-x) at x < 0. Checks w, then n and x as expected_stopped_w does, so
    that a rescaled table, which has no Z(., w) column, is refused before the DP runs.
    """
    w = _real_arg(w, "w", _TRANSFORM)
    n, x = _int_arg(n, 0, "horizon"), _int_arg(x, None, "level")
    if x < 0:
        return table.z_at(x, w)
    if table.x_max < x + n:
        raise OutOfTable(f"need the table up to x + n = {x + n}")
    vals = table.zw_array(w)[: x + n + 1]
    q, absorbed, disc = _stopped_dp(table, x, n, w)
    return float(disc * np.dot(q, vals) + absorbed)
