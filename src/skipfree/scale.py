"""Scale-function tables for the upwards skip-free walk.

W is the fundamental (harmonic) scale sequence: W(0) = 1/p_0, W(x) = 0
for x < 0, and v * sum_k p_k W(x + 1 - k) = W(x). Z(., w) is the
companion sequence started from Z(0, w) = 1 with boundary w^{-x} below
zero; Z1 integrates Z against the drift. All first-passage, ruin and
dividend quantities in this package reduce to ratios and differences of
these tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    InfiniteMean,
    NoConvergence,
    OutOfTable,
    OverflowSignal,
)
from .model import DiscountedModel

_SELF_CHECK_RTOL = 1e-10
_DH_TARGET = 1e-12


def _recur(coef, y0: float, growth: tuple[float, float], x_max: int, forcing) -> np.ndarray:
    """Forward step shared by the W, tilted-W and Z recursions.

    y(x+1) = (y(x) * num / den - sum_{k>=1} coef_k y(x+1-k) - forcing(x))
    / coef_0 from y(0) = y0, where growth = (num, den).
    """
    num, den = growth
    y = np.empty(x_max + 1)
    y[0] = y0
    # overflow is detected by the callers; keep the loop warning-free
    with np.errstate(over="ignore", invalid="ignore"):
        for x in range(x_max):
            s = float(np.dot(coef[1 : x + 2], y[x::-1]))
            y[x + 1] = (y[x] * num / den - s - forcing[x]) / coef[0]
    return y


def _w_array(model: DiscountedModel, x_max: int) -> np.ndarray:
    """Forward harmonic recursion for W(0..x_max)."""
    p = model.dist.pmf_upto(x_max + 1)
    return _recur(p, 1.0 / p[0], (1.0, model.v), x_max, np.zeros(x_max))


def _w_array_alt(model: DiscountedModel, x_max: int) -> np.ndarray:
    """Independent recursion for W driven by the claim cdf.

    W(n+1) = W(0) + sum_{k=1}^{n+1} c_k W(n+1-k) with
    c_k = (1/v - P[C <= k]) / p_0. Used as a built-in self check.
    """
    v = model.v
    p = model.dist.pmf_upto(x_max + 2)
    cdf = np.cumsum(p)
    c = (1.0 / v - cdf) / p[0]
    w = np.empty(x_max + 1)
    w[0] = 1.0 / p[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for n1 in range(1, x_max + 1):
            w[n1] = w[0] + float(np.dot(c[1 : n1 + 1], w[n1 - 1 :: -1]))
    return w


def _w_array_tilted(model: DiscountedModel, x_max: int) -> np.ndarray:
    """Recursion for W(x) * phi^x, which stays bounded by A / phi."""
    f = model.phi_v
    p = model.dist.pmf_upto(x_max + 1)
    t = p * f ** np.arange(x_max + 2, dtype=float)
    return _recur(t, 1.0 / p[0], (f / model.v, 1.0), x_max, np.zeros(x_max))


def _z_tail_terms(model: DiscountedModel, w: float, x_max: int) -> np.ndarray:
    """T(x, w) = sum_{j >= x+2} p_j w^{j-x-1} for x = 0..x_max-1."""
    dist = model.dist
    if dist.kind == "table":
        # backward Horner: H(x) = p_{x+2} + H(x+1) w and T(x, w) = w H(x)
        p = dist.pmf
        h = np.zeros(max(x_max, len(p)))
        for x in range(len(p) - 3, -1, -1):
            h[x] = p[x + 2] + h[x + 1] * w
        return w * h[:x_max]
    q = 1.0 - dist.p0 - dist.p1
    a = dist.alpha
    return q * (1.0 - a) * a ** np.arange(x_max, dtype=float) * w / (1.0 - a * w)


def z_table_w(model: DiscountedModel, w: float, x_max: int) -> np.ndarray:
    """Forward recursion for Z(0..x_max, w) with Z(0, w) = 1.

    The step from x to x+1 sums the claim overshoot exactly through the
    tail terms T(x, w), so no truncation of the claim law is involved.
    """
    if not 0.0 < w <= 1.0:
        raise DomainError(f"transform argument {w} outside (0, 1]")
    if x_max < 0:
        raise DomainError("x_max must be nonnegative")
    p = model.dist.pmf_upto(x_max + 1)
    return _recur(p, 1.0, (1.0, model.v), x_max, _z_tail_terms(model, w, x_max))


@dataclass
class ScaleTable:
    """Precomputed scale sequences for one model on 0..x_max.

    Accessors apply the boundary conventions (W = 0, Z(., w) = w^{-x},
    Z1 = x below zero) and raise OutOfTable past x_max. With
    rescaled=True only the tilted W column W(x) * phi^x is stored, which
    keeps ratios representable when W itself would overflow; the Z
    family is unavailable in that mode.
    """

    model: DiscountedModel
    x_max: int
    rescaled: bool
    _w: np.ndarray
    _z: np.ndarray | None = None
    _z1: np.ndarray | None = None
    _zw: dict[float, np.ndarray] = field(default_factory=dict)

    @property
    def v(self) -> float:
        return self.model.v

    @property
    def phi(self) -> float:
        return self.model.phi_v

    def _check_index(self, x: int) -> None:
        if x > self.x_max:
            raise OutOfTable(f"x = {x} beyond table range 0..{self.x_max}")

    def _no_rescale(self, what: str) -> None:
        if self.rescaled:
            raise DomainError(f"{what} is unavailable on a rescaled table")

    def w_array(self) -> np.ndarray:
        """Plain W(0..x_max); raises OverflowSignal if unrepresentable."""
        if not self.rescaled:
            return self._w
        with np.errstate(over="ignore"):
            out = self._w * self.phi ** -np.arange(self.x_max + 1, dtype=float)
        if not np.all(np.isfinite(out)):
            raise OverflowSignal("W exceeds float range; work with ratios instead")
        return out

    def tilted_w_array(self) -> np.ndarray:
        """W(x) * phi^x, the column actually stored when rescaled."""
        if self.rescaled:
            return self._w
        return self._w * self.phi ** np.arange(self.x_max + 1, dtype=float)

    def w(self, x: int) -> float:
        if x < 0:
            return 0.0
        self._check_index(x)
        if not self.rescaled:
            return float(self._w[x])
        try:
            val = self._w[x] * self.phi ** float(-x)
        except OverflowError:
            raise OverflowSignal(f"W({x}) exceeds float range") from None
        if not math.isfinite(val):
            raise OverflowSignal(f"W({x}) exceeds float range")
        return float(val)

    def w_ratio(self, x: int, y: int) -> float:
        """W(x) / W(y), computed stably on rescaled tables."""
        if y < 0:
            raise DomainError("denominator index must be nonnegative")
        self._check_index(y)
        if x < 0:
            return 0.0
        self._check_index(x)
        if not self.rescaled:
            return float(self._w[x] / self._w[y])
        try:
            return float(self._w[x] / self._w[y] * self.phi ** float(y - x))
        except OverflowError:
            raise OverflowSignal(f"W({x})/W({y}) exceeds float range") from None

    def _diff(self, at, b: int, *args) -> float:
        """First difference at(b + 1, *args) - at(b, *args) of an accessor."""
        if b < 0:
            raise DomainError("difference index must be nonnegative")
        self._check_index(b + 1)
        return at(b + 1, *args) - at(b, *args)

    def dw(self, b: int) -> float:
        """First difference W(b+1) - W(b)."""
        return self._diff(self.w, b)

    def w_over_dw(self, x: int, b: int) -> float:
        """W(x) / (W(b+1) - W(b)), stable on rescaled tables."""
        if b < 0:
            raise DomainError("difference index must be nonnegative")
        self._check_index(b + 1)
        if x < 0:
            return 0.0
        self._check_index(x)
        # dW can round to zero at v = 1 once W saturates; the ratio is
        # then reported as inf
        if not self.rescaled:
            with np.errstate(divide="ignore"):
                return float(self._w[x] / (self._w[b + 1] - self._w[b]))
        den = self._w[b + 1] - self.phi * self._w[b]
        try:
            with np.errstate(divide="ignore"):
                return float(self._w[x] / den * self.phi ** float(b + 1 - x))
        except OverflowError:
            raise OverflowSignal(
                f"W({x})/dW({b}) exceeds float range") from None

    def cum_w(self, x: int) -> float:
        """Sum of W(y) for 0 <= y < x."""
        self._no_rescale("cumulative W")
        if x <= 0:
            return 0.0
        self._check_index(x - 1)
        return float(np.sum(self._w[:x]))

    def _z_values(self) -> np.ndarray:
        self._no_rescale("Z")
        if self._z is None:
            cum = np.concatenate([[0.0], np.cumsum(self._w)])
            self._z = 1.0 + (1.0 / self.v - 1.0) * cum[: self.x_max + 1]
        return self._z

    def z(self, x: int) -> float:
        if x < 0:
            return 1.0
        self._check_index(x)
        return float(self._z_values()[x])

    def dz(self, b: int) -> float:
        return self._diff(self.z, b)

    def _z1_values(self) -> np.ndarray:
        self._no_rescale("Z1")
        if self._z1 is None:
            m = self.model.dist.mean
            if math.isinf(m):
                raise InfiniteMean("Z1 requires a finite claim mean")
            zc = np.concatenate([[0.0], np.cumsum(self._z_values())])
            wc = np.concatenate([[0.0], np.cumsum(self._w)])
            n = self.x_max + 1
            self._z1 = zc[:n] - (1.0 - m) * wc[:n]
        return self._z1

    def z1(self, x: int) -> float:
        if x < 0:
            return float(x)
        self._check_index(x)
        return float(self._z1_values()[x])

    def dz1(self, b: int) -> float:
        return self._diff(self.z1, b)

    def zw_array(self, w: float) -> np.ndarray:
        """Z(0..x_max, w), computed once per transform argument."""
        self._no_rescale("Z(., w)")
        key = float(w)
        if key not in self._zw:
            if key == 1.0:
                self._zw[key] = self._z_values()
            else:
                self._zw[key] = z_table_w(self.model, key, self.x_max)
        return self._zw[key]

    def z_at(self, x: int, w: float) -> float:
        if x < 0:
            if not 0.0 < w <= 1.0:
                raise DomainError(f"transform argument {w} outside (0, 1]")
            return float(w) ** (-x)
        self._check_index(x)
        return float(self.zw_array(w)[x])

    def dzw(self, b: int, w: float) -> float:
        return self._diff(self.z_at, b, w)


def w_table(model: DiscountedModel, x_max: int, rescaled: bool = False) -> ScaleTable:
    """Build the scale table on 0..x_max.

    The plain build runs two algebraically independent recursions and
    raises NoConvergence if they disagree beyond 1e-10 relative error,
    and OverflowSignal if entries leave float range (retry with
    rescaled=True in that case, at the price of losing the Z family).
    """
    if x_max < 0:
        raise DomainError("x_max must be nonnegative")
    if rescaled:
        arr = _w_array_tilted(model, x_max)
        if not np.all(np.isfinite(arr)):
            raise NoConvergence("tilted W recursion produced non-finite values")
        return ScaleTable(model=model, x_max=x_max, rescaled=True, _w=arr)
    arr = alt = _w_array(model, x_max)
    if np.all(np.isfinite(arr)):
        alt = _w_array_alt(model, x_max)
    if not np.all(np.isfinite(alt)):
        raise OverflowSignal(
            "W exceeds float range on 0..%d; retry with rescaled=True" % x_max
        )
    rel = np.max(np.abs(arr - alt) / np.abs(arr))
    if rel > _SELF_CHECK_RTOL:
        raise NoConvergence(
            f"W self-check failed: recursions disagree by {rel:.3e} relative"
        )
    return ScaleTable(model=model, x_max=x_max, rescaled=False, _w=arr)


def asymptotic_constant(model: DiscountedModel) -> float:
    """Limit A of W(x) * phi^(x+1) as x grows.

    A = v / (1 - v * pgf'(phi_v)); the denominator vanishes exactly in
    the critical case (v = 1 with unit claim mean), where the result is
    infinity.
    """
    den = 1.0 - model.v * model.dist.pgf_prime(model.phi_v)
    if den <= 0.0:
        return math.inf
    return model.v / den


def dickson_hipp_z(model: DiscountedModel, w: float, x: int) -> float:
    """Z(x, w) evaluated through the Dickson-Hipp operator on W.

    Z(x, w) = (pgf(w) - w/v) * sum_{k >= 0} w^k W(x + k), valid for
    0 < w < phi_v. The series is truncated once the geometric bound
    through the asymptotic constant A certifies a remainder below 1e-12.
    """
    f = model.phi_v
    if not 0.0 < w < f:
        raise DomainError(f"need 0 < w < phi_v = {f}; got w = {w}")
    if x < 0:
        return float(w) ** (-x)
    a_const = asymptotic_constant(model)
    if math.isinf(a_const):
        raise DomainError(
            "Dickson-Hipp series bound unavailable in the critical case"
        )
    c = model.dist.pgf(w) - w / model.v
    r = w / f
    # remainder after K terms <= c * A * phi^(-x-1) * r^(K+1) / (1 - r)
    lead = c * a_const * f ** float(-x - 1) / (1.0 - r)
    if lead <= _DH_TARGET:
        n_terms = 8
    else:
        n_terms = max(8, int(math.ceil(math.log(_DH_TARGET / lead) / math.log(r))) + 1)
    if n_terms > 10**7:
        raise NoConvergence("transform argument too close to phi_v")
    warr = _w_array(model, x + n_terms)
    if not np.all(np.isfinite(warr)):
        raise OverflowSignal("W exceeds float range while summing the series")
    powers = w ** np.arange(n_terms + 1, dtype=float)
    return float(c * np.dot(powers, warr[x : x + n_terms + 1]))


def w_determinant_oracle(model: DiscountedModel, n: int) -> np.ndarray:
    """W(0..n) recovered from banded determinants, an independent oracle.

    W(i) equals det(I - v * Q_i) / (p_0 * (p_0 * v)^i) where Q_i is the
    i x i matrix with entries p_{r+1-c}. Intended for small n (at most
    12) and v < 1.
    """
    if not 1 <= n <= 12:
        raise DomainError("determinant oracle supports 1 <= n <= 12")
    if model.v >= 1.0:
        raise DomainError("determinant oracle requires v < 1")
    dist, v = model.dist, model.v
    q = np.zeros((n, n))
    for r in range(n):
        for c in range(min(r + 1, n - 1) + 1):
            q[r, c] = dist.p(r + 1 - c)
    m = np.eye(n) - v * q
    out = np.empty(n + 1)
    out[0] = 1.0 / dist.p0
    for i in range(1, n + 1):
        det = float(np.linalg.det(m[:i, :i]))
        out[i] = det / (dist.p0 * (dist.p0 * v) ** i)
    return out


def gf_residual(
    model: DiscountedModel, z: float, x_max: int, table: ScaleTable | None = None
) -> float:
    """|(pgf(z) - z/v) * sum_x z^x W(x) - 1| over a truncated sum.

    The generating function of W is 1 / (pgf(z) - z/v) for 0 < z <
    phi_v, so the residual measures both table accuracy and truncation.
    """
    if not 0.0 < z < model.phi_v:
        raise DomainError(f"need 0 < z < phi_v = {model.phi_v}; got z = {z}")
    if table is not None and not table.rescaled and table.x_max >= x_max:
        warr = table.w_array()[: x_max + 1]
    else:
        warr = _w_array(model, x_max)
    s = float(np.polynomial.polynomial.polyval(z, warr))
    return abs((model.dist.pgf(z) - z / model.v) * s - 1.0)


def z_gf_residual(
    model: DiscountedModel, z: float, x_max: int, table: ScaleTable | None = None
) -> float:
    """Residual of the generating-function identity for Z = Z(., 1).

    sum_x z^x Z(x) = (pgf(z) - z) / ((pgf(z) - z/v)(1 - z)) on
    0 < z < phi_v.
    """
    if not 0.0 < z < model.phi_v:
        raise DomainError(f"need 0 < z < phi_v = {model.phi_v}; got z = {z}")
    if table is not None and not table.rescaled and table.x_max >= x_max:
        zarr = table.zw_array(1.0)[: x_max + 1]
    else:
        tab = w_table(model, x_max)
        zarr = tab.zw_array(1.0)
    s = float(np.polynomial.polynomial.polyval(z, zarr))
    pg = model.dist.pgf(z)
    target = (pg - z) / ((pg - z / model.v) * (1.0 - z))
    return abs(s / target - 1.0)
