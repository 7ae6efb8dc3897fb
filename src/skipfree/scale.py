"""Scale-function tables for the upwards skip-free walk.

W is the fundamental (harmonic) scale sequence: W(0) = 1/p_0, W(x) = 0
for x < 0, and v * sum_k p_k W(x + 1 - k) = W(x). Z(., w) is the
companion sequence started from Z(0, w) = 1 with boundary w^{-x} below
zero; Z1 integrates Z against the drift. All first-passage, ruin and
dividend quantities in this package reduce to ratios and differences of
these tables.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NoConvergence, OutOfTable, OverflowSignal
from .model import DiscountedModel

_SELF_CHECK_RTOL = 1e-10
_DH_TARGET = 1e-12


_LD = np.longdouble  # 80-bit on x86-64 Linux
_BLOCK = 32  # levels the recursions solve at a time, in _LD
# Z(., w) columns a table keeps. A barrier sweep asks one table for 3 fixed
# w plus 1 fresh w per pass, and the Dickson-Hipp golden check for 3, so 8
# keeps every w in repeated use while fresh ones age out.
_ZW_KEPT = 8


def _coefficients(dist, tilt: float = 1.0) -> tuple:
    """(c_0, (c_1..c_L), tail, ratio) for c_k = p_k * tilt^k over the atoms; a
    geometric tail adds c_k = tail * ratio^(k-2) for k >= 2 (tail is 0 for a table)."""
    c = np.asarray(dist.pmf) * tilt ** np.arange(len(dist.pmf), dtype=float)
    return (float(c[0]), c[1:], dist.tail_mass * (1.0 - dist.alpha) * tilt * tilt,
            dist.alpha * tilt)


def _block_maps(coeffs, reach, b: int) -> tuple:
    """(E, F) on levels s..s+b-1: y = E @ r solves y(j) = r(j) + sum_{k=1}^{j} coeffs[k-1]
    y(j-k), and (F @ y(s-L..s-1))[i] = sum_{k>i} reach[k-1] y(s+i-k) reaches back."""
    e, n = np.eye(1, b, dtype=_LD)[0], len(reach)
    for j in range(1, b):
        e[j] = coeffs[:min(j, len(coeffs))] @ e[j - 1::-1][:len(coeffs)]
    i, k = np.arange(b), np.arange(b)[:, None] + n - np.arange(n)
    return (np.tril(e[np.abs(i[:, None] - i)]),
            np.where(k <= n, np.asarray(reach)[np.minimum(k, n) - 1], _LD(0)))


def _store(out: np.ndarray, s: int, blk) -> bool:
    """Round blk into out[s:]; from the first value past float range on, fill inf, return False."""
    out[s: s + len(blk)] = vals = blk[: len(out) - s].astype(float)
    bad = np.flatnonzero(~np.isfinite(vals))
    out[s + bad[0] if bad.size else len(out):] = math.inf
    return not bad.size


@np.errstate(over="ignore")  # _store flags the first value out of float range
def _recur(coef: tuple, y0: float, growth: tuple[float, float], x_max: int,
           forcing=()) -> np.ndarray:
    """y(x+1) = (y(x) * num / den - sum_{k>=1} c_k y(x+1-k) - forcing(x))
    / c_0 from y(0) = y0, for W, tilted W and Z; growth = (num, den), coef
    from _coefficients. The modified geometric tail is folded in through
    a factor (1 - ratio z), which leaves a band of three. O(n (L + b))."""
    (c0, band, tail, ratio), b = coef, min(_BLOCK, x_max + 1)
    d = np.zeros(max(len(band), 1) + 1, dtype=_LD)  # sum_k d_k y(m-k) = g(m)
    d[0], d[1: len(band) + 1] = c0, band
    d[1] -= _LD(growth[0]) / _LD(growth[1])
    g = np.zeros(x_max + 1 + b, dtype=_LD)
    g[0] = _LD(c0) * _LD(y0)
    g[1: len(forcing) + 1] = -np.asarray(forcing, dtype=_LD)
    if tail:
        d = np.append(d, _LD(tail)) - _LD(ratio) * np.insert(d, 0, 0)
        g[1:] -= _LD(ratio) * g[:-1]
    g, L, coeffs = g / _LD(c0), len(d) - 1, -d[1:] / d[0]
    e, far = _block_maps(coeffs, coeffs, b)
    y, out = np.zeros(L + x_max + 1 + b, dtype=_LD), np.full(x_max + 1, math.inf)
    for s in range(0, x_max + 1, b):  # y(m) at y[L + m]
        y[L + s: L + s + b] = e @ (g[s: s + b] + far @ y[s: s + L])
        if not _store(out, s, y[L + s: L + s + b]):
            break
    return out


def _w_array(model: DiscountedModel, x_max: int) -> np.ndarray:
    """Forward harmonic recursion for W(0..x_max)."""
    return _recur(_coefficients(model.dist), 1.0 / model.dist.p0, (1.0, model.v), x_max)


@np.errstate(over="ignore")
def _w_array_alt(model: DiscountedModel, x_max: int) -> np.ndarray:
    """Self-check recursion for W from the claim cdf, W(n+1) = W(0) + sum_{k=1}^{n+1}
    c_k W(n+1-k) with c_k = (1/v - P[C <= k]) / p_0 >= 0: no sum cancels. A block
    reaches back through a prefix sum, a band of L - 1 and a geometric sum."""
    v, dist, b = _LD(model.v), model.dist, min(_BLOCK, x_max + 1)
    p0, k = _LD(dist.p0), np.arange(1, b)
    # P[C <= k] is the atoms' cdf plus the tail's tail_mass * (1 - ratio^(k-1)),
    # so past the atoms c_k = const + geo * ratio^(k-1)
    c = (1 / v - np.cumsum(np.asarray(dist.pmf, dtype=_LD))) / p0
    geo, ratio = _LD(dist.tail_mass) / p0, _LD(dist.alpha)
    head, const = c[1:-1], c[-1] - geo
    ck = c[np.minimum(k, len(c) - 1)] + geo * (ratio ** (k - 1).astype(_LD) - 1)
    h, (e, far) = len(head), _block_maps(ck, head - const, b)
    powers = ratio ** np.arange(b).astype(_LD)
    y, out = np.zeros(h + x_max + 1 + b, dtype=_LD), np.full(x_max + 1, math.inf)
    total = tail = _LD(0)  # sum_{n<s} W(n), sum_{n<s} ratio^(s-1-n) W(n)
    for s in range(0, x_max + 1, b):  # W(n) at y[h + n]
        blk = e @ (1 / p0 + const * total + geo * tail * powers + far @ y[s: s + h])
        y[h + s: h + s + b] = blk
        total, tail = total + blk.sum(), tail * ratio ** b + powers[::-1] @ blk
        if not _store(out, s, blk):
            break
    return out


def _w_array_tilted(model: DiscountedModel, x_max: int) -> np.ndarray:
    """Recursion for W(x) * phi^x, which stays bounded by A / phi."""
    f, dist = model.phi_v, model.dist
    return _recur(_coefficients(dist, f), 1.0 / dist.p0, (f / model.v, 1.0), x_max)


def _z_tail_terms(model: DiscountedModel, w: float, x_max: int) -> np.ndarray:
    """T(x, w) = sum_{j >= x+2} p_j w^{j-x-1} for x = 0..x_max-1: a backward
    Horner sum over the atoms, H(x) = p_{x+2} + H(x+1) w and T = w H, plus the
    geometric tail's closed form."""
    dist = model.dist
    p, a = dist.pmf, dist.alpha
    h = np.zeros(max(x_max, len(p)))
    for x in range(len(p) - 3, -1, -1):
        h[x] = p[x + 2] + h[x + 1] * w
    tail = dist.tail_mass * (1.0 - a) * a ** np.arange(x_max, dtype=float) * w / (1.0 - a * w)
    return w * h[:x_max] + tail


def z_table_w(model: DiscountedModel, w: float, x_max: int) -> np.ndarray:
    """Forward recursion for Z(0..x_max, w) with Z(0, w) = 1.

    The step from x to x+1 sums the claim overshoot exactly through the
    tail terms T(x, w), so no truncation of the claim law is involved.
    """
    if not 0.0 < w <= 1.0:
        raise DomainError(f"transform argument {w} outside (0, 1]")
    if x_max < 0:
        raise DomainError("x_max must be nonnegative")
    return _recur(_coefficients(model.dist), 1.0, (1.0, model.v), x_max,
                  _z_tail_terms(model, w, x_max))


def _beyond(x: int, x_max: int) -> OutOfTable:
    return OutOfTable(f"x = {x} beyond table range 0..{x_max}")


def _not_integers(*levels) -> DomainError:
    """The error of a column read that ndarray.item refused: it names the first
    level that is not an integer, a float or a bool say."""
    bad = next(x for x in levels if isinstance(x, bool) or not isinstance(x, (int, np.integer)))
    return DomainError(f"level {bad!r} is not an integer")


def _step(col: np.ndarray, b: int) -> float:
    """col[b + 1] - col[b] in Python floats, b already range-checked."""
    try:
        return col.item(b + 1) - col.item(b)
    except TypeError:
        raise _not_integers(b) from None


def _divide(num: float, den: float) -> float:
    """num / den in Python floats; a zero den gives numpy's +-inf, or its nan at 0 / 0."""
    try:
        return num / den
    except ZeroDivisionError:
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.float64(num) / den)


@dataclass
class ScaleTable:
    """Precomputed scale columns for one model on 0..x_max.

    Accessors read the columns, apply the boundary conventions (W = 0,
    Z(., w) = w^{-x}, Z1 = x below zero) and raise OutOfTable past x_max.
    With rescaled=True the tilted column W(x) * phi^x is built instead,
    which keeps ratios representable when W itself would overflow; the Z
    family is unavailable in that mode.

    Scalar reads: w, w_ratio, w_over_dw, dw, z, dz, z1, dz1, z_at and
    dzw check the range once, read their entries with ndarray.item and do
    their arithmetic in Python floats, which round as numpy's float64
    scalars do. A level that is not an integer (3.5, 2.0, True) makes the
    read itself fail, and only then is it reported as DomainError; a level
    below zero takes its boundary value and is not read. A
    division by a difference that rounded to zero falls back to numpy,
    so it gives numpy's inf or nan as the column scans do. z_at and dzw
    read the most recently used Z(., w) column without reordering the
    kept columns.
    """

    model: DiscountedModel
    x_max: int
    rescaled: bool
    _w: np.ndarray
    _z: np.ndarray | None = None
    _z1: np.ndarray | None = None
    _zw: dict[float, np.ndarray] = field(default_factory=dict)
    # (w, Z(., w)) of the last zw_array call; a nan w equals no argument
    _zw_recent: tuple = (math.nan, None)
    _wcol: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not self.rescaled:
            self._wcol = self._w

    @property
    def v(self) -> float:
        return self.model.v

    @property
    def phi(self) -> float:
        return self.model.phi_v

    def _check_steps(self, lo: int, hi: int) -> None:
        """Differences b = lo..hi lie in the table: 0 <= lo and hi + 1 <= x_max."""
        if lo < 0:
            raise DomainError("difference index must be nonnegative")
        if hi >= self.x_max:
            raise _beyond(hi + 1, self.x_max)

    def _no_rescale(self, what: str) -> None:
        if self.rescaled:
            raise DomainError(f"{what} is unavailable on a rescaled table")

    def _w_column(self) -> np.ndarray:
        """W(0..x_max). A rescaled table multiplies its tilted column out once,
        level by level in Python floats, inf from the first level past float range."""
        if self._wcol is None:
            col, phi = np.full(self.x_max + 1, math.inf), self.phi
            with contextlib.suppress(OverflowError):  # from phi ** -x
                for x, tilted in enumerate(self._w.tolist()):
                    col[x] = tilted * phi ** float(-x)
                    if col[x] == math.inf:
                        break
            self._wcol = col
        return self._wcol

    def _increments(self, column, lo: int, hi: int) -> np.ndarray:
        """column()[b + 1] - column()[b] for b = lo..hi; column is read after the range checks."""
        self._check_steps(lo, hi)
        vals = column()
        return vals[lo + 1: hi + 2] - vals[lo: hi + 1]

    def _w_through(self, lo: int, hi: int) -> np.ndarray:
        """The W column, checked on levels lo..hi (0 <= lo <= hi <= x_max): the inf
        filling a rescaled column past float range raises, naming its first level."""
        col = self._w_column()
        if col[hi] == math.inf:
            first = lo + int(np.argmax(col[lo: hi + 1] == math.inf))
            raise OverflowSignal(f"W({first}) exceeds float range")
        return col

    def _dw(self, lo: int, hi: int) -> np.ndarray:
        """dW(b) for b = lo..hi; W(b + 1) in float range puts W(b) there too."""
        return self._increments(lambda: self._w_through(lo + 1, hi + 1), lo, hi)

    def _dz(self, lo: int, hi: int) -> np.ndarray:
        return self._increments(self._z_values, lo, hi)

    def _dz1(self, lo: int, hi: int) -> np.ndarray:
        return self._increments(self._z1_values, lo, hi)

    def w_array(self) -> np.ndarray:
        """Plain W(0..x_max); raises OverflowSignal if unrepresentable."""
        col = self._w_column()
        if col[-1] == math.inf:
            raise OverflowSignal("W exceeds float range; work with ratios instead")
        return col

    def tilted_w_array(self) -> np.ndarray:
        """W(x) * phi^x, the column actually stored when rescaled."""
        if self.rescaled:
            return self._w
        return self._w * self.phi ** np.arange(self.x_max + 1, dtype=float)

    def w(self, x: int) -> float:
        if x < 0:
            return 0.0
        if x > self.x_max:
            raise _beyond(x, self.x_max)
        col = self._wcol if self._wcol is not None else self._w_column()
        try:
            val = col.item(x)
        except TypeError:
            raise _not_integers(x) from None
        if val == math.inf:
            raise OverflowSignal(f"W({x}) exceeds float range")
        return val

    def w_ratio(self, x: int, y: int) -> float:
        """W(x) / W(y), computed stably on rescaled tables."""
        if y < 0:
            raise DomainError("denominator index must be nonnegative")
        if y > self.x_max:
            raise _beyond(y, self.x_max)
        if x < 0:
            return 0.0
        if x > self.x_max:
            raise _beyond(x, self.x_max)
        try:
            ratio = self._w.item(x) / self._w.item(y)
        except TypeError:
            raise _not_integers(x, y) from None
        if not self.rescaled:
            return ratio
        try:
            return ratio * self.phi ** float(y - x)
        except OverflowError:
            raise OverflowSignal(f"W({x})/W({y}) exceeds float range") from None

    def dw(self, b: int) -> float:
        """First difference W(b+1) - W(b)."""
        self._check_steps(b, b)
        step = _step(self._wcol if self._wcol is not None else self._w_column(), b)
        if not step < math.inf:  # inf or nan: W(b + 1) is past float range
            raise OverflowSignal(f"W({b + 1}) exceeds float range")
        return step

    def w_over_dw(self, x: int, b: int) -> float:
        """W(x) / (W(b+1) - W(b)), stable on rescaled tables."""
        self._check_steps(b, b)
        if x < 0:
            return 0.0
        if x > self.x_max:
            raise _beyond(x, self.x_max)
        try:
            wx, wb, wb1 = self._w.item(x), self._w.item(b), self._w.item(b + 1)
        except TypeError:
            raise _not_integers(x, b) from None
        # dW can round to zero at v = 1 once W saturates; the ratio is then inf
        if not self.rescaled:
            return _divide(wx, wb1 - wb)
        try:
            return _divide(wx, wb1 - self.phi * wb) * self.phi ** float(b + 1 - x)
        except OverflowError:
            raise OverflowSignal(f"W({x})/dW({b}) exceeds float range") from None

    def cum_w(self, x: int) -> float:
        """Sum of W(y) for 0 <= y < x."""
        self._no_rescale("cumulative W")
        if x <= 0:
            return 0.0
        if x - 1 > self.x_max:
            raise _beyond(x - 1, self.x_max)
        return float(np.sum(self._w[:x]))

    def _z_values(self) -> np.ndarray:
        if self._z is None:
            self._no_rescale("Z")
            # Z(x) reads sum_{y<x} W(y), so W(x_max) is never summed
            cum = np.concatenate([[0.0], np.cumsum(self._w[:-1])])
            self._z = 1.0 + (1.0 / self.v - 1.0) * cum
        return self._z

    def z(self, x: int) -> float:
        if x < 0:
            return 1.0
        if x > self.x_max:
            raise _beyond(x, self.x_max)
        col = self._z if self._z is not None else self._z_values()
        try:
            return col.item(x)
        except TypeError:
            raise _not_integers(x) from None

    def dz(self, b: int) -> float:
        self._check_steps(b, b)
        return _step(self._z if self._z is not None else self._z_values(), b)

    def _z1_values(self) -> np.ndarray:
        if self._z1 is None:
            self._no_rescale("Z1")
            zc = np.concatenate([[0.0], np.cumsum(self._z_values()[:-1])])
            wc = np.concatenate([[0.0], np.cumsum(self._w[:-1])])
            self._z1 = zc - (1.0 - self.model.dist.mean) * wc
        return self._z1

    def z1(self, x: int) -> float:
        if x < 0:
            return float(x)
        if x > self.x_max:
            raise _beyond(x, self.x_max)
        col = self._z1 if self._z1 is not None else self._z1_values()
        try:
            return col.item(x)
        except TypeError:
            raise _not_integers(x) from None

    def dz1(self, b: int) -> float:
        self._check_steps(b, b)
        return _step(self._z1 if self._z1 is not None else self._z1_values(), b)

    def zw_array(self, w: float) -> np.ndarray:
        """Z(0..x_max, w), kept for the most recently used transform arguments."""
        self._no_rescale("Z(., w)")
        key = float(w)
        col = self._zw.pop(key, None)
        if col is None:
            col = (self._z_values() if key == 1.0
                   else z_table_w(self.model, key, self.x_max))
            if len(self._zw) >= _ZW_KEPT:
                del self._zw[next(iter(self._zw))]  # the least recently used
        self._zw[key] = col
        self._zw_recent = (key, col)
        return col

    def z_at(self, x: int, w: float) -> float:
        if x < 0:
            if not 0.0 < w <= 1.0:
                raise DomainError(f"transform argument {w} outside (0, 1]")
            return float(w) ** (-x)
        if x > self.x_max:
            raise _beyond(x, self.x_max)
        # the most recently used column needs no move to the end of _zw
        key, col = self._zw_recent
        if key != w:
            col = self.zw_array(w)
        try:
            return col.item(x)
        except TypeError:
            raise _not_integers(x) from None

    def dzw(self, b: int, w: float) -> float:
        self._check_steps(b, b)
        key, col = self._zw_recent
        return _step(col if key == w else self.zw_array(w), b)


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
