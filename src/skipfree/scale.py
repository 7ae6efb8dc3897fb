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
import operator

import numpy as np

from .errors import DomainError, NoConvergence, OutOfTable, OverflowSignal
from .model import _TRANSFORM, DiscountedModel, _int_arg, _real_arg

_SELF_CHECK_RTOL = 1e-10


_LD = np.longdouble  # 80-bit on x86-64 Linux
_BLOCK = 32  # levels the recursions solve at a time, in _LD
# Z(., w) columns a table keeps. A barrier sweep asks one table for 3 fixed
# w plus 1 fresh w per pass, and the Dickson-Hipp golden check for 3, so 8
# keeps every w in repeated use while fresh ones age out.
_ZW_KEPT = 8
_NO_COLUMN = np.empty(0)  # the Z and Z1 of a rescaled table


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
        e[j] = np.dot(coeffs[:min(j, len(coeffs))], e[j - 1::-1][:len(coeffs)])
    i, k = np.arange(b), np.arange(b)[:, None] + n - np.arange(n)
    return (np.tril(e[np.abs(i[:, None] - i)]),
            np.where(k <= n, np.asarray(reach)[np.minimum(k, n) - 1], _LD(0)))


def _store(out: np.ndarray, s: int, blk) -> bool:
    """Round blk into out[s:]; from the first value past float range on, fill inf, return False.

    An inf or nan entry makes the block's sum non-finite, so a finite sum
    clears the block at once; only a non-finite sum, which finite entries
    near 1e308 can also give, scans the entries."""
    vals = out[s: s + len(blk)]
    vals[...] = blk[: len(vals)]  # the cast astype(float) makes, without a copy
    if math.isfinite(np.add.reduce(vals)):
        return True
    bad = np.flatnonzero(~np.isfinite(vals))
    out[s + bad[0] if bad.size else len(out):] = math.inf
    return not bad.size


# _store flags the first value out of float range, and its sum may meet inf - inf
@np.errstate(over="ignore", invalid="ignore")
def _recur(coef: tuple, y0: float, growth: tuple[float, float], x_max: int,
           forcing=()) -> np.ndarray:
    """y(x+1) = (y(x) * num / den - sum_{k>=1} c_k y(x+1-k) - forcing(x))
    / c_0 from y(0) = y0, for W, tilted W and Z; growth = (num, den), coef
    from _coefficients. The modified geometric tail is folded in through
    a factor (1 - ratio z), which leaves a band of three. O(n (L + b)).

    The block products use np.dot: numpy has no BLAS for longdouble, and
    np.dot sums the same products in the same order as the @ operator's
    loop, so the values are the same bit for bit, at under half the cost
    per call."""
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
        y[L + s: L + s + b] = np.dot(e, g[s: s + b] + np.dot(far, y[s: s + L]))
        if not _store(out, s, y[L + s: L + s + b]):
            break
    return out


def _w_array(model: DiscountedModel, x_max: int) -> np.ndarray:
    """Forward harmonic recursion for W(0..x_max)."""
    return _recur(_coefficients(model.dist), 1.0 / model.dist.p0, (1.0, model.v), x_max)


@np.errstate(over="ignore", invalid="ignore")  # as in _recur
def _w_array_alt(model: DiscountedModel, x_max: int) -> np.ndarray:
    """Self-check recursion for W from the claim cdf, W(n+1) = W(0) + sum_{k=1}^{n+1}
    c_k W(n+1-k) with c_k = (1/v - P[C <= k]) / p_0 >= 0: no sum cancels. A block
    reaches back through a prefix sum, a band of L - 1 and a geometric sum. Its
    block products use np.dot, as _recur's do."""
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
        reach = 1 / p0 + const * total + geo * tail * powers + np.dot(far, y[s: s + h])
        blk = np.dot(e, reach)
        y[h + s: h + s + b] = blk
        total, tail = total + blk.sum(), tail * ratio ** b + np.dot(powers[::-1], blk)
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
    """Forward recursion for Z(0..x_max, w) with Z(0, w) = 1, at a w zw_array checked.

    The step from x to x+1 sums the claim overshoot exactly through the
    tail terms T(x, w), so no truncation of the claim law is involved.
    """
    return _recur(_coefficients(model.dist), 1.0, (1.0, model.v), x_max,
                  _z_tail_terms(model, w, x_max))


def _divide(num: float, den: float) -> float:
    """num / den in Python floats; a zero den gives numpy's +-inf, or its nan at 0 / 0."""
    try:
        return num / den
    except ZeroDivisionError:
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.float64(num) / den)


_MISREAD = (IndexError, TypeError, OverflowError)  # a column read of a level that is no index
_NEGATIVE_STEP = "difference index must be nonnegative"


def _int(x):
    """A numpy integer level as a Python int, any other level as it is. Level
    arithmetic in a numpy type wraps at its bounds (np.uint8(255) + 1 is 0) or
    overflows against a Python int it cannot hold."""
    if x.__class__ is int or not isinstance(x, np.integer):
        return x
    return int(x)


def _index(x) -> int:
    """A level that is not a Python int as one, for a column read: TypeError
    for a bool or for a level that is not an integer, which _refused names."""
    if x.__class__ is bool:
        raise TypeError
    return operator.index(x)


class ScaleTable:
    """Precomputed scale columns for one model on 0..x_max: W, Z = Z(., 1)
    and Z1, which w_table builds at once. A rescaled table stores the tilted
    column W(x) * phi^x instead, which keeps ratios representable where W
    would overflow; it multiplies W out on first use and has no Z family.

    One rule for every scalar read (w, w_ratio, w_over_dw, dw, z, dz, z1,
    dz1, z_at, dzw): a level below zero takes its boundary value (W = 0,
    Z = 1, Z1 = x, Z(x, w) = w^{-x}) unread, though the other level of
    w_ratio and w_over_dw is read, a difference index below zero is a
    DomainError, and any other level is read through a memoryview of
    its column as a Python float, bit for bit the column entry; a numpy
    integer level is read as the Python int it equals, so b + 1 does not
    wrap. A level the view refuses, or a bool, raises OutOfTable if past
    x_max, else DomainError for a family a rescaled table lacks (or
    zw_array's refusal of w), else DomainError as not an integer (3.5, 2.0,
    True). A division by a difference that rounded to zero gives numpy's
    inf or nan, as the column scans do. z_at and dzw read the view of the
    last Z(., w) column used without reordering the rest, for its own w or
    a Python float equal to it; any other w goes through zw_array's rule.

    The constructor takes the columns w_table builds and nothing it can
    work out: v and phi (the model's v and phi_v) and the caches of
    Z(., w) columns and of a rescaled table's multiplied-out W are set
    here. Two tables are equal only if they are the same object.
    """

    def __init__(self, model: DiscountedModel, x_max: int, rescaled: bool,
                 w: np.ndarray, z: np.ndarray = _NO_COLUMN,
                 z1: np.ndarray = _NO_COLUMN) -> None:
        self.model, self.x_max, self.rescaled = model, x_max, rescaled
        self._w, self._z, self._z1 = w, z, z1  # Z and Z1 on 0..x_max; empty on a rescaled table
        self._zw: dict[float, np.ndarray] = {}
        # (w, view of Z(., w)) of the last zw_array call; at first a key no w is or equals
        self._zw_recent: tuple = (object(), None)
        self._wcol: np.ndarray | None = None  # W multiplied out of a rescaled table's tilted column
        self.v, self.phi = v, phi = model.v, model.phi_v
        self._alpha_v = phi * (1.0 - v) / (v * (1.0 - phi)) if v < 1.0 else math.nan
        self._drift = 1.0 - model.dist.mean  # the walk's mean step
        # v = 1 and no claim exceeds 1: the walk never drops below a barrier
        self._dividends_diverge = v == 1.0 and model.dist.tail(1) == 0.0
        self._wv, self._zv, self._z1v = map(memoryview, (w, z, z1))

    def _refused(self, err: Exception | None, what: str, past: tuple,
                 named: tuple = ()) -> Exception | None:
        """The error for a read that a column view or zw_array refused with err, by the class
        docstring's order: levels past are range-checked in turn, named (default past)
        checked as integers. With err None, None if no rule refuses."""
        for x in past:
            if x > self.x_max:
                return OutOfTable(f"x = {x} beyond table range 0..{self.x_max}")
        if self.rescaled and what:
            return DomainError(f"{what} is unavailable on a rescaled table")
        if not isinstance(err, DomainError):
            for x in named or past:
                if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
                    return DomainError(f"level {x!r} is not an integer")
        return err

    def _w_column(self) -> np.ndarray:
        """W(0..x_max). A rescaled table multiplies its tilted column out once,
        level by level in Python floats, inf from the first level past float range."""
        if not self.rescaled:
            return self._w
        if self._wcol is None:
            col, phi = np.full(self.x_max + 1, math.inf), self.phi
            with contextlib.suppress(OverflowError):  # from phi ** -x
                for x, tilted in enumerate(self._w.tolist()):
                    col[x] = tilted * phi ** float(-x)
                    if col[x] == math.inf:
                        break
            self._wcol = col
        return self._wcol

    def _w_through(self, lo: int, hi: int) -> np.ndarray:
        """The W column, checked on levels lo..hi (0 <= lo <= hi <= x_max): the inf
        filling a rescaled column past float range raises, naming its first level."""
        col = self._w_column()
        if col[hi] == math.inf:
            first = lo + int(np.argmax(col[lo: hi + 1] == math.inf))
            raise OverflowSignal(f"W({first}) exceeds float range")
        return col

    def _check_steps(self, lo: int, hi: int, what: str = "") -> None:
        """0 <= lo and hi + 1 <= x_max, and the column what (a Z family) is not missing."""
        if lo < 0:
            raise DomainError(_NEGATIVE_STEP)
        if hi >= self.x_max or self.rescaled and what:
            raise self._refused(None, what, (hi + 1,))

    def _dw(self, lo: int, hi: int) -> np.ndarray:
        """dW(b) for b = lo..hi; W(b + 1) in float range puts W(b) there too."""
        self._check_steps(lo, hi)
        col = self._w_through(lo + 1, hi + 1)
        return col[lo + 1: hi + 2] - col[lo: hi + 1]

    def _dz(self, lo: int, hi: int) -> np.ndarray:
        self._check_steps(lo, hi, "Z")
        return self._z[lo + 1: hi + 2] - self._z[lo: hi + 1]

    def _dz1(self, lo: int, hi: int) -> np.ndarray:
        self._check_steps(lo, hi, "Z1")
        return self._z1[lo + 1: hi + 2] - self._z1[lo: hi + 1]

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
        try:
            if x.__class__ is not int:
                x = _index(x)
            val = self._wv[x]
        except _MISREAD as err:
            raise self._refused(err, "", (x,)) from None
        return self._w_through(x, x).item(x) if self.rescaled else val

    def w_ratio(self, x: int, y: int) -> float:
        """W(x) / W(y), computed stably on rescaled tables."""
        if y < 0:
            raise DomainError("denominator index must be nonnegative")
        if x < 0:  # W(x) = 0, but y is read, and refused, as in any other call
            self.w_ratio(y, y)
            return 0.0
        try:
            if x.__class__ is not int:
                x = _index(x)
            if y.__class__ is not int:
                y = _index(y)
            ratio = self._wv[x] / self._wv[y]
        except _MISREAD as err:
            raise self._refused(err, "", (y, x), (x, y)) from None
        if not self.rescaled:
            return ratio
        try:
            return ratio * self.phi ** float(y - x)
        except OverflowError:
            raise OverflowSignal(f"W({x})/W({y}) exceeds float range") from None

    def dw(self, b: int) -> float:
        """First difference W(b+1) - W(b)."""
        if b < 0:
            raise DomainError(_NEGATIVE_STEP)
        try:
            if b.__class__ is not int:
                b = _index(b)
            step = self._wv[b + 1] - self._wv[b]
        except _MISREAD as err:
            raise self._refused(err, "", (b + 1,), (b,)) from None
        return self._dw(b, b).item() if self.rescaled else step

    def w_over_dw(self, x: int, b: int) -> float:
        """W(x) / (W(b+1) - W(b)), stable on rescaled tables."""
        if b < 0:
            raise DomainError(_NEGATIVE_STEP)
        if x < 0:  # W(x) = 0, but b is read, and refused, as in any other call
            self.w_over_dw(b, b)
            return 0.0
        try:
            if b.__class__ is not int:
                b = _index(b)
            if x.__class__ is not int:
                x = _index(x)
            wx, wb, wb1 = self._wv[x], self._wv[b], self._wv[b + 1]
        except _MISREAD as err:
            raise self._refused(err, "", (b + 1, x), (x, b)) from None
        # dW can round to zero at v = 1 once W saturates; the ratio is then inf
        if not self.rescaled:
            return _divide(wx, wb1 - wb)
        try:
            return _divide(wx, wb1 - self.phi * wb) * self.phi ** float(b + 1 - x)
        except OverflowError:
            raise OverflowSignal(f"W({x})/dW({b}) exceeds float range") from None

    def z(self, x: int) -> float:
        if x < 0:
            return 1.0
        try:
            if x.__class__ is not int:
                x = _index(x)
            return self._zv[x]
        except _MISREAD as err:
            raise self._refused(err, "Z", (x,)) from None

    def dz(self, b: int) -> float:
        if b < 0:
            raise DomainError(_NEGATIVE_STEP)
        try:
            if b.__class__ is not int:
                b = _index(b)
            return self._zv[b + 1] - self._zv[b]
        except _MISREAD as err:
            raise self._refused(err, "Z", (b + 1,), (b,)) from None

    def z1(self, x: int) -> float:
        if x < 0:
            return float(x)
        try:
            if x.__class__ is not int:
                x = _index(x)
            return self._z1v[x]
        except _MISREAD as err:
            raise self._refused(err, "Z1", (x,)) from None

    def dz1(self, b: int) -> float:
        if b < 0:
            raise DomainError(_NEGATIVE_STEP)
        try:
            if b.__class__ is not int:
                b = _index(b)
            return self._z1v[b + 1] - self._z1v[b]
        except _MISREAD as err:
            raise self._refused(err, "Z1", (b + 1,), (b,)) from None

    def zw_array(self, w: float) -> np.ndarray:
        """Z(0..x_max, w), kept for the most recently used transform arguments."""
        if self.rescaled:
            raise self._refused(None, "Z(., w)", ())
        key = _real_arg(w, "w", _TRANSFORM)
        col = self._zw.pop(key, None)
        if col is None:
            col = self._z if key == 1.0 else z_table_w(self.model, key, self.x_max)
            if len(self._zw) >= _ZW_KEPT:
                del self._zw[next(iter(self._zw))]  # the least recently used
        self._zw[key] = col
        self._zw_recent = (key, memoryview(col))
        return col

    def z_at(self, x: int, w: float) -> float:
        if x < 0:
            return _real_arg(w, "w", _TRANSFORM) ** -float(x)  # a Python float for a numpy x too
        # the most recently used column needs no move to the end of _zw
        key, col = self._zw_recent
        try:
            if w is not key and (w.__class__ is not float or w != key):
                self.zw_array(w)
                col = self._zw_recent[1]
            if x.__class__ is not int:
                x = _index(x)
            return col[x]
        except (*_MISREAD, DomainError) as err:
            raise self._refused(err, "", (x,)) from None

    def dzw(self, b: int, w: float) -> float:
        if b < 0:
            raise DomainError(_NEGATIVE_STEP)
        key, col = self._zw_recent
        try:
            if w is not key and (w.__class__ is not float or w != key):  # as in z_at
                self.zw_array(w)
                col = self._zw_recent[1]
            if b.__class__ is not int:
                b = _index(b)
            return col[b + 1] - col[b]
        except (*_MISREAD, DomainError) as err:  # b is unconverted if zw_array refused w
            raise self._refused(err, "", (_int(b) + 1,), (b,)) from None


def w_table(model: DiscountedModel, x_max: int, rescaled: bool = False) -> ScaleTable:
    """Build the scale table on 0..x_max.

    The plain build runs two algebraically independent recursions and
    raises NoConvergence if they disagree beyond 1e-10 relative error,
    and OverflowSignal, naming the first level past float range, if
    entries leave it; it sums W into the Z and Z1 columns.
    """
    x_max = _int_arg(x_max, 0, "x_max")
    if rescaled:
        arr = _w_array_tilted(model, x_max)
        if not np.all(np.isfinite(arr)):
            raise NoConvergence("tilted W recursion produced non-finite values")
        return ScaleTable(model, x_max, True, arr)
    arr = alt = _w_array(model, x_max)
    if np.all(np.isfinite(arr)):
        alt = _w_array_alt(model, x_max)
    if not np.all(np.isfinite(alt)):
        first = int(np.argmin(np.isfinite(alt)))
        raise OverflowSignal(f"W({first}) exceeds float range on 0..{x_max}")
    rel = np.max(np.abs(arr - alt) / np.abs(arr))
    if rel > _SELF_CHECK_RTOL:
        raise NoConvergence(
            f"W self-check failed: recursions disagree by {rel:.3e} relative"
        )
    # Z(x) and Z1(x) sum over y < x; near float range the sums read inf or nan
    with np.errstate(over="ignore", invalid="ignore"):
        cum = np.concatenate([[0.0], np.cumsum(arr[:-1])])
        z = 1.0 + (1.0 / model.v - 1.0) * cum
        z1 = np.concatenate([[0.0], np.cumsum(z[:-1])]) - (1.0 - model.dist.mean) * cum
    return ScaleTable(model, x_max, False, arr, z, z1)


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
