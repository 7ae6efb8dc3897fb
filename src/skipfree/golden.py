"""Bundled worked examples with frozen reference values.

Three classical claim laws exercise every corner of the library: a
three-point law whose ruin probability has a closed form, a two-point
law whose dividend problem has two continuation bands, and a four-point
law with three local optima. The modified geometric family adds fully
closed-form scale functions. run_golden_checks evaluates everything
and reports one pass/fail line per item; the CLI examples command and
the acceptance tests both feed from it. A check that compares errors
with a tolerance passes only if the largest is at most the tolerance: a
NaN or inf error fails.

The independent oracles those checks hold the tables against live here
too: the modified geometric root pair behind the closed forms, the
Dickson-Hipp Z, the banded-determinant W and the generating-function
residuals. No library module computes with them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import dividends as dv
from . import passage
from .errors import DomainError, NoConvergence, OutOfTable, OverflowSignal, WrongKind
from .model import (
    _BELOW_PHI,
    _DISCOUNT,
    MODIFIED_GEOMETRIC,
    ClaimDistribution,
    DiscountedModel,
    _int_arg,
    _real_arg,
    modified_geometric,
    validate,
)
from .scale import ScaleTable, _int, _w_array, _w_array_alt, asymptotic_constant, w_table

THREE_POINT_V = 150.0 / 169.0
TWO_POINT_V = 65.0 / 72.0
FOUR_POINT_V = 0.999

THREE_POINT_W = (
    1.5, 2.035, 2.76082, 3.49551, 4.40307, 5.51337, 6.89721,
    8.62338, 10.7802, 13.4755, 16.8446, 21.0558, 26.3198,
)
TWO_POINT_W = (
    1.08333, 1.3, 1.56, 1.78172, 2.02973, 2.30568,
    2.61834, 2.97286, 3.3753, 3.83216, 4.35085,
)
FOUR_POINT_DOUBLY_H = (
    -89.91, -59.1845, -43.5339, -30.8171, -19.8565, -10.3512, -2.10264,
)

# (alpha, p0, p1, v): subcritical parameter sets for the closed-form
# cross-checks; the first one doubles as the gambler's ruin case at v=1
MODGEOM_CASES = (
    (0.0, 0.6, 0.1, 0.9),
    (0.5, 0.65, 0.1, 0.95),
    (0.4, 0.6, 0.24, 0.85),
    (0.8, 0.85, 0.05, 0.99),
    (0.25, 0.5, 0.3, 0.8),
)


def three_point_model() -> ClaimDistribution:
    return validate(["2/3", "2/9", "0", "1/9"])


def two_point_model() -> ClaimDistribution:
    return validate(["12/13", "0", "0", "1/13"])


def four_point_model() -> ClaimDistribution:
    return validate(["3/4", "1/20", "1/10", "0", "0", "0", "0", "1/10"])


def three_point_ruin(x: int) -> float:
    """Closed-form eventual ruin probability of the three-point law."""
    return 0.4 * 0.5**x - (1.0 / 15.0) * (-1.0 / 3.0) ** x


@lru_cache(maxsize=32)
def cached_table(dist: ClaimDistribution, v: float, x_max: int) -> ScaleTable:
    return w_table(DiscountedModel(dist, v), x_max)


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


def closed_form_w_modgeom(dist: ClaimDistribution, v: float, x: int) -> float:
    """W for the modified geometric family from the Lundberg root pair.

    Partial fractions of (1 - alpha z) / (k (z - phi)(z - R)) give a
    two-term geometric mix; the (1 - alpha z) numerator contributes the
    (1 - alpha root) weights.
    """
    if x < 0:
        return 0.0
    x = _int(x)  # -x - 1 in Python ints, which no numpy level wraps
    pair = root_pair(dist, v)
    f, big, k = pair.phi_v, pair.R_v, pair.k_v
    a = dist.alpha
    return (
        (1.0 - a * f) * f ** float(-x - 1)
        - (1.0 - a * big) * big ** float(-x - 1)
    ) / (k * (big - f))


def closed_form_z_modgeom(dist: ClaimDistribution, v: float, x: int) -> float:
    """Z = Z(., 1) for the modified geometric family in closed form.

    Obtained by summing the closed-form W geometrically inside
    Z(x) = 1 + (1/v - 1) * sum_{y<x} W(y).
    """
    if x < 0:
        return 1.0
    if v == 1.0:
        return 1.0
    x = _int(x)  # -x in Python ints, as in closed_form_w_modgeom
    pair = root_pair(dist, v)
    f, big, k = pair.phi_v, pair.R_v, pair.k_v
    a = dist.alpha
    c = 1.0 / v - 1.0
    s_f = (1.0 - a * f) * (f ** float(-x) - 1.0) / (1.0 - f)
    s_r = (1.0 - a * big) * (big ** float(-x) - 1.0) / (1.0 - big)
    return 1.0 + c * (s_f - s_r) / (k * (big - f))


_DH_TARGET = 1e-12


def dickson_hipp_z(model: DiscountedModel, w: float, x: int) -> float:
    """Z(x, w) evaluated through the Dickson-Hipp operator on W.

    Z(x, w) = (pgf(w) - w/v) * sum_{k >= 0} w^k W(x + k), valid for
    0 < w < phi_v. The series is truncated once the geometric bound
    through the asymptotic constant A certifies a remainder below 1e-12; w^(-x) at x < 0.
    """
    x, f = _int_arg(x, None, "level"), model.phi_v
    w = _real_arg(w, "w", _BELOW_PHI, f, "()")
    if x < 0:
        return w ** -x
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
    if not 1 <= _int_arg(n, None, "n") <= 12:
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


def _gf_sum(table: ScaleTable, z: float, x_max: int, column) -> tuple[float, float]:
    """(z, sum_{x <= x_max} z^x col(x)) for col = column(x_max), once z is a real in
    (0, phi_v), made a float, and 0 <= x_max <= table.x_max are checked."""
    z = _real_arg(z, "z", _BELOW_PHI, table.phi, "()")
    x_max = _int_arg(x_max, 0, "x_max")
    if x_max > table.x_max:
        raise OutOfTable(f"x = {x_max} beyond table range 0..{table.x_max}")
    return z, float(np.polynomial.polynomial.polyval(z, column(x_max)[: x_max + 1]))


def gf_residual(table: ScaleTable, z: float, x_max: int) -> float:
    """|(pgf(z) - z/v) * sum_x z^x W(x) - 1| over the table's W(0..x_max).

    The generating function of W is 1 / (pgf(z) - z/v) for 0 < z <
    phi_v, so the residual measures both table accuracy and truncation.
    x_max past the table is OutOfTable: the table is the one whose
    accuracy is measured, so none is built in its place.
    """
    z, s = _gf_sum(table, z, x_max, lambda m: table._w_through(0, m))
    return abs((table.model.dist.pgf(z) - z / table.v) * s - 1.0)


def z_gf_residual(table: ScaleTable, z: float, x_max: int) -> float:
    """Residual of the generating-function identity for Z = Z(., 1) over the
    table's Z(0..x_max), refused as gf_residual refuses; a rescaled table has no Z.

    sum_x z^x Z(x) = (pgf(z) - z) / ((pgf(z) - z/v)(1 - z)) on
    0 < z < phi_v.
    """
    z, s = _gf_sum(table, z, x_max, lambda m: table.zw_array(1.0))
    pg = table.model.dist.pgf(z)
    target = (pg - z) / ((pg - z / table.v) * (1.0 - z))
    return abs(s / target - 1.0)


@dataclass(frozen=True)
class GoldenCheck:
    name: str
    passed: bool
    detail: str


def _worst(errs) -> float:
    """The largest of a run of errors, numbers or arrays; a NaN anywhere is the result."""
    return float(np.max(np.hstack(list(errs))))


def _within(what: str, tol: str, errs) -> tuple[bool, str]:
    """The verdict on a run of errors: the largest is at most tol, given as
    its printed text. A NaN counts as the largest, so it fails, as inf does."""
    worst = _worst(errs)
    return worst <= float(tol), f"{what} {worst:.3e} (tol {tol})"


def _seq_close(got, want, tol: str) -> tuple[bool, str]:
    return _within("max abs err", tol, (abs(g - e) for g, e in zip(got, want)))


def _check_three_point_ruin() -> tuple[bool, str]:
    table = cached_table(three_point_model(), 1.0, 30)
    got = [passage.eventual_ruin(table, x) for x in range(11)]
    want = [three_point_ruin(x) for x in range(11)]
    return _seq_close(got, want, "1e-10")


def _check_three_point_w() -> tuple[bool, str]:
    table = cached_table(three_point_model(), THREE_POINT_V, 410)
    got = [table.w(x) for x in range(13)]
    if not np.all(np.diff(got, 2) >= -1e-12):
        return False, "dW is not nondecreasing"
    return _seq_close(got, THREE_POINT_W, "5e-05")


def _check_three_point_barrier() -> tuple[bool, str]:
    table = cached_table(three_point_model(), THREE_POINT_V, 410)
    res = dv.optimize_barrier(table, "definetti", 0.0, 0, 50)
    return res.b_star == 0, f"b_star={res.b_star} (want 0)"


def _check_two_point_w() -> tuple[bool, str]:
    table = cached_table(two_point_model(), TWO_POINT_V, 410)
    got = [table.w(x) for x in range(11)]
    return _seq_close(got, TWO_POINT_W, "5e-05")


def _check_two_point_multiband() -> tuple[bool, str]:
    table = cached_table(two_point_model(), TWO_POINT_V, 410)
    bands = dv.multiband_diagnostics(table, 50)
    return bands == [0, 2], f"local minima {bands} (want [0, 2])"


def _check_two_point_modified() -> tuple[bool, str]:
    table = cached_table(two_point_model(), TWO_POINT_V, 410)
    res = dv.optimize_barrier(table, "modified_definetti", 3.2, 0, 50)
    unique = len(res.ties) == 1
    return res.b_star == 2 and unique, (
        f"b_star={res.b_star}, ties={list(res.ties)} (want unique 2)"
    )


def _check_four_point_definetti() -> tuple[bool, str]:
    table = cached_table(four_point_model(), FOUR_POINT_V, 410)
    bands = dv.multiband_diagnostics(table, 200)
    res = dv.optimize_barrier(table, "definetti", 0.0, 0, 200)
    ok = bands == [1, 7, 38] and res.b_star == 1
    return ok, f"local maxima {bands}, global {res.b_star} (want [1, 7, 38], 1)"


def _check_four_point_modified() -> tuple[bool, str]:
    # exact rational arithmetic of the influence puts the maximum at 40;
    # the index 41 sometimes quoted for this example is one plot position
    # too high (the flat top makes the off-by-one easy to miss)
    table = cached_table(four_point_model(), FOUR_POINT_V, 410)
    res = dv.optimize_barrier(table, "modified_definetti", 1.2, 0, 200)
    return res.b_star == 40, f"b_star={res.b_star} (exact argmax 40)"


def _check_four_point_doubly() -> tuple[bool, str]:
    # same story as the modified objective: exact argmax is 24, not 25
    table = cached_table(four_point_model(), FOUR_POINT_V, 410)
    res = dv.optimize_barrier(table, "doubly_reflected", 1.2, 0, 200)
    if res.b_star != 24:
        return False, f"b_star={res.b_star} (exact argmax 24)"
    err = _worst(abs(dv.doubly_reflected_influence(table, b, 1.2) / e - 1.0)
                 for b, e in enumerate(FOUR_POINT_DOUBLY_H))
    return err <= 1e-3, f"b_star=24, max rel err of H(0..6) {err:.3e}"


def _check_modgeom_closed_forms() -> tuple[bool, str]:
    errs = []
    for alpha, p0, p1, v in MODGEOM_CASES:
        dist = modified_geometric(p0, p1, alpha)
        table = cached_table(dist, v, 110)
        for x in range(101):
            errs += [abs(closed_form_w_modgeom(dist, v, x) / table.w(x) - 1.0),
                     abs(closed_form_z_modgeom(dist, v, x) / table.z(x) - 1.0)]
    return _within("max rel err", "1e-10", errs)


def _check_gambler_ruin() -> tuple[bool, str]:
    alpha, p0, p1, _ = MODGEOM_CASES[0]
    dist = modified_geometric(p0, p1, alpha)
    p2 = dist.p(2)
    table = cached_table(dist, 1.0, 60)
    return _within("max abs err", "1e-12", (
        abs(passage.eventual_ruin(table, x) - (p2 / p0) ** (x + 1)) for x in range(41)))


def _tables(x_max: int, martingale: bool = False):
    """Tables on 0..x_max of the three worked laws and the third closed-form
    case, each at its own v; the martingale checks take the first and the last."""
    alpha, p0, p1, v3 = MODGEOM_CASES[2]
    laws = ((three_point_model(), THREE_POINT_V), (two_point_model(), TWO_POINT_V),
            (four_point_model(), FOUR_POINT_V), (modified_geometric(p0, p1, alpha), v3))
    for dist, v in (laws[0], laws[-1]) if martingale else laws:
        yield cached_table(dist, v, x_max)


def _check_gf_residuals() -> tuple[bool, str]:
    return _within("max residual", "1e-10", (
        residual(t, frac * t.phi, 400) for t in _tables(410)
        for frac in (0.25, 0.5, 0.75) for residual in (gf_residual, z_gf_residual)))


def _check_double_transform() -> tuple[bool, str]:
    dist = three_point_model()
    model = cached_table(dist, THREE_POINT_V, 10).model
    v = model.v
    z = 0.5 * model.phi_v
    target = passage.survival_double_transform(model, z)
    dp = passage.finite_time_ruin(dist, 400, 400)
    zx = z ** np.arange(401)
    vn = v ** np.arange(401)
    residuals = []
    for cut in (100, 200, 400):
        total = float(vn[: cut + 1] @ dp.survival[: cut + 1, : cut + 1] @ zx[: cut + 1])
        residuals.append(abs(total - target))
    monotone = residuals[0] > residuals[1] > residuals[2]
    return monotone and residuals[-1] < 1e-4, (
        f"residuals {['%.3e' % r for r in residuals]} (monotone, final < 1e-4)"
    )


def _check_dickson_hipp() -> tuple[bool, str]:
    errs = []
    for t in _tables(410):
        for w in (0.25 * t.phi, 0.5 * t.phi, 0.75 * t.phi):
            zw = t.zw_array(w)
            errs += [abs(dickson_hipp_z(t.model, w, x) / zw[x] - 1.0) for x in range(0, 51, 5)]
    return _within("max rel err", "1e-10", errs)


def _check_determinant_oracle() -> tuple[bool, str]:
    return _within("max rel err", "1e-9", (
        np.abs(w_determinant_oracle(t.model, 12) / t.w_array()[:13] - 1.0) for t in _tables(30)))


def _check_alternative_recursion() -> tuple[bool, str]:
    return _within("max rel err", "1e-10", (
        np.abs(t.w_array() / _w_array_alt(t.model, 410) - 1.0) for t in _tables(410)))


def _check_barrier_closed_form() -> tuple[bool, str]:
    dist = three_point_model()
    v = THREE_POINT_V
    table = cached_table(dist, v, 410)
    want = dist.p0 * v / (1.0 - dist.p(1) * v - dist.p0 * v)
    return _within("abs err", "1e-12", [abs(dv.definetti_value(table, 0, 0) - want)])


def _check_influence_forms() -> tuple[bool, str]:
    errs, k = [], 1.2
    for t in _tables(410):
        m, v = t.model.dist.mean, t.v
        for b in range(41):
            num = 1.0 - k * (t.z(b) - (1.0 - m) * t.w(b))
            errs.append(abs(dv.modified_definetti_influence(t, b, k) / (num / t.dw(b)) - 1.0))
            if v < 1.0:
                second = num / ((1.0 / v - 1.0) * t.w(b))
                errs.append(abs(dv.doubly_reflected_influence(t, b, k) / second - 1.0))
    return _within("max rel err", "1e-10", errs)


def _check_martingale_w() -> tuple[bool, str]:
    return _within("max abs err", "1e-12", (
        abs(passage.expected_stopped_w(t, x, 10) - t.w(x))
        for t in _tables(60, martingale=True) for x in (0, 3)))


def _check_martingale_z() -> tuple[bool, str]:
    return _within("max abs err", "1e-12", (
        abs(passage.expected_stopped_z(t, x, w, 10) - t.z_at(x, w))
        for t in _tables(60, martingale=True) for x in (0, 3) for w in (0.6, 1.0)))


GOLDEN_CHECKS = (
    ("three-point-ruin-closed-form", _check_three_point_ruin),
    ("three-point-w-table", _check_three_point_w),
    ("three-point-barrier-at-zero", _check_three_point_barrier),
    ("two-point-w-table", _check_two_point_w),
    ("two-point-multiband", _check_two_point_multiband),
    ("two-point-modified-k3.2", _check_two_point_modified),
    ("four-point-definetti-maxima", _check_four_point_definetti),
    ("four-point-modified-k1.2", _check_four_point_modified),
    ("four-point-doubly-k1.2", _check_four_point_doubly),
    ("modgeom-closed-forms", _check_modgeom_closed_forms),
    ("gambler-ruin", _check_gambler_ruin),
    ("gf-residuals", _check_gf_residuals),
    ("double-transform-decay", _check_double_transform),
    ("dickson-hipp-oracle", _check_dickson_hipp),
    ("determinant-oracle", _check_determinant_oracle),
    ("alternative-recursion", _check_alternative_recursion),
    ("barrier-value-closed-form", _check_barrier_closed_form),
    ("influence-two-forms", _check_influence_forms),
    ("martingale-w", _check_martingale_w),
    ("martingale-z", _check_martingale_z),
)


def run_golden_checks() -> list[GoldenCheck]:
    """Evaluate every bundled reference check."""
    results = []
    for name, fn in GOLDEN_CHECKS:
        try:
            passed, detail = fn()
        except Exception as exc:  # report, never crash the runner
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(GoldenCheck(name=name, passed=passed, detail=detail))
    return results
