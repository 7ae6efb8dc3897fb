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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import dividends as dv
from . import passage
from .lundberg import root_pair
from .model import ClaimDistribution, DiscountedModel, modified_geometric, validate
from .scale import (
    ScaleTable,
    _int,
    _w_array_alt,
    dickson_hipp_z,
    gf_residual,
    w_determinant_oracle,
    w_table,
    z_gf_residual,
)

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
