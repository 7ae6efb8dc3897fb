"""Dividend, capital-injection and bailout objectives with barrier search.

A barrier policy at level b skims the surplus down to b whenever it
climbs to b+1 and pays the skimmed unit out as a dividend. Reflection
at zero instead injects capital to keep the walk alive. Every objective
below is a ratio of scale-table entries, and optimizing over b reduces
to scanning an influence function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Degenerate, DomainError
from .model import _TRANSFORM, _int_arg, _penalty, _real_arg
from .scale import ScaleTable, _divide

_BARRIER, _TARGET = "barrier must be nonnegative", "target level must be nonnegative"


@dataclass(frozen=True)
class BarrierResult:
    """Outcome of a barrier scan.

    b_star is the smallest maximizer of the influence function over
    {0..b_max}; attained is False when the running optimum sits in the
    final stretch of the window, suggesting the true supremum lies
    beyond it. lemma_case records whether the queried starting point
    satisfies x <= b_star, the case in which barrier optimality is
    backed by the verification argument rather than heuristics.
    """

    objective: str
    k: float
    b_star: int
    value: float
    attained: bool
    lemma_case: str
    ties: tuple[int, ...]
    trace: tuple[tuple[int, float], ...]

    def to_jsonable(self) -> dict:
        return {
            "objective": self.objective,
            "k": self.k,
            "b_star": self.b_star,
            "value": self.value,
            "attained": self.attained,
            "lemma_case": self.lemma_case,
            "ties": list(self.ties),
            "trace": [{"b": b, "H": h} for b, h in self.trace],
        }


def _check_dividends(table: ScaleTable) -> None:
    """Refuse a table on which dividend values diverge."""
    if table._dividends_diverge:
        raise Degenerate(
            "claims never exceed 1 and v = 1: the barrier is never breached "
            "downward and dividend values diverge"
        )


def definetti_value(table: ScaleTable, b: int, x: int) -> float:
    """Expected discounted dividends under the barrier policy at b.

    W(x) / (W(b+1) - W(b)) below the barrier, so 0 at x < 0; the excess
    above b is paid out immediately.
    """
    if x.__class__ is not int or b.__class__ is not int or b < 0 or table._dividends_diverge:
        b, x = _int_arg(b, 0, "level", _BARRIER), _int_arg(x, None, "level")
        _check_dividends(table)
    if x > b:
        return float(x - b) + table.w_over_dw(b, b)
    return table.w_over_dw(x, b)


def injections_mgf(table: ScaleTable, b: int, x: int, w: float) -> float:
    """E_x[v^tau * w^(total injections)] for reflection at 0 until
    the surplus first reaches b: Z(x, w) / Z(b, w), 1 at x > b and
    w^(-x) / Z(b, w) at x < 0, where -x is injected at once."""
    if x.__class__ is not int or b.__class__ is not int or b < 0:
        b, x = _int_arg(b, 0, "level", _TARGET), _int_arg(x, None, "level")
    if x > b:
        if w.__class__ is not float or not 0.0 < w <= 1.0:  # refused though no Z(., w) is read
            _real_arg(w, "w", _TRANSFORM)
        return 1.0
    return table.z_at(x, w) / table.z_at(b, w)


def joint_dividends_deficit(
    table: ScaleTable, b: int, x: int, w: float, z: float
) -> float:
    """Joint transform E_x[v^ruin * w^(-deficit) * z^(dividends paid)]
    under the barrier policy at b; at x > b, z^(x - b) times its value at b,
    and w^(-x) at x < 0."""
    if x.__class__ is not int or b.__class__ is not int or b < 0:
        b, x = _int_arg(b, 0, "level", _BARRIER), _int_arg(x, None, "level")
    if z.__class__ is not float or not 0.0 < z <= 1.0:
        z = _real_arg(z, "z", "dividend-count argument {} outside (0, 1]")
    if x > b:
        return z ** float(x - b) * joint_dividends_deficit(table, b, b, w, z)
    b1 = b + 1
    den = table.w(b1) - z * table.w(b)
    if den == 0.0:
        raise Degenerate("dividend barrier is never breached downward")
    num = table.z_at(b1, w) - z * table.z_at(b, w)
    return table.z_at(x, w) - table.w(x) * num / den


def reflected_ruin_gf(table: ScaleTable, b: int, x: int, w: float) -> float:
    """E_x[v^ruin * w^(-deficit)] under the barrier policy at b.

    Z(x, w) - (dZ(b, w) / dW(b)) * W(x); algebraically the z = 1 case
    of the joint transform, computed through the difference form. At
    x > b its value at b, and w^(-x) at x < 0.
    """
    if x.__class__ is not int or b.__class__ is not int or b < 0:
        b, x = _int_arg(b, 0, "level", _BARRIER), _int_arg(x, None, "level")
    if x > b:
        return reflected_ruin_gf(table, b, b, w)
    dwb = table.dw(b)
    if dwb == 0.0:
        raise Degenerate("dividend barrier is never breached downward")
    return table.z_at(x, w) - table.dzw(b, w) / dwb * table.w(x)


def dividends_law_at_barrier(table: ScaleTable, b: int) -> float:
    """Success parameter of the geometric law of total dividends.

    Started at the barrier b and killed at an independent geometric
    horizon with survival v, the cumulative dividend count is geometric
    on {0, 1, ...} with success parameter dW(b) / W(b+1).
    """
    b = _int_arg(b, 0, "level", _BARRIER)
    return table.dw(b) / table.w(b + 1)


def dividends_law_pgf(table: ScaleTable, b: int, t: float) -> float:
    """Probability generating function of the geometric dividend count."""
    b, t = _int_arg(b, 0, "level", _BARRIER), _real_arg(t, "t", "pgf argument {} outside (0, 1]")
    if t == 1.0:
        return 1.0
    rho = table.w(b) / table.w(b + 1)
    return (1.0 - rho) / (1.0 - rho * t)


def bailout_value_reflected(table: ScaleTable, b: int, x: int) -> float:
    """Expected discounted deficit payment at ruin under the barrier
    policy at b: W(x) * dZ1(b) / dW(b) - Z1(x); at x > b its value at b,
    and -x at x < 0."""
    b, x = _int_arg(b, 0, "level", _BARRIER), _int_arg(x, None, "level")
    _check_dividends(table)
    x = min(x, b)
    return _divide(table.w(x) * table.dz1(b), table.dw(b)) - table.z1(x)  # dW(b) = 0 at v = 1


def _check_discounted(table: ScaleTable) -> None:
    if table.v >= 1.0:
        raise DomainError("doubly reflected influence needs v < 1")


def _influence(objective: str, table: ScaleTable, k: float, lo: int, hi: int) -> np.ndarray:
    """H(b) of an objective on b = lo..hi. Where dW rounds to 0 as W saturates at
    v = 1, though the exact difference is positive, H is +-inf (nan at 0 / 0)."""
    reads, formula, check, _ = _SCAN[objective]
    if check:
        check(table)
    with np.errstate(divide="ignore", invalid="ignore"):
        return formula(k, *[getattr(table, "_" + name)(lo, hi) for name in reads])


def _penalized(k, dz1, d):
    """(1 - k * dZ1(b)) / d(b), the H of both penalized objectives, on floats or arrays."""
    return (1.0 - k * dz1) / d


# A scalar influence checks k, then its table, then b, in a branch that a Python
# int b, a Python float k in [0, inf) and a table that pass skip, then applies
# _penalized, its _SCAN formula, to the Python floats k and the increments _SCAN
# names, read in that order (so zero division raises rather than warns); where a
# difference is 0 it takes the scan's value at b, numpy's inf or nan.

def modified_definetti_influence(table: ScaleTable, b: int, k: float) -> float:
    """Influence (1 - k * dZ1(b)) / dW(b) of the dividends-minus-
    k-times-deficit objective, for a finite real k >= 0; maximize over b."""
    if (b.__class__ is not int or k.__class__ is not float or not 0.0 <= k < math.inf
            or table._dividends_diverge):
        k = _penalty(k)
        _check_dividends(table)
        b = _int_arg(b, None, "level")
    try:
        return _penalized(k, table.dz1(b), table.dw(b))
    except ZeroDivisionError:
        return float(_influence("modified_definetti", table, k, b, b)[0])


def modified_definetti_value(table: ScaleTable, b: int, x: int, k: float) -> float:
    """Dividends minus k times the discounted deficit, barrier at b.

    max(x - b, 0) + W(min(x, b)) * H(b) + k * Z1(min(x, b)), which the
    boundary conventions extend to x < 0 as well: W(x) = 0 and Z1(x) = x.
    """
    if x.__class__ is not int or b.__class__ is not int or k.__class__ is not float:
        b, x, k = _int_arg(b, None, "level"), _int_arg(x, None, "level"), _penalty(k)
    h = modified_definetti_influence(table, b, k)
    xm = b if b < x else x  # min(x, b), and below max(x - b, 0), without the calls
    return (0.0 if x < b else float(x - b)) + table.w(xm) * h + k * table.z1(xm)


def doubly_reflected_values(table: ScaleTable, b: int, x: int) -> tuple[float, float]:
    """(dividends, bailouts) for reflection at 0 below and b above.

    Dividends: Z(x) / dZ(b). Bailouts: Z(x) * dZ1(b) / dZ(b) - Z1(x).
    A negative start pays -x in immediate injections, which the Z1
    boundary convention accounts for automatically.
    """
    if x.__class__ is not int or b.__class__ is not int or b < 0:
        b, x = _int_arg(b, 0, "level", _BARRIER), _int_arg(x, None, "level")
    if table.v >= 1.0:
        raise DomainError("doubly reflected values need v < 1")
    dzb = table.dz(b)
    xm = b if b < x else x  # min(x, b), and below max(x - b, 0), without the calls
    dividends = (0.0 if x < b else float(x - b)) + table.z(xm) / dzb
    bailouts = table.z(xm) * table.dz1(b) / dzb - table.z1(xm)
    return dividends, bailouts


def doubly_reflected_influence(table: ScaleTable, b: int, k: float) -> float:
    """Influence (1 - k * dZ1(b)) / dZ(b) of dividends minus k times
    bailouts under double reflection, for a finite real k >= 0; maximize over b."""
    if (b.__class__ is not int or k.__class__ is not float or not 0.0 <= k < math.inf
            or table.v >= 1.0):
        k = _penalty(k)
        _check_discounted(table)
        b = _int_arg(b, None, "level")
    try:
        return _penalized(k, table.dz1(b), table.dz(b))
    except ZeroDivisionError:
        return float(_influence("doubly_reflected", table, k, b, b)[0])


def doubly_reflected_influence_affine(table: ScaleTable, b: int, k: float) -> float:
    """Affine-equivalent influence (1 - k * Z(b)) / W(b), for a finite real k >= 0.

    Shares its maximizers with doubly_reflected_influence, being a
    positive affine transform of it in b.
    """
    k = _penalty(k)
    _check_discounted(table)
    b = _int_arg(b, 0, "level", _BARRIER)
    return (1.0 - k * table.z(b)) / table.w(b)


def doubly_reflected_value(table: ScaleTable, b: int, x: int, k: float) -> float:
    """Dividends minus k >= 0 (a finite real) times bailouts, double reflection,
    barrier b; the conventions of doubly_reflected_values at x > b and x < 0."""
    if x.__class__ is not int or b.__class__ is not int or k.__class__ is not float:
        b, x, k = _int_arg(b, None, "level"), _int_arg(x, None, "level"), _penalty(k)
    h = doubly_reflected_influence(table, b, k)
    xm = b if b < x else x  # as in modified_definetti_value
    return (0.0 if x < b else float(x - b)) + table.z(xm) * h + k * table.z1(xm)


def _strict_local_minima(vals) -> list[int]:
    """Indices of strict local minima, plateaus reported at their left
    endpoint; the right window edge never qualifies."""
    vals = np.asarray(vals, dtype=float)
    starts = np.flatnonzero(np.r_[True, vals[1:] != vals[:-1]])
    runs = vals[starts]
    left = np.r_[True, runs[:-1] > runs[1:]]
    right = np.r_[runs[1:] > runs[:-1], False]
    return starts[left & right].tolist()


def multiband_diagnostics(table: ScaleTable, b_max: int) -> list[int]:
    """All strict local minima of b -> dW(b) on {0..b_max}.

    More than one entry signals that a single barrier may be beaten by
    a multi-band policy.
    """
    return _strict_local_minima(table._dw(0, _int_arg(b_max, 0, "b_max")))


# objective -> (the increments H(b) reads, in order, among dw, dz and dz1 of
# W, Z and Z1; H(b), one expression in k and those increments, which the scan
# evaluates on arrays and the scalar influences on floats; the check of the
# table both make once k is checked, or None; value(table, b, x, k)). The
# values are called by module name, so rebinding one here also reaches the scan
_SCAN = {
    "definetti": (("dw",), lambda k, dw: 1.0 / dw, None,
                  lambda t, b, x, k: definetti_value(t, b, x)),
    "modified_definetti": (("dz1", "dw"), _penalized, _check_dividends,
                           lambda t, b, x, k: modified_definetti_value(t, b, x, k)),
    "doubly_reflected": (("dz1", "dz"), _penalized, _check_discounted,
                         lambda t, b, x, k: doubly_reflected_value(t, b, x, k)),
}
OBJECTIVES = tuple(_SCAN)


def optimize_barrier(
    table: ScaleTable, objective: str, k: float, x: int, b_max: int
) -> BarrierResult:
    """Scan the influence function of the chosen objective over
    {0..b_max} and price the resulting barrier at the start x. k is a
    finite real >= 0 for every objective, though definetti reads none.

    The attained flag is False when the best b sits within the final
    rim of the window (rim = max(5, b_max / 5)), in which case the true
    supremum may lie beyond b_max.
    """
    if objective not in OBJECTIVES:
        raise DomainError(f"unknown objective {objective!r}")
    x, b_max, k = _int_arg(x, None, "level"), _int_arg(b_max, 0, "b_max"), _penalty(k)
    h = _influence(objective, table, k, 0, b_max)
    # max() semantics: a nan is passed over unless it stands at b = 0
    best = h[0] if math.isnan(h[0]) else np.nanmax(h)
    ties = np.flatnonzero(h == best)
    b_star = int(ties[0]) if ties.size else 0
    rim = max(5, b_max // 5)
    # an infinite best means the table stopped resolving dW: the scan
    # cannot certify an interior maximum
    attained = b_star < b_max - rim and math.isfinite(best)
    value = _SCAN[objective][3](table, b_star, x, k)
    return BarrierResult(
        objective=objective,
        k=k,
        b_star=b_star,
        value=value,
        attained=attained,
        lemma_case="guaranteed" if x <= b_star else "heuristic",
        ties=tuple(ties.tolist()),
        trace=tuple(enumerate(h.tolist())),
    )
