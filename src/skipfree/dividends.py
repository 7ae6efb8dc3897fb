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

from .errors import Degenerate, DomainError
from .scale import ScaleTable


def _ratio(num: float, den: float) -> float:
    """num / den, reporting signed infinity when the denominator has
    underflowed to zero.

    At v = 1 the table saturates and W(b+1) - W(b) can round to exactly
    zero even though the exact difference is positive; the barrier
    values then exceed float range and are reported as inf rather than
    raising.
    """
    if den != 0.0:
        return num / den
    if num > 0.0:
        return math.inf
    if num < 0.0:
        return -math.inf
    return math.nan


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


def _check_not_degenerate(table: ScaleTable) -> None:
    if table.v == 1.0 and table.model.dist.tail(1) == 0.0:
        raise Degenerate(
            "claims never exceed 1 and v = 1: the barrier is never breached "
            "downward and dividend values diverge"
        )


def definetti_value(table: ScaleTable, b: int, x: int) -> float:
    """Expected discounted dividends under the barrier policy at b.

    W(x) / (W(b+1) - W(b)) below the barrier; the excess above b is
    paid out immediately.
    """
    if b < 0:
        raise DomainError("barrier must be nonnegative")
    _check_not_degenerate(table)
    if x > b:
        return float(x - b) + table.w_over_dw(b, b)
    return table.w_over_dw(x, b)


def injections_mgf(table: ScaleTable, b: int, x: int, w: float) -> float:
    """E_x[v^tau * w^(total injections)] for reflection at 0 until
    the surplus first reaches b: Z(x, w) / Z(b, w)."""
    if b < 0:
        raise DomainError("target level must be nonnegative")
    if x > b:
        return 1.0
    return table.z_at(x, w) / table.z_at(b, w)


def joint_dividends_deficit(
    table: ScaleTable, b: int, x: int, w: float, z: float
) -> float:
    """Joint transform E_x[v^ruin * w^(-deficit) * z^(dividends paid)]
    under the barrier policy at b."""
    if b < 0:
        raise DomainError("barrier must be nonnegative")
    if not 0.0 < z <= 1.0:
        raise DomainError(f"dividend-count argument {z} outside (0, 1]")
    if x > b:
        return z ** float(x - b) * joint_dividends_deficit(table, b, b, w, z)
    den = table.w(b + 1) - z * table.w(b)
    if den == 0.0:
        raise Degenerate("dividend barrier is never breached downward")
    num = table.z_at(b + 1, w) - z * table.z_at(b, w)
    return table.z_at(x, w) - table.w(x) * num / den


def reflected_ruin_gf(table: ScaleTable, b: int, x: int, w: float) -> float:
    """E_x[v^ruin * w^(-deficit)] under the barrier policy at b.

    Z(x, w) - (dZ(b, w) / dW(b)) * W(x); algebraically the z = 1 case
    of the joint transform, computed through the difference form.
    """
    if b < 0:
        raise DomainError("barrier must be nonnegative")
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
    if b < 0:
        raise DomainError("barrier must be nonnegative")
    return table.dw(b) / table.w(b + 1)


def dividends_law_pgf(table: ScaleTable, b: int, t: float) -> float:
    """Probability generating function of the geometric dividend count."""
    if not 0.0 < t <= 1.0:
        raise DomainError(f"pgf argument {t} outside (0, 1]")
    if t == 1.0:
        return 1.0
    rho = table.w(b) / table.w(b + 1)
    return (1.0 - rho) / (1.0 - rho * t)


def bailout_value_reflected(table: ScaleTable, b: int, x: int) -> float:
    """Expected discounted deficit payment at ruin under the barrier
    policy at b: W(x) * dZ1(b) / dW(b) - Z1(x)."""
    if b < 0:
        raise DomainError("barrier must be nonnegative")
    _check_not_degenerate(table)
    if x > b:
        x = b
    return _ratio(table.w(x) * table.dz1(b), table.dw(b)) - table.z1(x)


def modified_definetti_influence(table: ScaleTable, b: int, k: float) -> float:
    """Influence (1 - k * dZ1(b)) / dW(b) of the dividends-minus-
    k-times-deficit objective; maximize over b."""
    if k < 0.0:
        raise DomainError("penalty factor k must be nonnegative")
    _check_not_degenerate(table)
    return _ratio(1.0 - k * table.dz1(b), table.dw(b))


def modified_definetti_value(table: ScaleTable, b: int, x: int, k: float) -> float:
    """Dividends minus k times the discounted deficit, barrier at b.

    max(x - b, 0) + W(min(x, b)) * H(b) + k * Z1(min(x, b)), which the
    boundary conventions extend to x < 0 as well.
    """
    h = modified_definetti_influence(table, b, k)
    xm = min(x, b)
    return float(max(x - b, 0)) + table.w(xm) * h + k * table.z1(xm)


def doubly_reflected_values(table: ScaleTable, b: int, x: int) -> tuple[float, float]:
    """(dividends, bailouts) for reflection at 0 below and b above.

    Dividends: Z(x) / dZ(b). Bailouts: Z(x) * dZ1(b) / dZ(b) - Z1(x).
    A negative start pays -x in immediate injections, which the Z1
    boundary convention accounts for automatically.
    """
    if b < 0:
        raise DomainError("barrier must be nonnegative")
    if table.v >= 1.0:
        raise DomainError("doubly reflected values need v < 1")
    dzb = table.dz(b)
    xm = min(x, b)
    dividends = float(max(x - b, 0)) + table.z(xm) / dzb
    bailouts = table.z(xm) * table.dz1(b) / dzb - table.z1(xm)
    return dividends, bailouts


def doubly_reflected_influence(table: ScaleTable, b: int, k: float) -> float:
    """Influence (1 - k * dZ1(b)) / dZ(b) of dividends minus k times
    bailouts under double reflection; maximize over b."""
    if table.v >= 1.0:
        raise DomainError("doubly reflected influence needs v < 1")
    return (1.0 - k * table.dz1(b)) / table.dz(b)


def doubly_reflected_influence_affine(table: ScaleTable, b: int, k: float) -> float:
    """Affine-equivalent influence (1 - k * Z(b)) / W(b).

    Shares its maximizers with doubly_reflected_influence, being a
    positive affine transform of it in b.
    """
    if table.v >= 1.0:
        raise DomainError("doubly reflected influence needs v < 1")
    return (1.0 - k * table.z(b)) / table.w(b)


def doubly_reflected_value(table: ScaleTable, b: int, x: int, k: float) -> float:
    """Dividends minus k times bailouts, double reflection, barrier b."""
    h = doubly_reflected_influence(table, b, k)
    xm = min(x, b)
    return float(max(x - b, 0)) + table.z(xm) * h + k * table.z1(xm)


def _strict_local_minima(vals) -> list[int]:
    """Indices of strict local minima, plateaus reported at their left
    endpoint; the right window edge never qualifies."""
    runs: list[tuple[float, int]] = []
    for i, v in enumerate(vals):
        if not runs or runs[-1][0] != v:
            runs.append((float(v), i))
    out = []
    for r, (val, start) in enumerate(runs):
        left_ok = r == 0 or runs[r - 1][0] > val
        right_ok = r < len(runs) - 1 and runs[r + 1][0] > val
        if left_ok and right_ok:
            out.append(start)
    return out


def multiband_diagnostics(table: ScaleTable, b_max: int) -> list[int]:
    """All strict local minima of b -> dW(b) on {0..b_max}.

    More than one entry signals that a single barrier may be beaten by
    a multi-band policy.
    """
    if b_max < 0:
        raise DomainError("b_max must be nonnegative")
    vals = [table.dw(b) for b in range(b_max + 1)]
    return _strict_local_minima(vals)


# objective -> (influence(table, b, k), value(table, b, x, k)); the values are
# called by module name, so rebinding one here also reaches the scan
_SCAN = {
    "definetti": (lambda t, b, k: _ratio(1.0, t.dw(b)),
                  lambda t, b, x, k: definetti_value(t, b, x)),
    "modified_definetti": (modified_definetti_influence,
                           lambda t, b, x, k: modified_definetti_value(t, b, x, k)),
    "doubly_reflected": (doubly_reflected_influence,
                         lambda t, b, x, k: doubly_reflected_value(t, b, x, k)),
}
OBJECTIVES = tuple(_SCAN)


def optimize_barrier(
    table: ScaleTable, objective: str, k: float, x: int, b_max: int
) -> BarrierResult:
    """Scan the influence function of the chosen objective over
    {0..b_max} and price the resulting barrier at the start x.

    The attained flag is False when the best b sits within the final
    rim of the window (rim = max(5, b_max / 5)), in which case the true
    supremum may lie beyond b_max.
    """
    if objective not in OBJECTIVES:
        raise DomainError(f"unknown objective {objective!r}")
    if b_max < 0:
        raise DomainError("b_max must be nonnegative")
    influence_at, value_at = _SCAN[objective]
    influence = [influence_at(table, b, k) for b in range(b_max + 1)]
    best = max(influence)
    b_star = influence.index(best)
    ties = tuple(b for b, h in enumerate(influence) if h == best)
    rim = max(5, b_max // 5)
    # an infinite best means the table stopped resolving dW: the scan
    # cannot certify an interior maximum
    attained = b_star < b_max - rim and math.isfinite(best)
    value = value_at(table, b_star, x, k)
    return BarrierResult(
        objective=objective,
        k=k,
        b_star=b_star,
        value=value,
        attained=attained,
        lemma_case="guaranteed" if x <= b_star else "heuristic",
        ties=ties,
        trace=tuple((b, influence[b]) for b in range(b_max + 1)),
    )


def optimize_definetti(table: ScaleTable, x: int, b_max: int) -> BarrierResult:
    """Barrier search for the plain dividend objective."""
    return optimize_barrier(table, "definetti", 0.0, x, b_max)
