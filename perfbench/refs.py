"""Reference values computed outside the timed region.

ExactScale runs the W and Z(., w) recursions in exact Fraction
arithmetic on the very floats the library sees (claim probabilities,
v, w), so a mismatch measures the library's arithmetic and code, not
input rounding. scan_reference re-implements the barrier scan with
numpy over the stored W column, and the passage and dividend formulas
below are written out from their definitions.
"""

from __future__ import annotations

import math
from fractions import Fraction as F

import numpy as np

REL_TOL = 1e-9


def close(got: float, want: float, tol: float = REL_TOL, bound: float = 0.0) -> bool:
    """|got - want| <= tol * max(1, |want|) + bound.

    An infinite result matches a finite reference only when the bound
    says doubles cannot resolve the value at all (bound >= |want|), as
    when W(b+1) - W(b) rounds to zero at v = 1.
    """
    if math.isinf(want) or math.isinf(got):
        return got == want or (math.isfinite(want) and bound >= abs(want)
                               and math.copysign(1.0, got) == math.copysign(1.0, want))
    return abs(got - want) <= tol * max(1.0, abs(want)) + bound


def rel_err(got: float, want: float) -> float:
    if got == want:
        return 0.0
    if not (math.isfinite(got) and math.isfinite(want)):
        return math.inf
    return abs(got - want) / max(1.0, abs(want))


class ExactScale:
    """W, Z, Z1 and Z(., w) on 0..n in exact rational arithmetic."""

    def __init__(self, dist, v: float, n: int):
        self.n = n
        self.v = F(v)
        self.kind = dist.kind
        if dist.kind == "table":
            self.p = [F(x) for x in dist.pmf]
        else:
            self.p0, self.p1, self.alpha = F(dist.p0), F(dist.p1), F(dist.alpha)
            self.q = 1 - self.p0 - self.p1
            self.p = [self.p0, self.p1] + [
                self.q * (1 - self.alpha) * self.alpha**j for j in range(n + 1)]
        self.p += [F(0)] * (n + 2 - len(self.p))
        self.mean = F(dist.mean)
        self.w = self._recursion(None)
        cum = [F(0)]
        for x in range(n + 1):
            cum.append(cum[-1] + self.w[x])
        self.z = [1 + (1 / self.v - 1) * cum[x] for x in range(n + 1)]
        zc = [F(0)]
        for x in range(n + 1):
            zc.append(zc[-1] + self.z[x])
        self.z1 = [zc[x] - (1 - self.mean) * cum[x] for x in range(n + 1)]
        self._zw: dict[float, list[F]] = {1.0: self.z}

    def _tail(self, x: int, w: F) -> F:
        """sum_{j >= x+2} p_j w^(j-x-1), exact."""
        if self.kind == "table":
            return sum((self.p[j] * w ** (j - x - 1)
                        for j in range(x + 2, len(self.p)) if self.p[j]), F(0))
        return self.q * (1 - self.alpha) * self.alpha**x * w / (1 - self.alpha * w)

    def _recursion(self, w: F | None) -> list[F]:
        p, v = self.p, self.v
        out = [1 / p[0] if w is None else F(1)]
        for x in range(self.n):
            s = sum((p[k] * out[x + 1 - k] for k in range(1, x + 2) if p[k]), F(0))
            tail = 0 if w is None else self._tail(x, w)
            out.append((out[x] / v - s - tail) / p[0])
        return out

    def zw(self, w: float) -> list[F]:
        key = float(w)
        if key not in self._zw:
            self._zw[key] = self._recursion(F(key))
        return self._zw[key]

    def drop(self, w: float) -> None:
        self._zw.pop(float(w), None)


# --- passage and dividend formulas, written from their definitions ---
#
# Each formula is a function of a few table entries. Differences such as
# W(b+1) - W(b) near saturation amplify the rounding of those entries, so
# a reference comes with a bound: the first-order effect of a relative
# error INPUT_REL_ERR in every entry it reads (including phi_v).

INPUT_REL_ERR = 1e-13
_H = F(1, 10**30)  # small enough for the first-order term to dominate


def _bounded(formula, entries: dict, keys: str) -> tuple:
    """(value, absolute error bound) of formula(entries), exactly; keys
    names the entries the formula reads."""
    base = formula(entries)
    bound = F(0)
    for key in keys.split():
        moved = formula(dict(entries, **{key: entries[key] * (1 + _H)}))
        bound += abs(moved - base) / _H
    return float(base), float(bound) * INPUT_REL_ERR


def passage_batch(ref: ExactScale, x: int, b: int, w: float, phi_v: float) -> dict:
    """name -> (value, bound) for the passage functionals at (x, b, w)."""
    W, Z, Z1, Zw = ref.w, ref.z, ref.z1, ref.zw(w)
    e = {"Wx": W[x], "Wb": W[b], "Zwx": Zw[x], "Zwb": Zw[b], "Z1x": Z1[x], "Z1b": Z1[b],
         "Zx": Z[x], "phi": F(phi_v)}
    if x >= b:
        out = {"two_sided_up": (1.0, 0.0), "deficit_gf": (0.0, 0.0),
               "expected_deficit": (0.0, 0.0)}
    else:
        out = {"two_sided_up": _bounded(lambda e: e["Wx"] / e["Wb"], e, "Wx Wb"),
               "deficit_gf": _bounded(lambda e: e["Zwx"] - e["Wx"] / e["Wb"] * e["Zwb"], e,
                                      "Zwx Wx Wb Zwb"),
               "expected_deficit": _bounded(lambda e: e["Z1x"] - e["Wx"] / e["Wb"] * e["Z1b"],
                                            e, "Z1x Wx Wb Z1b")}
    v = ref.v
    if v < 1:
        out["discounted_ruin"] = _bounded(
            lambda e: e["Zx"] - e["phi"] * (1 - v) / (v * (1 - e["phi"])) * e["Wx"], e,
            "Zx phi Wx")
    else:
        out["eventual_ruin"] = (1.0, 0.0) if ref.mean >= 1 else \
            _bounded(lambda e: 1 - (1 - ref.mean) * e["Wx"], e, "Wx")
    return out


def value_call(ref: ExactScale, fn: str, b: int, x: int, w: float, z: float, k: float):
    """(value, bound), or a tuple of them for doubly_reflected_values."""
    W, Z, Z1, Zw = ref.w, ref.z, ref.z1, ref.zw(w)
    k, z = F(k), F(z)
    xm = min(x, b)
    over = max(x - b, 0)
    e = {"Wx": W[xm], "Wb": W[b], "Wb1": W[b + 1], "Zx": Z[xm], "Zb": Z[b], "Zb1": Z[b + 1],
         "Z1x": Z1[xm], "Z1b": Z1[b], "Z1b1": Z1[b + 1],
         "Zwx": Zw[xm], "Zwb": Zw[b], "Zwb1": Zw[b + 1]}
    if fn == "definetti_value":
        return _bounded(lambda e: over + e["Wx"] / (e["Wb1"] - e["Wb"]), e, "Wx Wb Wb1")
    if fn == "modified_definetti_value":
        return _bounded(lambda e: over + e["Wx"] * (1 - k * (e["Z1b1"] - e["Z1b"]))
                        / (e["Wb1"] - e["Wb"]) + k * e["Z1x"], e, "Wx Wb Wb1 Z1x Z1b Z1b1")
    if fn == "doubly_reflected_values":
        return (_bounded(lambda e: over + e["Zx"] / (e["Zb1"] - e["Zb"]), e, "Zx Zb Zb1"),
                _bounded(lambda e: e["Zx"] * (e["Z1b1"] - e["Z1b"]) / (e["Zb1"] - e["Zb"])
                         - e["Z1x"], e, "Zx Zb Zb1 Z1x Z1b Z1b1"))
    if fn == "joint_dividends_deficit":
        return _bounded(lambda e: z**over * (e["Zwx"] - e["Wx"] * (e["Zwb1"] - z * e["Zwb"])
                                             / (e["Wb1"] - z * e["Wb"])), e,
                        "Zwx Wx Zwb Zwb1 Wb Wb1")
    if fn == "reflected_ruin_gf":
        return _bounded(lambda e: e["Zwx"] - (e["Zwb1"] - e["Zwb"]) / (e["Wb1"] - e["Wb"])
                        * e["Wx"], e, "Zwx Wx Zwb Zwb1 Wb Wb1")
    if fn == "injections_mgf":
        if x > b:
            return 1.0, 0.0
        return _bounded(lambda e: e["Zwx"] / e["Zwb"], e, "Zwx Zwb")
    raise ValueError(fn)


# --- barrier scan over stored columns ---

def z_columns(w_arr: np.ndarray, v: float, mean: float):
    """Z and Z1 from a W column by their cumulative-sum definitions."""
    n = len(w_arr)
    cum = np.concatenate([[0.0], np.cumsum(w_arr)])
    z = 1.0 + (1.0 / v - 1.0) * cum[:n]
    zc = np.concatenate([[0.0], np.cumsum(z)])
    return z, zc[:n] - (1.0 - mean) * cum[:n]


def _safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        out = num / den
    zero = den == 0.0
    out[zero] = np.where(num[zero] > 0, np.inf, np.where(num[zero] < 0, -np.inf, np.nan))
    return out


def scan_reference(cols, objective: str, k: float, x: int, b_max: int) -> dict:
    """Influence over 0..b_max, its maximum, and the barrier value."""
    w, z, z1 = cols
    dw = np.diff(w)[: b_max + 1]
    dz = np.diff(z)[: b_max + 1]
    dz1 = np.diff(z1)[: b_max + 1]
    if objective == "definetti":
        infl = _safe_div(np.ones_like(dw), dw)
    elif objective == "modified_definetti":
        infl = _safe_div(1.0 - k * dz1, dw)
    else:
        infl = (1.0 - k * dz1) / dz
    best = float(np.max(infl))

    def value(b: int) -> float:
        xm, over = min(x, b), float(max(x - b, 0))
        if objective == "definetti":
            return over + float(_safe_div(np.array([w[xm]]), np.array([dw[b]]))[0])
        if objective == "modified_definetti":
            return over + float(w[xm] * infl[b] + k * z1[xm])
        return over + float(z[xm] * infl[b] + k * z1[xm])

    return {"influence": infl, "best": best, "value": value}


def _condition(cols, objective: str, k: float, b: int) -> float:
    """Relative condition number of the influence at b: how much the
    rounding of the table entries it differences is amplified."""
    w, z, z1 = cols
    a, c = (z[b + 1], z[b]) if objective == "doubly_reflected" else (w[b + 1], w[b])
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = (abs(a) + abs(c)) / abs(a - c)
        if objective != "definetti":
            cond += k * (abs(z1[b + 1]) + abs(z1[b])) / abs(1.0 - k * (z1[b + 1] - z1[b]))
    return float(cond)


def check_scan(result, ref: dict, cols, objective: str, k: float, b_max: int) -> str | None:
    """None when a BarrierResult agrees with the reference scan.

    b_star must be a maximiser of the reference influence up to what the
    conditioning of both influence values allows; near saturation, where
    W(b+1) - W(b) is rounding noise, any such b is accepted.
    """
    infl, best = ref["influence"], ref["best"]
    b = result.b_star
    if len(result.trace) != b_max + 1:
        return f"trace has {len(result.trace)} entries, want {b_max + 1}"
    if not 0 <= b <= b_max:
        return f"b_star={b} outside 0..{b_max}"
    cond_b = _condition(cols, objective, k, b)
    tol = REL_TOL + INPUT_REL_ERR * max(cond_b, _condition(cols, objective, k,
                                                           int(np.argmax(infl))))
    got = float(infl[b])
    if got != best and not (tol >= 1.0 if math.isinf(best) or math.isinf(got)
                            else got >= best - tol * abs(best)):
        return f"b_star={b} is not a maximiser (H={got!r}, max {best!r})"
    want = ref["value"](b)
    if not close(result.value, want, bound=INPUT_REL_ERR * cond_b * abs(want)):
        return f"value {result.value!r} != reference {want!r} at b={b}"
    rim = max(5, b_max // 5)
    if result.attained != (b < b_max - rim and math.isfinite(best)):
        return f"attained={result.attained} inconsistent with b_star={b}"
    return None
