"""Claim-size distributions and the discounted random-walk model.

The surplus process is X_n = X_0 + n - (C_1 + ... + C_n) with i.i.d.
claims C_i taking values in {0, 1, 2, ...}. Upward steps are at most
+1, so the walk is upwards skip-free. A discount factor v in (0, 1]
turns first-passage quantities into generating functions.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Union

import numpy as np

from .errors import DomainError, NonPositiveP0, NotADistribution, WrongKind

Rational = Union[int, float, str, Fraction]

TABLE = "table"
MODIFIED_GEOMETRIC = "modified_geometric"

_SUM_TOL = 1e-12
# the fields each model type reads from its JSON object
_FIELDS = {TABLE: ("pmf",), MODIFIED_GEOMETRIC: ("p0", "p1", "alpha")}
_EXPONENT = re.compile(r"[eE]([-+]?\d[\d_]*)\s*$")


def _cap_exponent(text: str) -> str:
    """Cap a decimal exponent, which Fraction expands into an exact power
    of ten of any size. A nonzero mantissa of n characters lies within
    10^(+-n), so past n + 400 the value is beyond 1e(+-400) before and
    after the cap: its sign, whether it is 0, its side of 1 and its float
    value, all that the probability checks read, stay the same."""
    match = _EXPONENT.search(text)
    cap = len(text) + 400
    if match is None or abs(int(match[1])) <= cap:
        return text
    return text[: match.start(1)] + str(cap if int(match[1]) > 0 else -cap)


def _horner(coeffs, z: float) -> float:
    """sum_k coeffs[k] z^k on floats, bit for bit numpy's polyval."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = c + acc * z
    return acc


def _to_fraction(value: Rational) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        try:
            return Fraction(_cap_exponent(value))
        except (ValueError, ZeroDivisionError) as exc:
            raise NotADistribution(f"cannot parse probability {value!r}") from exc
    if isinstance(value, (int, np.integer)):
        return Fraction(int(value))
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise NotADistribution(f"{value!r} is not a finite number")
        return Fraction(float(value))
    raise NotADistribution(f"unsupported probability type {type(value).__name__}")


@dataclass(frozen=True)
class ClaimDistribution:
    """Distribution of a single claim: the atoms p_0, ..., p_K in ``pmf``, then
    a geometric tail p_k = tail_mass * (1 - alpha) * alpha ** (k - len(pmf)) on
    each k >= len(pmf). A "table" has tail_mass 0 and no trailing zero in ``pmf``;
    a "modified_geometric" law has pmf (p_0, p_1), so its tail starts at claim 2
    and holds tail_mass = 1 - p_0 - p_1. Each quantity below is the atoms' term
    plus the tail's, which is exactly 0.0 for a table.
    """

    kind: str
    pmf: tuple[float, ...]
    alpha: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in (TABLE, MODIFIED_GEOMETRIC):
            raise WrongKind(f"unknown distribution type {self.kind!r}")
        if not self.pmf:
            raise NotADistribution("empty probability table")
        # validate checks these exactly; a table built directly is checked here
        if not all(math.isfinite(p) and p <= 1.0 for p in self.pmf):
            raise NotADistribution(f"probabilities {self.pmf} not all finite and at most 1")
        # catches a positive p_0 that rounds to zero as a float
        if not self.pmf[0] > 0.0:
            raise NonPositiveP0(f"p_0 = {self.pmf[0]} must be positive")
        if self.kind == TABLE:
            if any(p < 0.0 for p in self.pmf[1:]):
                raise NotADistribution("negative probability entry")
            if abs(math.fsum(self.pmf) - 1.0) > _SUM_TOL:
                raise NotADistribution(f"probabilities sum to {math.fsum(self.pmf)}, not 1")
            return
        # modified_geometric checks these exactly; a law built directly is checked here
        if len(self.pmf) != 2:
            raise NotADistribution("a modified geometric pmf holds (p_0, p_1)")
        if not self.p1 >= 0.0:
            raise NotADistribution("p_1 must be nonnegative")
        if not 0.0 <= self.alpha < 1.0:
            raise NotADistribution(f"alpha = {self.alpha} outside [0, 1)")
        if not self.p0 + self.p1 <= 1.0:
            raise NotADistribution(f"p0 + p1 = {self.p0 + self.p1} exceeds 1")

    @property
    def p0(self) -> float:
        return self.pmf[0]

    @property
    def p1(self) -> float:
        return self.pmf[1] if len(self.pmf) > 1 else 0.0

    @property
    def max_claim(self) -> int | None:
        """Largest possible claim, or None when the support is unbounded."""
        if self.kind == TABLE:
            return len(self.pmf) - 1
        return None

    @cached_property
    def tail_mass(self) -> float:
        """P(C >= len(pmf)), the mass of the geometric tail: 0.0 for a table,
        1 - p_0 - p_1 for the modified geometric law, whose tail starts at
        claim 2, right after the atoms (p_0, p_1). A rest of at most 1e-12, as
        0.7 + 0.3 leaves, is rounding: the tail is then empty."""
        rest = 0.0 if self.kind == TABLE else 1.0 - self.p0 - self.p1
        return rest if rest > _SUM_TOL else 0.0

    @cached_property
    def mean(self) -> float:
        exact = sum(k * Fraction(p) for k, p in enumerate(self.pmf))
        return float(exact) + self.tail_mass * (2.0 - self.alpha) / (1.0 - self.alpha)

    def p(self, k: int) -> float:
        """Probability of a claim of size k."""
        if k < 0:
            return 0.0
        if k < len(self.pmf):
            return self.pmf[k]
        return self.tail_mass * (1.0 - self.alpha) * self.alpha ** (k - len(self.pmf))

    def pmf_upto(self, n: int) -> np.ndarray:
        """Dense probability vector (p_0, ..., p_n)."""
        out, m = np.empty(n + 1), min(n + 1, len(self.pmf))
        out[:m] = self.pmf[:m]
        out[m:] = self.tail_mass * (1.0 - self.alpha) * self.alpha ** np.arange(n + 1 - m)
        return out

    def tail(self, k: int) -> float:
        """P(C > k)."""
        if k < 0:
            return 1.0
        return sum(self.pmf[k + 1:]) + self.tail_mass * self.alpha ** max(k + 1 - len(self.pmf), 0)

    def pgf(self, z: float) -> float:
        """Probability generating function E[z^C] for z in (0, 1]."""
        self._check_z(z)
        a = self.alpha
        return _horner(self.pmf, z) + self.tail_mass * (1.0 - a) * z * z / (1.0 - a * z)

    def pgf_prime(self, z: float) -> float:
        """Derivative of the generating function on (0, 1]."""
        self._check_z(z)
        a, den = self.alpha, 1.0 - self.alpha * z
        head = _horner([k * p for k, p in enumerate(self.pmf)][1:], z)
        return head + self.tail_mass * (1.0 - a) * z * (2.0 - a * z) / (den * den)

    @staticmethod
    def _check_z(z: float) -> None:
        if not 0.0 < z <= 1.0:
            raise DomainError(f"generating function argument {z} outside (0, 1]")

    def to_jsonable(self) -> dict:
        if self.kind == TABLE:
            return {"type": TABLE, "pmf": list(self.pmf)}
        return {
            "type": MODIFIED_GEOMETRIC,
            "p0": self.p0,
            "p1": self.p1,
            "alpha": self.alpha,
        }


def validate(values: Iterable[Rational]) -> ClaimDistribution:
    """Build a table distribution from probabilities indexed by claim size.

    Accepts ints, floats, Fractions, and rational strings such as "2/3".
    The entries must be finite, in [0, 1] and sum to 1 within 1e-12; the
    sum is then normalized away exactly. Raises NonPositiveP0 when p_0 <= 0
    (or rounds to 0.0) and NotADistribution for other defects.
    """
    try:
        values = list(values)
    except TypeError:
        raise NotADistribution("probabilities must be a list") from None
    fracs = [_to_fraction(x) for x in values]
    if not fracs:
        raise NotADistribution("empty probability table")
    if any(f > 1 for f in fracs):
        raise NotADistribution("probability entry above 1")
    if fracs[0] <= 0:
        raise NonPositiveP0(f"p_0 = {values[0]} must be positive")
    if any(f < 0 for f in fracs[1:]):
        raise NotADistribution("negative probability entry")
    total = sum(fracs)
    if abs(float(total) - 1.0) > _SUM_TOL:
        raise NotADistribution(f"probabilities sum to {float(total)}, not 1")
    fracs = [f / total for f in fracs]
    while len(fracs) > 1 and fracs[-1] == 0:
        fracs.pop()
    return ClaimDistribution(kind=TABLE, pmf=tuple(float(f) for f in fracs))


def modified_geometric(p0: Rational, p1: Rational, alpha: Rational) -> ClaimDistribution:
    """Claim law with atoms p0, p1 and a geometric tail with ratio alpha.

    Requires p0 > 0, p1 >= 0, p0 + p1 < 1 - 1e-12 and 0 <= alpha < 1. The mass
    1 - p0 - p1 is spread over {2, 3, ...} proportionally to alpha^k.
    """
    f0, f1, fa = _to_fraction(p0), _to_fraction(p1), _to_fraction(alpha)
    if f0 <= 0:
        raise NonPositiveP0(f"p_0 = {p0} must be positive")
    if f1 < 0:
        raise NotADistribution("p_1 must be nonnegative")
    if not 0 <= fa < 1:
        raise NotADistribution(f"alpha = {alpha} outside [0, 1)")
    # a tail within the tolerance validate allows a table's sum is rounding,
    # not mass: 0.7 + 0.3 as floats leaves 5.55e-17
    if 1 - (f0 + f1) <= _SUM_TOL:
        raise NotADistribution(
            f"p0 + p1 must be below 1 by more than {_SUM_TOL}; use a plain table otherwise"
        )
    return ClaimDistribution(
        kind=MODIFIED_GEOMETRIC,
        pmf=(float(f0), float(f1)),
        alpha=float(fa),
    )


def from_jsonable(obj: dict | str) -> ClaimDistribution:
    """Inverse of ClaimDistribution.to_jsonable; also accepts a JSON string."""
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except ValueError as exc:
            raise NotADistribution(f"invalid model JSON: {exc}") from None
    if not isinstance(obj, dict) or "type" not in obj:
        raise NotADistribution("model JSON must be an object with a 'type' field")
    kind = obj["type"]
    if not isinstance(kind, str) or kind not in _FIELDS:
        raise WrongKind(f"unknown distribution type {kind!r}")
    missing = [name for name in _FIELDS[kind] if name not in obj]
    if missing:
        raise NotADistribution(f"{kind} model needs {', '.join(missing)}")
    args = [obj[name] for name in _FIELDS[kind]]
    return validate(*args) if kind == TABLE else modified_geometric(*args)


@dataclass(frozen=True)
class DiscountedModel:
    """A claim distribution paired with a discount factor v in (0, 1].

    The Lundberg root phi_v is a function of dist and v, so it is not a
    constructor argument: it is solved once at construction, and
    downstream code reads it without recomputing. v is kept as the float it equals.
    """

    dist: ClaimDistribution
    v: float
    phi_v: float = field(init=False)

    def __post_init__(self) -> None:
        from .lundberg import phi

        object.__setattr__(self, "phi_v", phi(self.dist, self.v))
        object.__setattr__(self, "v", float(self.v))

    @property
    def subcritical(self) -> bool:
        return self.dist.mean < 1.0
