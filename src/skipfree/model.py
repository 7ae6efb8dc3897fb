"""Claim-size distributions and the discounted random-walk model.

The surplus process is X_n = X_0 + n - (C_1 + ... + C_n) with i.i.d.
claims C_i taking values in {0, 1, 2, ...}. Upward steps are at most
+1, so the walk is upwards skip-free. A discount factor v in (0, 1]
turns first-passage quantities into generating functions.
"""

from __future__ import annotations

import json
import math
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


def _to_fraction(value: Rational) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
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
    """Distribution of a single claim, either a finite table or
    a modified geometric law.

    For kind "table", ``pmf`` holds (p_0, ..., p_K) with trailing zeros
    removed. For kind "modified_geometric", ``pmf`` holds (p_0, p_1) and
    p_k = (1 - p_0 - p_1) * (1 - alpha) * alpha ** (k - 2) for k >= 2.
    """

    kind: str
    pmf: tuple[float, ...]
    alpha: float = 0.0

    def __post_init__(self) -> None:
        # catches a positive p_0 that rounds to zero as a float
        if not self.pmf[0] > 0.0:
            raise NonPositiveP0(f"p_0 = {self.pmf[0]} must be positive")

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
    def mean(self) -> float:
        if self.kind == TABLE:
            exact = sum(k * Fraction(p) for k, p in enumerate(self.pmf))
            return float(exact)
        q = 1.0 - self.p0 - self.p1
        return self.p1 + q * (2.0 - self.alpha) / (1.0 - self.alpha)

    def p(self, k: int) -> float:
        """Probability of a claim of size k."""
        if k < 0:
            return 0.0
        if self.kind == TABLE:
            return self.pmf[k] if k < len(self.pmf) else 0.0
        if k == 0:
            return self.p0
        if k == 1:
            return self.p1
        q = 1.0 - self.p0 - self.p1
        return q * (1.0 - self.alpha) * self.alpha ** (k - 2)

    def pmf_upto(self, n: int) -> np.ndarray:
        """Dense probability vector (p_0, ..., p_n)."""
        if self.kind == TABLE:
            out = np.zeros(n + 1)
            m = min(n + 1, len(self.pmf))
            out[:m] = self.pmf[:m]
            return out
        q = 1.0 - self.p0 - self.p1
        out = np.empty(n + 1)
        out[0] = self.p0
        if n >= 1:
            out[1] = self.p1
        if n >= 2:
            out[2:] = q * (1.0 - self.alpha) * self.alpha ** np.arange(n - 1)
        return out

    def tail(self, k: int) -> float:
        """P(C > k)."""
        if k < 0:
            return 1.0
        if self.kind == TABLE:
            return float(sum(self.pmf[k + 1:]))
        if k == 0:
            return 1.0 - self.p0
        q = 1.0 - self.p0 - self.p1
        return q * self.alpha ** (k - 1)

    def pgf(self, z: float) -> float:
        """Probability generating function E[z^C] for z in (0, 1]."""
        self._check_z(z)
        if self.kind == TABLE:
            return float(np.polynomial.polynomial.polyval(z, self.pmf))
        q = 1.0 - self.p0 - self.p1
        return self.p0 + self.p1 * z + q * (1.0 - self.alpha) * z * z / (1.0 - self.alpha * z)

    def pgf_prime(self, z: float) -> float:
        """Derivative of the generating function on (0, 1]."""
        self._check_z(z)
        if self.kind == TABLE:
            coeffs = [k * p for k, p in enumerate(self.pmf)][1:]
            return float(np.polynomial.polynomial.polyval(z, coeffs))
        q = 1.0 - self.p0 - self.p1
        den = 1.0 - self.alpha * z
        return self.p1 + q * (1.0 - self.alpha) * z * (2.0 - self.alpha * z) / (den * den)

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

    Requires p0 > 0, p1 >= 0, p0 + p1 < 1 and 0 <= alpha < 1. The mass
    1 - p0 - p1 is spread over {2, 3, ...} proportionally to alpha^k.
    """
    f0, f1, fa = _to_fraction(p0), _to_fraction(p1), _to_fraction(alpha)
    if f0 <= 0:
        raise NonPositiveP0(f"p_0 = {p0} must be positive")
    if f1 < 0:
        raise NotADistribution("p_1 must be nonnegative")
    if not 0 <= fa < 1:
        raise NotADistribution(f"alpha = {alpha} outside [0, 1)")
    if f0 + f1 >= 1:
        raise NotADistribution(
            "p0 + p1 must be strictly below 1; use a plain table otherwise"
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

    The Lundberg root phi_v is resolved at construction time so that
    downstream code can rely on it without recomputing.
    """

    dist: ClaimDistribution
    v: float
    phi_v: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if not 0.0 < self.v <= 1.0:
            raise DomainError(f"discount factor {self.v} outside (0, 1]")
        if self.phi_v is None:
            from .lundberg import phi

            object.__setattr__(self, "phi_v", phi(self.dist, self.v))

    @property
    def subcritical(self) -> bool:
        return self.dist.mean < 1.0
