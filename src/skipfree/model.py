"""Claim-size distributions and the discounted random-walk model.

The surplus process is X_n = X_0 + n - (C_1 + ... + C_n) with i.i.d.
claims C_i taking values in {0, 1, 2, ...}. Upward steps are at most
+1, so the walk is upwards skip-free. A discount factor v in (0, 1]
turns first-passage quantities into generating functions.
"""

from __future__ import annotations

import json
import math
import numbers
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
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
    if isinstance(value, (int, np.integer)) and value.__class__ is not bool:
        return Fraction(int(value))
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise NotADistribution(f"{value!r} is not a finite number")
        return Fraction(float(value))
    raise NotADistribution(f"unsupported probability type {type(value).__name__}")


def _int_arg(x, lo: int | None, name: str, low: str = "") -> int:
    """An integer argument of a public function as a Python int. A number below lo
    (None: no bound) raises DomainError(low), by default "<name> must be nonnegative"
    or "... at least <lo>"; then a bool, a float (4.0 and nan too), a str, None or any
    other x that is no int or numpy integer raises "<name> <x!r> is not an integer"."""
    if lo is not None and isinstance(x, (int, float, np.integer, np.floating)) and x < lo:
        raise DomainError(low or f"{name} must be " + (f"at least {lo}" if lo else "nonnegative"))
    if x.__class__ is not int and (x.__class__ is bool or not isinstance(x, (int, np.integer))):
        raise DomainError(f"{name} {x!r} is not an integer")
    return int(x)


def _real_arg(x, name: str, out: str, hi: float = 1.0, ends: str = "(]") -> float:
    """A real argument of a public function as the Python float it equals, in the interval
    from 0 to hi with the ends ends ("(]", "()" or "[)"). DomainError: "<name> <x!r> is not
    a real number" for a bool (np.True_ too) or any x no numbers.Real; "<name> inf is not
    finite" for +-inf where hi is inf; out.format(float, name=name, hi=hi) outside, nan too."""
    if x.__class__ is not float:
        if isinstance(x, (bool, np.bool_)) or not isinstance(x, numbers.Real):
            raise DomainError(f"{name} {x!r} is not a real number")
        try:
            x = float(x)
        except OverflowError:  # an int or a Fraction past float range
            x = math.inf if x > 0 else -math.inf
    if hi == math.inf and math.isinf(x):
        raise DomainError(f"{name} {x} is not finite")
    if not ((0.0 < x if ends[0] == "(" else 0.0 <= x) and (x < hi if ends[1] == ")" else x <= hi)):
        raise DomainError(out.format(x, name=name, hi=hi))
    return x


# the messages of the real arguments more than one function checks, and the penalty rule
_DISCOUNT = "discount factor {} outside (0, 1]"
_TRANSFORM = "transform argument {} outside (0, 1]"
_BELOW_PHI = "need 0 < {name} < phi_v = {hi}; got {name} = {}"
_PGF_ARG = "generating function argument {} outside (0, 1]"
_penalty = partial(_real_arg, name="k", out="penalty factor k must be nonnegative",
                   hi=math.inf, ends="[)")


@dataclass(frozen=True)
class ClaimDistribution:
    """Distribution of a single claim: the atoms p_0, ..., p_K in ``pmf``, then
    a geometric tail p_k = tail_mass * (1 - alpha) * alpha ** (k - len(pmf)) on
    each k >= len(pmf). A "table" has tail_mass 0 and no trailing zero in ``pmf``;
    a "modified_geometric" law has pmf (p_0, p_1), so its tail starts at claim 2
    and holds tail_mass = 1 - p_0 - p_1. Each quantity below is the atoms' term
    plus the tail's, which is exactly 0.0 for a table.

    The methods check their arguments by the public functions' rules: a claim
    size k or a length n is an integer, a generating function argument a real
    in (0, 1]. pgf, some 55 calls in each Lundberg root, sends only a z that is
    not a Python float in range to the rule.
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
        """Probability of a claim of size k, an integer; 0.0 at k < 0."""
        k = _int_arg(k, None, "k")
        if k < 0:
            return 0.0
        if k < len(self.pmf):
            return self.pmf[k]
        return self.tail_mass * (1.0 - self.alpha) * self.alpha ** (k - len(self.pmf))

    def pmf_upto(self, n: int) -> np.ndarray:
        """Dense probability vector (p_0, ..., p_n) for an integer n >= 0."""
        n = _int_arg(n, 0, "n")
        out, m = np.empty(n + 1), min(n + 1, len(self.pmf))
        out[:m] = self.pmf[:m]
        out[m:] = self.tail_mass * (1.0 - self.alpha) * self.alpha ** np.arange(n + 1 - m)
        return out

    def tail(self, k: int) -> float:
        """P(C > k) for an integer k; 1.0 at k < 0."""
        k = _int_arg(k, None, "k")
        if k < 0:
            return 1.0
        return sum(self.pmf[k + 1:]) + self.tail_mass * self.alpha ** max(k + 1 - len(self.pmf), 0)

    def pgf(self, z: float) -> float:
        """Probability generating function E[z^C] for a real z in (0, 1]."""
        if z.__class__ is not float or not 0.0 < z <= 1.0:  # only a failing z reaches the rule
            z = _real_arg(z, "z", _PGF_ARG)
        a = self.alpha
        return _horner(self.pmf, z) + self.tail_mass * (1.0 - a) * z * z / (1.0 - a * z)

    def pgf_prime(self, z: float) -> float:
        """Derivative of the generating function at a real z in (0, 1]."""
        z = _real_arg(z, "z", _PGF_ARG)
        a, den = self.alpha, 1.0 - self.alpha * z
        head = _horner([k * p for k, p in enumerate(self.pmf)][1:], z)
        return head + self.tail_mass * (1.0 - a) * z * (2.0 - a * z) / (den * den)

    def _pgf_slope(self, w: float, f: float) -> float:
        """The divided difference (pgf(w) - pgf(f)) / (w - f), pgf'(f) at w = f, for
        reals w and f in (0, 1]. Over the atoms it is sum_j w^j q_j with q_j = p_{j+1}
        + f q_{j+1}, both sums taken backward in one Horner loop; the tail adds its
        closed form. Every term is nonnegative, so nothing cancels."""
        w, f, a = _real_arg(w, "w", _PGF_ARG), _real_arg(f, "f", _PGF_ARG), self.alpha
        q = acc = 0.0
        for p in reversed(self.pmf[1:]):
            q = p + f * q
            acc = q + w * acc
        tail = (w + f - a * w * f) / ((1.0 - a * w) * (1.0 - a * f))
        return acc + self.tail_mass * (1.0 - a) * tail

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
