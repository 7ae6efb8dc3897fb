"""Continuous-time embedding of the walk as a skip-free Levy chain.

Subordinating the walk by a Poisson process of rate gamma and scaling
space by h gives a continuous-time chain Y living on the lattice h*Z
whose upward jumps equal h. Its Laplace exponent, inverse exponent and
scale functions are reparametrizations of the discrete objects with
v = gamma / (gamma + q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import OverflowSignal
from .model import ClaimDistribution, DiscountedModel, _int_arg, _real_arg
from .lundberg import phi
from .scale import ScaleTable, w_table

_RATE = "q must be nonnegative"


@dataclass(frozen=True)
class LevyChainParams:
    """Poisson rate gamma, lattice spacing h (finite positive floats), and the claim law."""

    gamma: float
    h: float
    dist: ClaimDistribution

    def __post_init__(self) -> None:
        for name in ("gamma", "h"):
            object.__setattr__(self, name, _real_arg(
                getattr(self, name), name, f"{name} must be positive", math.inf, "()"))

    @property
    def levy_mass(self) -> float:
        """Total mass of the jump measure: claims of size 1 move the
        chain nowhere, so only gamma * (1 - p_1) counts."""
        return self.gamma * (1.0 - self.dist.p(1))


def laplace_exponent(params: LevyChainParams, beta: float) -> float:
    """psi(beta) = gamma * (e^(beta h) * pgf(e^(-beta h)) - 1), or OverflowSignal past floats."""
    beta = _real_arg(beta, "beta", "beta must be nonnegative", math.inf, "[)")
    if beta == 0.0:
        return 0.0
    try:  # e^(beta h) first: past its overflow e^(-beta h) may be 0, outside the pgf's domain
        psi = params.gamma * (math.exp(beta * params.h)
                              * params.dist.pgf(math.exp(-beta * params.h)) - 1.0)
    except OverflowError:
        psi = math.inf
    if psi == math.inf:
        raise OverflowSignal(f"psi(beta) exceeds float range at beta = {beta}")
    return psi


def phi_q(params: LevyChainParams, q: float) -> float:
    """Right inverse of the Laplace exponent at q.

    Phi(q) = -ln(phi_v) / h with v = gamma / (gamma + q), so that
    psi(Phi(q)) = q by the Lundberg equation.
    """
    q = _real_arg(q, "q", _RATE, math.inf, "[)")
    v = params.gamma / (params.gamma + q)
    # the +0.0 turns -0.0 into 0.0 at q=0 in the subcritical case
    return -math.log(phi(params.dist, v)) / params.h + 0.0


# a wq/zq grid of 24 rates at three lattice sizes needs 72 tables and two such
# grids 144; a cache of 64 would evict each one before its next use
@lru_cache(maxsize=256)
def _chain_table(params: LevyChainParams, q: float, x_max: int) -> ScaleTable | None:
    """The chain's table on 0..x_max, or None where W overflows; the
    cache keeps a failed build too, so it is not tried again."""
    v = params.gamma / (params.gamma + q)
    try:
        return w_table(DiscountedModel(params.dist, v), x_max)
    except OverflowSignal:
        return None


def _table_for(params: LevyChainParams, q: float, m: int) -> ScaleTable:
    q = _real_arg(q, "q", _RATE, math.inf, "[)")
    m = _int_arg(m, 0, "level", "lattice index must be nonnegative")
    size = max(64, 1 << m.bit_length())  # the least power of 2 from 64 above m
    # the padding can overflow where W(m) itself is still representable
    for x_max in (size, m):
        table = _chain_table(params, q, x_max)
        if table is not None:
            return table
    raise OverflowSignal(f"W exceeds float range on 0..{m}")


def wq(params: LevyChainParams, q: float, m: int) -> float:
    """q-scale function of the chain at lattice point m*h.

    W^(q)(m h) = W_v(m) / (gamma * h) with v = gamma / (gamma + q).
    """
    return _table_for(params, q, m).w(m) / (params.gamma * params.h)


def zq(params: LevyChainParams, q: float, m: int) -> float:
    """Second q-scale function of the chain: Z_v(m) unchanged."""
    return _table_for(params, q, m).z(m)
