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

from .errors import DomainError, OverflowSignal
from .model import ClaimDistribution, DiscountedModel
from .lundberg import phi
from .scale import ScaleTable, w_table


@dataclass(frozen=True)
class LevyChainParams:
    """Poisson rate gamma, lattice spacing h, and the claim law."""

    gamma: float
    h: float
    dist: ClaimDistribution

    def __post_init__(self) -> None:
        if self.gamma <= 0.0:
            raise DomainError("gamma must be positive")
        if self.h <= 0.0:
            raise DomainError("h must be positive")

    @property
    def levy_mass(self) -> float:
        """Total mass of the jump measure: claims of size 1 move the
        chain nowhere, so only gamma * (1 - p_1) counts."""
        return self.gamma * (1.0 - self.dist.p(1))


def laplace_exponent(params: LevyChainParams, beta: float) -> float:
    """psi(beta) = gamma * (e^(beta h) * pgf(e^(-beta h)) - 1)."""
    if beta < 0.0:
        raise DomainError("beta must be nonnegative")
    if beta == 0.0:
        return 0.0
    z = math.exp(-beta * params.h)
    return params.gamma * (math.exp(beta * params.h) * params.dist.pgf(z) - 1.0)


def phi_q(params: LevyChainParams, q: float) -> float:
    """Right inverse of the Laplace exponent at q.

    Phi(q) = -ln(phi_v) / h with v = gamma / (gamma + q), so that
    psi(Phi(q)) = q by the Lundberg equation.
    """
    if q < 0.0:
        raise DomainError("q must be nonnegative")
    v = params.gamma / (params.gamma + q)
    # the +0.0 turns -0.0 into 0.0 at q=0 in the subcritical case
    return -math.log(phi(params.dist, v)) / params.h + 0.0


@lru_cache(maxsize=64)
def _chain_table(params: LevyChainParams, q: float, x_max: int) -> ScaleTable:
    v = params.gamma / (params.gamma + q)
    return w_table(DiscountedModel(params.dist, v), x_max)


def _table_for(params: LevyChainParams, q: float, m: int) -> ScaleTable:
    if m < 0:
        raise DomainError("lattice index must be nonnegative")
    size = 64
    while size < m + 1:
        size *= 2
    # the padding can overflow where W(m) itself is still representable
    try:
        return _chain_table(params, float(q), size)
    except OverflowSignal:
        return _chain_table(params, float(q), m)


def wq(params: LevyChainParams, q: float, m: int) -> float:
    """q-scale function of the chain at lattice point m*h.

    W^(q)(m h) = W_v(m) / (gamma * h) with v = gamma / (gamma + q).
    """
    if q < 0.0:
        raise DomainError("q must be nonnegative")
    table = _table_for(params, q, m)
    return table.w(m) / (params.gamma * params.h)


def zq(params: LevyChainParams, q: float, m: int) -> float:
    """Second q-scale function of the chain: Z_v(m) unchanged."""
    if q < 0.0:
        raise DomainError("q must be nonnegative")
    table = _table_for(params, q, m)
    return table.z(m)
