"""The stepping kernels the event-driven kernel of skipfree.mc replaced,
kept as test-only references.

Every path draws one claim per time step from the full law, and all
paths share the clock, so the discount is a scalar v^t. The concordance
tests run these and the event kernel on the same cases and compare the
two estimates.
"""

import math

import numpy as np

from skipfree.errors import DomainError, InvalidFunctional
from skipfree.mc import (
    _INT_TALLIES, _KINDS, _REFLECT_AT_0, _REFLECT_AT_B, _ClaimSampler, _estimate, _rng,
    default_horizon_cap,
)


class StepSampler(_ClaimSampler):
    """The event kernel's sampler plus inverse-CDF draws from the full law."""

    def __init__(self, dist):
        super().__init__(dist)
        if dist.kind == "table":
            cdf = np.cumsum(dist.pmf)
            cdf[-1] = 1.0
            self.cdf = cdf
        else:
            self.p0 = dist.p0
            self.p1 = dist.p1
            self.q = 1.0 - dist.p0 - dist.p1

    def draw(self, u: np.ndarray) -> np.ndarray:
        if self.dist.kind == "table":
            return np.searchsorted(self.cdf, u, side="right").astype(np.int64)
        out = np.empty(u.shape, dtype=np.int64)
        m0 = u < self.p0
        m1 = ~m0 & (u < self.p0 + self.p1)
        rest = ~(m0 | m1)
        out[m0] = 0
        out[m1] = 1
        if self.alpha == 0.0:
            out[rest] = 2
        else:
            u2 = (u[rest] - self.p0 - self.p1) / self.q
            geo = np.floor(np.log1p(-u2) / math.log(self.alpha))
            out[rest] = 2 + geo.astype(np.int64)
        return out


def _run(sampler, x0, fn, kind, n_paths, rng, cap, b):
    """The stepping kernel: every path's value and the number of paths
    still running at the cap."""
    for name in kind.needs:
        if getattr(fn, name) is None:
            raise InvalidFunctional(f"{fn.kind} needs {name}")
    upper, lower = kind.band(fn)
    at_0 = kind.policy in _REFLECT_AT_0
    at_b = kind.policy in _REFLECT_AT_B
    values = np.zeros(n_paths)
    idx = np.arange(n_paths)
    x = np.full(n_paths, x0, dtype=np.int64)
    tally = {name: np.zeros(n_paths, dtype=np.int64 if name in _INT_TALLIES else float)
             for name in kind.tallies}

    def score(fun, hit):
        if fun is not None:
            values[idx[hit]] = fun(fn, disc, x[hit], {k: a[hit] for k, a in tally.items()})

    disc = 1.0
    t = 0
    while True:
        # adding 0 where nothing happens leaves every tally bit-identical
        if at_0:
            under = np.maximum(-x, 0)
            if "inj" in tally:
                tally["inj"] += under
            if "bail" in tally:
                tally["bail"] += disc * under
            np.maximum(x, 0, out=x)
        hits = [(kind.above, x >= upper)] if upper is not None else []
        if lower is not None:
            hits.append((kind.below, x <= lower))
        if hits and (stopped := np.logical_or.reduce([hit for _, hit in hits])).any():
            for fun, hit in hits:
                score(fun, hit)
            keep = ~stopped
            idx = idx[keep]
            x = x[keep]
            tally = {k: a[keep] for k, a in tally.items()}
        if at_b:
            # a step overshoots b by at most 1
            excess = np.maximum(x - b, 0) if t == 0 else (x > b)
            if "div" in tally:
                tally["div"] += disc * excess
            if "paid" in tally:
                tally["paid"] += excess
            np.minimum(x, b, out=x)
        if not idx.size or t >= cap:
            break
        if "visits" in tally:
            tally["visits"] += disc * (x == fn.target_state)
        t += 1
        disc *= fn.v
        x = x + 1 - sampler.draw(rng.random(idx.size))
    if idx.size:
        score(kind.at_cap, slice(None))
    return values, int(idx.size)


def simulate_stepping(dist, x0, policy, fn, n_paths, seed, horizon_cap=None, stream=0):
    """simulate() on the stepping kernel."""
    cap = default_horizon_cap(fn.v) if horizon_cap is None else horizon_cap
    values, capped = _run(StepSampler(dist), x0, fn, _KINDS[fn.kind], n_paths,
                          _rng(seed, stream), cap, policy.b)
    return _estimate(values, seed, cap, capped, 0, 0)  # the stepping kernel keeps no counters


def dividend_count_samples_stepping(dist, b, v, x0, n_paths, seed, stream=0):
    """dividend_count_samples() on the stepping kernel."""
    if not 0.0 < v < 1.0:
        raise DomainError("killed dividend counts need 0 < v < 1")
    if b < 0 or x0 < 0:
        raise DomainError("barrier and start must be nonnegative")
    rng = _rng(seed, stream)
    sampler = StepSampler(dist)
    kill = rng.geometric(1.0 - v, size=n_paths)
    counts = np.full(n_paths, max(x0 - b, 0), dtype=np.int64)
    idx = np.arange(n_paths)
    x = np.full(n_paths, min(x0, b), dtype=np.int64)
    t = 0
    while idx.size:
        t += 1
        live = kill[idx] > t  # the epoch-t dividend needs t <= E - 1
        idx = idx[live]
        x = x[live]
        if not idx.size:
            break
        x = x + 1 - sampler.draw(rng.random(idx.size))
        alive = x >= 0
        idx = idx[alive]
        x = x[alive]
        paid = x > b
        counts[idx[paid]] += 1
        np.minimum(x, b, out=x)
    return counts
