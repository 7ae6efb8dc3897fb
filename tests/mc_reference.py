"""The stepping kernel the event-driven kernel of skipfree.mc replaced,
kept as a test-only reference.

Every path draws one claim per time step, and all paths share the clock,
so the discount is a scalar v^t. The concordance tests run it and the
event kernel on the same cases and compare the two estimates.
"""

import numpy as np

from skipfree.errors import InvalidFunctional
from skipfree.mc import (
    _INT_TALLIES, _KINDS, _REFLECT_AT_0, _REFLECT_AT_B, _ClaimSampler, _estimate, _rng,
    default_horizon_cap,
)


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
    values, capped = _run(_ClaimSampler(dist), x0, fn, _KINDS[fn.kind], n_paths,
                          _rng(seed, stream), cap, policy.b)
    return _estimate(values, seed, cap, capped)
