"""Monte Carlo oracle for every analytic functional in the package.

Claims are drawn by inverse CDF from a counter-based Philox stream, so
runs are reproducible and independent across the stream index.

One event-driven kernel serves the four policies: the free walk, killed
on leaving a band; reflection at an upper barrier b (dividends); at 0
(capital injections); and at both. The walk is upwards skip-free, so
between claims it climbs by exactly 1 per step, and every barrier event
falls at a claim epoch or at a known time along a climb. Each iteration
draws, for every live path, its run of zero claims (geometric, infinite
for the one-atom law) and the claim that ends it (from the law
conditioned on >= 1), and resolves the climb in closed form: absorption
at the upper level, the dividends paid at b as a geometric sum of v^t,
and the visits the resolvent counts, all truncated at the horizon cap.
The claim epoch then goes through the events of a step: (1) reflection
at 0, tallying the injection, (2) absorption at or above the upper or at
or below the lower level, scoring the functional there, and (3)
reflection at b, paying the excess. The start goes through the same
events at t = 0 with discount 1, so a start outside the band is
reflected (the excess injected or paid at once) or absorbed before any
draw. Paths keep their own clocks, and each score reads the discount
v^t of its own paths.

A run reads the discounts v^k, and where it tallies discounted
dividends the geometric sums sum_{j<k} v^j of a climb's dividends, from
tables it makes once, on k = 0..min(cap, n_paths), with the largest cap
when each path has its own. A table
entry is the float the same numpy expression gives on the time itself,
so a read changes no bit; a time or a run past the end is computed as
it stands. The bound keeps the tables no larger than the arrays the
paths already hold, whatever the cap.

Each functional names the tallies it reads (discounted dividends,
dividend count, injection count, discounted injections, discounted
visits to a state), and the kernel keeps only those. simulate scores a
group of functionals sharing their dynamics in one pass, as the registry's
doubly-reflected rows; the registry's tables come from golden.cached_table.

Geometric killing at rate 1 - v is applied analytically (each period
contributes a factor v), except for the killed dividend count, whose law
is itself the target. There each path's killing time is sampled and
becomes that path's horizon cap in the same kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import DomainError, InvalidFunctional
from .model import _DISCOUNT, ClaimDistribution, _int_arg, _penalty, _real_arg

_BIAS_TARGET = 1e-10
# distinct claim cdf values up to which draw_positive compares and adds
_COMPARE_STEPS = 24
# the usual floor on a chi-square cell's expected count
_MIN_EXPECTED = 5.0

_POLICIES = ("free", "reflect_upper", "reflect_lower_0", "doubly_reflected")
_REFLECT_AT_0 = ("reflect_lower_0", "doubly_reflected")
_REFLECT_AT_B = ("reflect_upper", "doubly_reflected")


@dataclass(frozen=True)
class PolicySpec:
    """Path dynamics: free walk, one-sided reflection, or both sides; b an int or None."""

    kind: str
    b: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _POLICIES:
            raise InvalidFunctional(f"unknown policy kind {self.kind!r}")
        b = None if self.b is None else _int_arg(self.b, None, "b")
        if self.kind in _REFLECT_AT_B and (b is None or b < 0):
            raise InvalidFunctional(f"policy {self.kind} needs a barrier b >= 0")
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class FunctionalSpec:
    """What to evaluate along each path.

    level is the primary barrier or target of the functional (upper
    passage target, ruin-kill barrier, injection target, or the level
    whose downcrossing is priced); upper is the extra killing barrier
    of downcross_w; target_state is the state whose discounted visits
    the resolvent counts; weights are the terminal weights applied at a
    downcrossing, indexed by the landing state. v, w, z in (0, 1] and a
    finite k >= 0 are kept as floats, and the levels as ints or None.
    """

    kind: str
    v: float = 1.0
    w: float = 1.0
    z: float = 1.0
    k: float = 0.0
    level: int | None = None
    upper: int | None = None
    target_state: int | None = None
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        keep = partial(object.__setattr__, self)
        keep("v", _real_arg(self.v, "v", _DISCOUNT))
        for name in ("w", "z"):
            keep(name, _real_arg(getattr(self, name), name,
                                 "transform argument {name} = {} outside (0, 1]"))
        keep("k", _penalty(self.k))
        for name in ("level", "upper", "target_state"):
            if getattr(self, name) is not None:
                keep(name, _int_arg(getattr(self, name), None, name))


@dataclass(frozen=True)
class MCEstimate:
    """A Monte Carlo mean with its counters: path_steps is the time steps
    the paths covered, summed over paths, and claim_draws the claim
    epochs drawn. horizon_cap reads 0 on the mean of the killed dividend
    count: each path has its own horizon, and capped_fraction is then the
    share of paths killed before ruin."""

    mean: float
    std_error: float
    n_paths: int
    seed: int
    horizon_cap: int
    capped_fraction: float
    path_steps: int
    claim_draws: int


def default_horizon_cap(v: float) -> int:
    """Smallest horizon whose discounting bias bound v^n / (1-v) is
    below 1e-10; only defined for v < 1."""
    v = _real_arg(v, "v", "horizon cap rule needs 0 < v < 1", ends="()")
    return max(1, math.ceil(math.log(_BIAS_TARGET * (1.0 - v)) / math.log(v)))


class _ClaimSampler:
    """Inverse-CDF claim draws from uniforms, vectorized."""

    def __init__(self, dist: ClaimDistribution):
        self.dist = dist
        # 0 for the one-atom law, whose runs of zero claims never end
        self.log_p0 = math.log(dist.p0)
        self.alpha = dist.alpha
        if dist.p0 < 1.0:
            # the atoms conditioned on a claim >= 1; the geometric tail lies past them
            self.tail_cdf = np.cumsum(dist.pmf[1:]) / (1.0 - dist.p0)
            if not dist.tail_mass:
                self.tail_cdf[-1] = 1.0
            # its distinct values below 1, which a uniform in [0, 1) can reach,
            # with the number of atoms at each
            cuts, counts = np.unique(self.tail_cdf[self.tail_cdf < 1.0], return_counts=True)
            self.steps = tuple(zip(cuts.tolist(), counts.tolist()))

    def zero_run(self, u: np.ndarray) -> np.ndarray:
        """Number of zero claims before the next claim >= 1, as floats
        (inf for the one-atom law)."""
        if self.log_p0 == 0.0:
            return np.full(u.shape, np.inf)
        run = np.log1p(-u)
        run /= self.log_p0
        return np.floor(run, out=run)

    def draw_positive(self, u: np.ndarray) -> np.ndarray:
        """Claims drawn from the law conditioned on a claim >= 1: an atom, or
        past the atoms the tail's first claim plus a geometric offset.

        The atom is 1 + searchsorted(tail_cdf, u, side="right"), which for u
        in [0, 1) is 1 + sum_j m_j * (u >= c_j) over the distinct values c_j
        < 1 of tail_cdf, m_j atoms at each. That compare-and-add runs up to
        _COMPARE_STEPS values: at 25,000 draws (2-CPU x86-64 VM) it took
        0.52 ms at 24 values, or 0.79 ms with every value repeated, against
        0.92 ms for searchsorted, and lost from 32 to 48 values on.
        """
        if len(self.steps) <= _COMPARE_STEPS:
            out = np.ones(u.shape, dtype=np.int64)
            for cut, count in self.steps:
                out += u >= cut if count == 1 else count * (u >= cut)
        else:
            out = 1 + np.searchsorted(self.tail_cdf, u, side="right")
        if self.alpha:
            past, top = out > len(self.tail_cdf), self.tail_cdf[-1]
            u2 = (u[past] - top) / (1.0 - top)
            out[past] += np.floor(np.log1p(-u2) / math.log(self.alpha)).astype(np.int64)
        return out


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, stream]))


def _estimate(values: np.ndarray, seed: int, cap: int, n_capped: int,
              path_steps: int, claim_draws: int) -> MCEstimate:
    n = len(values)
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return MCEstimate(
        mean=float(values.mean()),
        std_error=se,
        n_paths=n,
        seed=seed,
        horizon_cap=cap,
        capped_fraction=n_capped / n,
        path_steps=path_steps,
        claim_draws=claim_draws,
    )


# ------------------------------------------------------------ functionals
#
# Each kind names its policy, the FunctionalSpec fields it needs, its
# band (fn -> absorbing upper and lower levels, None for no level), the
# tallies it reads, and its scores f(fn, disc, x, tally) of the paths
# absorbed above, absorbed below and running at the cap (None scores 0).

@dataclass(frozen=True)
class _Kind:
    policy: str
    needs: tuple[str, ...]
    band: Callable
    tallies: tuple[str, ...] = ()
    above: Callable | None = None
    below: Callable | None = None
    at_cap: Callable | None = None


# bands: killed at ruin (and at fn.level if given), only at ruin, or never
_KILLED, _RUIN_ONLY, _UNBOUNDED = (
    (lambda fn: (fn.level, -1)), (lambda fn: (None, -1)), (lambda fn: (None, None)))


def _downcross_band(fn):
    if len(fn.weights) <= max(fn.level - 1, 0):
        raise InvalidFunctional("downcross_w weights do not cover the band")
    return fn.upper, fn.level - 1


def _target_band(fn):
    if fn.level < 0:
        raise InvalidFunctional("injection_mgf needs a nonnegative target level")
    return fn.level, None


def _deficit_gf(fn, disc, x, t):
    return disc * fn.w ** (-x.astype(float))


def _downcross(fn, disc, x, t):
    weights = np.asarray(fn.weights)
    safe = np.clip(x, 0, len(weights) - 1)
    return disc * np.where(x >= 0, weights[safe], 0.0)


def _tally(name):
    return lambda fn, disc, x, t: t[name]


_DISC, _ONE = (lambda fn, disc, x, t: disc), (lambda fn, disc, x, t: 1.0)
_DIV, _BAIL, _VISITS, _PAID = _tally("div"), _tally("bail"), _tally("visits"), _tally("paid")
_INT_TALLIES = ("paid", "inj")  # counts; the other tallies are discounted sums

_KINDS = {
    # free walk, killed on leaving its band
    "passage_up": _Kind("free", ("level",), lambda fn: (fn.level, None), above=_DISC),
    "two_sided_up": _Kind("free", ("level",), _KILLED, above=_DISC),
    "deficit_gf": _Kind("free", (), _KILLED, below=_deficit_gf),
    "discounted_ruin": _Kind("free", (), _KILLED, below=_DISC),
    "ruin_indicator": _Kind("free", (), _KILLED, below=_ONE),
    "expected_deficit": _Kind("free", ("level",), _KILLED,
                              below=lambda fn, disc, x, t: disc * x.astype(float)),
    "resolvent": _Kind("free", ("level", "target_state"), _KILLED, ("visits",),
                       _VISITS, _VISITS, _VISITS),
    "downcross_w": _Kind("free", ("level", "weights"), _downcross_band, below=_downcross),
    # reflected at b, killed at ruin
    "dividends_pv": _Kind("reflect_upper", (), _RUIN_ONLY, ("div",),
                          below=_DIV, at_cap=_DIV),
    "joint_deficit_dividends": _Kind(
        "reflect_upper", (), _RUIN_ONLY, ("paid",),
        below=lambda fn, disc, x, t: _deficit_gf(fn, disc, x, t)
        * fn.z ** t["paid"].astype(float)),
    "ruin_prob": _Kind("reflect_upper", (), _RUIN_ONLY, below=_ONE),
    "bailout_pv": _Kind("reflect_upper", (), _RUIN_ONLY,
                        below=lambda fn, disc, x, t: disc * -x.astype(float)),
    "modified_value": _Kind(
        "reflect_upper", (), _RUIN_ONLY, ("div",), at_cap=_DIV,
        below=lambda fn, disc, x, t: t["div"] - fn.k * disc * -x.astype(float)),
    # reflected at 0 until a target
    "injection_mgf": _Kind(
        "reflect_lower_0", ("level",), _target_band, ("inj",),
        above=lambda fn, disc, x, t: disc * fn.w ** t["inj"].astype(float)),
    # reflected at both 0 and b, run to the cap
    "doubly_dividends": _Kind("doubly_reflected", (), _UNBOUNDED, ("div",), at_cap=_DIV),
    "doubly_bailouts": _Kind("doubly_reflected", (), _UNBOUNDED, ("bail",), at_cap=_BAIL),
    "doubly_value": _Kind("doubly_reflected", (), _UNBOUNDED, ("div", "bail"),
                          at_cap=lambda fn, disc, x, t: t["div"] - fn.k * t["bail"]),
}
# dividend_count_samples: the dividends paid, counted to ruin or to the cap
_COUNT = _Kind("reflect_upper", (), _RUIN_ONLY, ("paid",), below=_PAID, at_cap=_PAID)


def _tabled(f, size: int):
    """f read from a table of f(0..size-1), made once: the same floats as f gives,
    for the same numpy expression, without recomputing them. An argument past the
    table's end calls f on the whole array."""
    table = f(np.arange(size))
    return lambda k: table[k] if not k.size or k.max() < size else f(k)


def _run(sampler, x0, fns, kinds, n_paths, rng, cap, b):
    """The event kernel: each kind's value on every path (in the order
    the paths stop), the number of paths still running at their cap, the
    time steps they covered and the claim epochs drawn. The kinds share
    policy and band, and fns[0] carries the v and target_state they share.
    cap is one horizon for every path or an int64 array of one per path."""
    for fn, kind in zip(fns, kinds):
        for name in kind.needs:
            if getattr(fn, name) is None:
                raise InvalidFunctional(f"{fn.kind} needs {name}")
    upper, lower = kinds[0].band(fns[0])
    at_0 = kinds[0].policy in _REFLECT_AT_0
    at_b = kinds[0].policy in _REFLECT_AT_B
    v, target = fns[0].v, fns[0].target_state
    log_v = math.log(v)
    names = {name for kind in kinds for name in kind.tallies}
    scores = [[] for _ in kinds]
    # the start is paid at b with discount 1; no kind reflected at b has an
    # upper level, and a start above b >= 0 is neither reflected at 0 nor ruined
    excess = max(x0 - b, 0) if at_b else 0
    x = np.full(n_paths, x0 - excess, dtype=np.int64)
    t = np.zeros(n_paths, dtype=np.int64)
    cap = np.asarray(cap, dtype=np.int64)  # a scalar, or one per path
    # v^k and the climb's geometric sum of n dividends, sum_{j<n} v^j, on
    # 0..min(cap, n_paths): no table outgrows the arrays of the paths
    size = min(int(cap.max()), n_paths) + 1
    disc = _tabled(lambda k: v ** k, size)
    tally = {name: np.full(n_paths, excess if name in ("div", "paid") else 0,
                           dtype=np.int64 if name in _INT_TALLIES else float)
             for name in names}
    if "div" in tally:
        geo = _tabled((lambda n: n.astype(float)) if log_v == 0.0
                      else (lambda n: np.expm1(n * log_v) / math.expm1(log_v)), size)
    n_capped = path_steps = claim_draws = 0

    def score(which, hit):
        nonlocal path_steps
        sub = {k: a[hit] for k, a in tally.items()}
        th = t[hit]
        path_steps += int(th.sum())
        d, xh = disc(th), x[hit]
        for out, fn, kind in zip(scores, fns, kinds):
            fun = getattr(kind, which)
            out.append(np.zeros(hit.size) if fun is None
                       else np.broadcast_to(fun(fn, d, xh, sub), hit.shape))

    while x.size:
        # the events of each path's epoch: the start, a claim or the cap
        if at_0 and (hit := np.flatnonzero(x < 0)).size:
            under = -x[hit]
            if "inj" in tally:
                tally["inj"][hit] += under
            if "bail" in tally:
                tally["bail"][hit] += disc(t[hit]) * under
            x[hit] = 0
        stopped = None  # made when the first path stops
        for which, level, cross in (("above", upper, np.greater_equal),
                                    ("below", lower, np.less_equal)):
            if level is not None and (hit := np.flatnonzero(cross(x, level))).size:
                score(which, hit)
                if stopped is None:
                    stopped = np.zeros(x.size, dtype=bool)
                stopped[hit] = True
        hit = np.flatnonzero(t >= cap)
        if stopped is not None and hit.size:
            hit = hit[~stopped[hit]]
        if hit.size:
            score("at_cap", hit)
            n_capped += hit.size
            if stopped is None:
                stopped = np.zeros(x.size, dtype=bool)
            stopped[hit] = True
        if stopped is not None:
            keep = np.flatnonzero(~stopped)
            x, t = x[keep], t[keep]
            if cap.ndim:
                cap = cap[keep]
            tally = {k: a[keep] for k, a in tally.items()}
            if not x.size:
                break
        # the climb: +1 a step until the next claim, the upper level or the cap
        climb = sampler.zero_run(rng.random(x.size))
        end = cap - t
        if upper is not None:
            np.minimum(end, upper - x, out=end)
        # the float the comparison with a float climb casts end to, cast once
        limit = end.astype(float)
        claim = climb < limit
        climb = np.minimum(climb, limit, out=climb).astype(np.int64)
        if "visits" in tally:
            # the free walk passes the target s steps on, s = 0 being the epoch itself
            s = target - x
            hit = np.flatnonzero((s >= 0) & (s <= climb) & (s < end))
            tally["visits"][hit] += disc(t[hit] + s[hit])
        # temporaries are dropped as soon as they are read: the peak memory
        # of a run is reached in this part of the loop
        del end, limit
        x += climb
        t += climb
        del climb
        if at_b:
            # paid at b on each step of the climb after the one reaching it,
            # the n steps t - n + 1, ..., t: a geometric sum of v^s
            if "div" in tally:
                hit = np.flatnonzero(x > b)
                n = x[hit] - b
                tally["div"][hit] += geo(n) * disc(t[hit] - n + 1)
            if "paid" in tally:
                paid = x - b
                tally["paid"] += np.maximum(paid, 0, out=paid)
            np.minimum(x, b, out=x)
        if (hit := np.flatnonzero(claim)).size:
            x[hit] += 1 - sampler.draw_positive(rng.random(hit.size))
            claim_draws += hit.size
        t += claim
    return [np.concatenate(s) for s in scores], n_capped, path_steps, claim_draws


def simulate(
    dist: ClaimDistribution,
    x0: int,
    policy: PolicySpec,
    functional: FunctionalSpec | tuple[FunctionalSpec, ...],
    n_paths: int,
    seed: int,
    horizon_cap: int | None = None,
    stream: int = 0,
) -> MCEstimate | list[MCEstimate]:
    """Estimate the functional along n_paths simulated paths.

    Deterministic: the same arguments always produce bit-identical
    results. Distinct stream values give independent estimates under
    the same seed. When horizon_cap is omitted it is derived from the
    discount factor (v < 1 only; undiscounted runs must cap explicitly).

    A tuple of functionals sharing v, level, upper and target_state is
    scored from one pass, as a list of estimates in order, each bit for
    bit the estimate of that functional alone.
    """
    fns = (functional,) if isinstance(functional, FunctionalSpec) else tuple(functional)
    if not fns:
        raise InvalidFunctional("no functional to score")
    x0, seed, stream = (_int_arg(x0, None, "level"), _int_arg(seed, None, "seed"),
                        _int_arg(stream, None, "stream"))
    n_paths = _int_arg(n_paths, 1, "n_paths")
    if horizon_cap is None:
        horizon_cap = default_horizon_cap(fns[0].v)
    horizon_cap = _int_arg(horizon_cap, 1, "horizon_cap")
    kinds = tuple(_KINDS.get(fn.kind) for fn in fns)
    for fn, kind in zip(fns, kinds):
        if kind is None or kind.policy != policy.kind:
            raise InvalidFunctional(
                f"functional {fn.kind!r} not available under policy "
                f"{policy.kind!r}"
            )
    if len({(fn.v, fn.level, fn.upper, fn.target_state) for fn in fns}) > 1:
        raise InvalidFunctional("grouped functionals must share v, level, upper and target")
    values, capped, steps, claims = _run(_ClaimSampler(dist), x0, fns, kinds, n_paths,
                                         _rng(seed, stream), horizon_cap, policy.b)
    estimates = [_estimate(vals, seed, horizon_cap, capped, steps, claims) for vals in values]
    return estimates[0] if isinstance(functional, FunctionalSpec) else estimates


def _dividend_counts(dist, b, v, x0, n_paths, seed, stream):
    """(counts, paths killed before ruin, time steps, claim epochs) of dividend_count_samples."""
    v = _real_arg(v, "v", "killed dividend counts need 0 < v < 1", ends="()")
    b, x0 = (_int_arg(x, 0, "level", "barrier and start must be nonnegative") for x in (b, x0))
    n_paths, seed, stream = (_int_arg(n_paths, 1, "n_paths"), _int_arg(seed, None, "seed"),
                             _int_arg(stream, None, "stream"))
    rng = _rng(seed, stream)
    kill = rng.geometric(1.0 - v, size=n_paths)
    (counts,), *counters = _run(_ClaimSampler(dist), x0, (FunctionalSpec("dividend_count"),),
                                (_COUNT,), n_paths, rng, kill - 1, b)
    return (counts, *counters)


def dividend_count_samples(
    dist: ClaimDistribution, b: int, v: float, x0: int, n_paths: int, seed: int,
    stream: int = 0,
) -> np.ndarray:
    """Total dividends paid before ruin or an independent geometric
    killing time with survival v, one integer per path.

    This is the one estimator where killing is sampled rather than
    folded into a discount, because the killed count's law itself is
    the target. The killing time E is drawn per path, and the path kernel
    runs each path undiscounted to ruin or to its own horizon E - 1, the
    last epoch whose dividend is paid before the kill.
    """
    return _dividend_counts(dist, b, v, x0, n_paths, seed, stream)[0]


def geometric_law_chisquare(counts: np.ndarray, theta: float) -> tuple[float, float]:
    """Chi-square goodness of fit of integer samples against the
    geometric law P(R = r) = theta * (1 - theta)^r on {0, 1, ...}.

    Bins beyond the point where the expected count drops under
    _MIN_EXPECTED are lumped into one tail cell. Returns (statistic,
    p_value).
    """
    counts = np.asarray(counts)
    n = counts.size
    if n == 0:
        raise DomainError("no samples")
    if counts.ndim != 1 or counts.dtype.kind not in "iu" or counts.min() < 0:
        raise DomainError("counts must be a flat array of nonnegative integers")
    theta = _real_arg(theta, "theta", "geometric parameter {} outside (0, 1)", ends="()")
    probs = []
    while n * (p := theta * (1.0 - theta) ** len(probs)) >= _MIN_EXPECTED:
        probs.append(p)
    if not probs:
        raise DomainError("sample too small for a chi-square test")
    head = len(probs)
    observed = np.bincount(np.minimum(counts, head), minlength=head + 1).astype(float)
    expected = np.append(n * np.asarray(probs), n * (1.0 - theta) ** head)
    statistic = float(((observed - expected) ** 2 / expected).sum())
    return statistic, _chi2_sf(statistic, head)


def _chi2_sf(x2: float, df: int) -> float:
    """P(chi-square with integer df > x2) = Q(df/2, x) at x = x2/2, by
    Q(a + 1) = Q(a) + x^a e^-x / Gamma(a + 1) from Q(1/2) = erfc(sqrt x)
    for odd df or from Q(1) = e^-x for even df."""
    if x2 <= 0.0:
        return 1.0
    x = x2 / 2.0
    a, q = (0.5, math.erfc(math.sqrt(x))) if df % 2 else (1.0, math.exp(-x))
    while a < df / 2:
        q += math.exp(a * math.log(x) - x - math.lgamma(a + 1.0))
        a += 1.0
    return q


@dataclass(frozen=True)
class RegistryEntry:
    """One analytic-vs-MC comparison, lazily evaluated."""

    name: str
    analytic: "callable"
    estimate: "callable"  # (seed, n_paths, stream) -> MCEstimate


def _sim(dist, x0, policy, kind, cap=None, **spec):
    """A registry estimate: the functional kind(**spec) simulated from
    x0 under policy, capped at cap or else at the default horizon."""
    fn = FunctionalSpec(kind, **spec)
    return lambda seed, n, stream: simulate(dist, x0, policy, fn, n, seed, cap, stream)


def _sim_group(dist, x0, policy, *specs):
    """Registry estimates of the functionals kind(**spec), one per (kind,
    spec), scored from one pass at the default horizon. Member i runs on
    the stream it is given minus i, so the pass runs on the group's first
    stream, once per (seed, n_paths, stream) of this group."""
    fns = tuple(FunctionalSpec(kind, **spec) for kind, spec in specs)
    cap = default_horizon_cap(fns[0].v)
    passes = {}

    def estimate(offset, seed, n, stream):
        key = (seed, n, stream - offset)
        if key not in passes:
            passes[key] = simulate(dist, x0, policy, fns, n, seed, cap, key[2])
        return passes[key][offset]

    return [partial(estimate, i) for i in range(len(fns))]


def default_registry() -> list[RegistryEntry]:
    """The cross-check catalogue backing mc-verify and the acceptance
    suite: one entry per passage or dividend functional, each with an
    analytic value and a matched simulation."""
    from . import dividends as dv, golden, lundberg, passage
    from .golden import cached_table
    from .model import validate

    three, two = golden.three_point_model(), golden.two_point_model()
    four, heavy = golden.four_point_model(), validate(["1/2", "0", "0", "1/2"])
    free, lower = PolicySpec("free"), PolicySpec("reflect_lower_0")
    up2, up3, up5 = (PolicySpec("reflect_upper", b) for b in (2, 3, 5))
    doubly = PolicySpec("doubly_reflected", 4)
    v2, v9 = golden.THREE_POINT_V, golden.TWO_POINT_V
    doubly_div, doubly_bail, doubly_val = _sim_group(
        four, 2, doubly, ("doubly_dividends", {"v": 0.8}), ("doubly_bailouts", {"v": 0.8}),
        ("doubly_value", {"v": 0.8, "k": 1.2}))

    def dividends_law_mean():
        theta = dv.dividends_law_at_barrier(cached_table(two, v9, 20), 2)
        return (1.0 - theta) / theta

    def dividends_law_estimate(seed, n, stream):
        counts, *counters = _dividend_counts(two, 2, v9, 2, n, seed, stream)
        return _estimate(counts.astype(float), seed, 0, *counters)

    # eventual ruin (v = 1) is truncated at a level where the residual
    # ruin probability is < 1e-12; finite-time ruin caps at its horizon
    rows = [
        ("passage_up:three_point,v=0.9,b=3", lambda: lundberg.phi(three, 0.9) ** 3,
         _sim(three, 0, free, "passage_up", v=0.9, level=3)),
        ("two_sided_up:three_point,x=2,N=6",
         lambda: passage.two_sided_up(cached_table(three, v2, 20), 2, 6),
         _sim(three, 2, free, "two_sided_up", v=v2, level=6)),
        ("deficit_gf:three_point,x=1,b=5,w=0.7",
         lambda: passage.deficit_gf(cached_table(three, v2, 20), 1, 5, 0.7),
         _sim(three, 1, free, "deficit_gf", v=v2, w=0.7, level=5)),
        ("expected_deficit:four_point,x=0,b=5",
         lambda: passage.expected_deficit(cached_table(four, 0.9, 20), 0, 5),
         _sim(four, 0, free, "expected_deficit", v=0.9, level=5)),
        ("discounted_ruin:heavy,x=2",
         lambda: passage.discounted_ruin(cached_table(heavy, 0.9, 20), 2),
         _sim(heavy, 2, free, "discounted_ruin", v=0.9)),
        ("eventual_ruin:three_point,x=0",
         lambda: passage.eventual_ruin(cached_table(three, 1.0, 20), 0),
         _sim(three, 0, free, "ruin_indicator", 4000, v=1.0, level=40)),
        ("discounted_ruin_gf:heavy,x=2,w=0.6",
         lambda: passage.discounted_ruin_gf(cached_table(heavy, 0.85, 20), 2, 0.6),
         _sim(heavy, 2, free, "deficit_gf", v=0.85, w=0.6)),
        ("finite_time_ruin:three_point,x=1,n=12",
         lambda: float(passage.finite_time_ruin(three, 12, 1).ruin[12, 1]),
         _sim(three, 1, free, "ruin_indicator", 12, v=1.0)),
        ("killed_resolvent:two_point,i=1,j=2,N=4",
         lambda: passage.killed_resolvent(cached_table(two, v9, 20), 1, 2, 4),
         _sim(two, 1, free, "resolvent", v=v9, level=4, target_state=2)),
        ("w_at_downcrossing:two_point,x=2,b=1,N=4",
         lambda: passage.w_at_downcrossing(cached_table(two, v9, 20), 2, 1, 4),
         _sim(two, 2, free, "downcross_w", v=v9, level=1, upper=4,
              weights=(cached_table(two, v9, 20).w(0),))),
        ("definetti_value:two_point,b=2,x=2",
         lambda: dv.definetti_value(cached_table(two, v9, 20), 2, 2),
         _sim(two, 2, up2, "dividends_pv", v=v9)),
        ("injections_mgf:four_point,x=0,b=4,w=0.5",
         lambda: dv.injections_mgf(cached_table(four, 0.999, 20), 4, 0, 0.5),
         _sim(four, 0, lower, "injection_mgf", v=0.999, w=0.5, level=4)),
        ("joint_dividends_deficit:two_point,b=2,x=1,w=0.7,z=0.9",
         lambda: dv.joint_dividends_deficit(cached_table(two, v9, 20), 2, 1, 0.7, 0.9),
         _sim(two, 1, up2, "joint_deficit_dividends", v=v9, w=0.7, z=0.9)),
        ("reflected_ruin_gf:four_point,b=3,x=0,w=0.4",
         lambda: dv.reflected_ruin_gf(cached_table(four, 0.999, 20), 3, 0, 0.4),
         _sim(four, 0, up3, "joint_deficit_dividends", v=0.999, w=0.4, z=1.0)),
        ("dividends_law_mean:two_point,b=2", dividends_law_mean,
         dividends_law_estimate),
        ("bailout_value_reflected:four_point,b=5,x=2",
         lambda: dv.bailout_value_reflected(cached_table(four, 0.999, 20), 5, 2),
         _sim(four, 2, up5, "bailout_pv", v=0.999)),
        ("modified_value:four_point,b=5,x=2,k=1.2",
         lambda: dv.modified_definetti_value(cached_table(four, 0.9, 20), 5, 2, 1.2),
         _sim(four, 2, up5, "modified_value", v=0.9, k=1.2)),
        # one pass scores the doubly-reflected triple
        ("doubly_dividends:four_point,b=4,x=2",
         lambda: dv.doubly_reflected_values(cached_table(four, 0.8, 20), 4, 2)[0], doubly_div),
        ("doubly_bailouts:four_point,b=4,x=2",
         lambda: dv.doubly_reflected_values(cached_table(four, 0.8, 20), 4, 2)[1], doubly_bail),
        ("doubly_value:four_point,b=4,x=2,k=1.2",
         lambda: dv.doubly_reflected_value(cached_table(four, 0.8, 20), 4, 2, 1.2), doubly_val),
    ]
    return [RegistryEntry(*row) for row in rows]


def run_registry(seed: int = 42, n_paths: int = 10**6) -> list[dict]:
    """Evaluate every registered pair; each row carries its z-score."""
    seed, n_paths = _int_arg(seed, None, "seed"), _int_arg(n_paths, 1, "n_paths")
    rows = []
    for stream, entry in enumerate(default_registry()):
        analytic = float(entry.analytic())
        est = entry.estimate(seed, n_paths, stream)
        if est.std_error > 0.0:
            zscore = (est.mean - analytic) / est.std_error
        else:
            zscore = 0.0 if abs(est.mean - analytic) < 1e-12 else math.inf
        rows.append(
            {
                "functional": entry.name,
                "analytic": analytic,
                "mc_mean": est.mean,
                "mc_se": est.std_error,
                "z_score": zscore,
                "n_paths": est.n_paths,
                "seed": seed,
            }
        )
    return rows


def run_dividends_chisquare(seed: int = 42, n_paths: int = 10**5) -> dict:
    """Chi-square check that killed cumulative dividends at the barrier
    follow their geometric law, theta read off the registry's table."""
    seed, n_paths = _int_arg(seed, None, "seed"), _int_arg(n_paths, 1, "n_paths")
    from .dividends import dividends_law_at_barrier
    from .golden import TWO_POINT_V, cached_table, two_point_model

    two_point, v = two_point_model(), TWO_POINT_V
    theta = dividends_law_at_barrier(cached_table(two_point, v, 20), 2)
    counts = dividend_count_samples(two_point, 2, v, 2, n_paths, seed, stream=1000)
    statistic, p_value = geometric_law_chisquare(counts, theta)
    return {
        "functional": "dividends_law_chisquare:two_point,b=2",
        "theta": theta,
        "statistic": statistic,
        "p_value": p_value,
        "n_paths": n_paths,
        "seed": seed,
    }
