"""The event-driven Monte Carlo kernel against the stepping reference.

Each case runs the same functional on both kernels, on independent
streams, and compares the two estimates with a two-sample z-score, on the mean and on
the capped fraction. Grouped runs must reproduce single-kind runs bit for
bit, and the registry must run its doubly-reflected rows as one pass.
"""

import math

import numpy as np
import pytest
from mc_reference import dividend_count_samples_stepping, simulate_stepping
from test_mc_pins import OUT_OF_BAND

from skipfree import (
    FunctionalSpec, PolicySpec, dividend_count_samples, modified_geometric, simulate, validate,
)
from skipfree.errors import InvalidFunctional
from skipfree.golden import four_point_model, three_point_model, two_point_model
from skipfree import mc
from skipfree.mc import _KINDS, _ClaimSampler, _rng, _run, default_registry

THREE, TWO, FOUR = three_point_model(), two_point_model(), four_point_model()
HEAVY = validate(["1/2", "0", "0", "1/2"])
MODGEOM = modified_geometric(p0="17/20", p1="1/10", alpha="9/10")  # p_1 > 0
ONE_ATOM = validate(["1"])
FREE, LOWER = PolicySpec("free"), PolicySpec("reflect_lower_0")
UP2, UP3, UP5 = (PolicySpec("reflect_upper", b) for b in (2, 3, 5))
DOUBLY = PolicySpec("doubly_reflected", 4)

# label -> (dist, x0, policy, functional, horizon cap or None); the
# first seventeen start every kind inside its band
CASES = {
    "passage_up": (THREE, 1, FREE, FunctionalSpec("passage_up", v=0.9, level=4), None),
    "two_sided_up": (THREE, 2, FREE, FunctionalSpec("two_sided_up", v=0.9, level=6), None),
    "deficit_gf": (THREE, 1, FREE, FunctionalSpec("deficit_gf", v=0.9, w=0.7, level=5), None),
    "discounted_ruin": (HEAVY, 2, FREE, FunctionalSpec("discounted_ruin", v=0.9), None),
    "ruin_indicator": (THREE, 1, FREE, FunctionalSpec("ruin_indicator", v=0.95, level=8), None),
    "expected_deficit": (FOUR, 0, FREE, FunctionalSpec("expected_deficit", v=0.9, level=5), None),
    "resolvent": (TWO, 1, FREE,
                  FunctionalSpec("resolvent", v=0.9, level=4, target_state=2), None),
    "downcross_w": (TWO, 2, FREE, FunctionalSpec("downcross_w", v=0.9, level=1, upper=4,
                                                 weights=(0.5,)), None),
    "dividends_pv": (TWO, 2, UP2, FunctionalSpec("dividends_pv", v=0.9), None),
    "joint_deficit_dividends": (
        TWO, 1, UP2, FunctionalSpec("joint_deficit_dividends", v=0.9, w=0.7, z=0.9), None),
    "ruin_prob": (FOUR, 2, UP3, FunctionalSpec("ruin_prob", v=0.9), None),
    "bailout_pv": (FOUR, 2, UP5, FunctionalSpec("bailout_pv", v=0.9), None),
    "modified_value": (FOUR, 2, UP5, FunctionalSpec("modified_value", v=0.9, k=1.2), None),
    "injection_mgf": (FOUR, 0, LOWER,
                      FunctionalSpec("injection_mgf", v=0.9, w=0.5, level=4), None),
    "doubly_dividends": (FOUR, 2, DOUBLY, FunctionalSpec("doubly_dividends", v=0.8), None),
    "doubly_bailouts": (FOUR, 2, DOUBLY, FunctionalSpec("doubly_bailouts", v=0.8), None),
    "doubly_value": (FOUR, 2, DOUBLY, FunctionalSpec("doubly_value", v=0.8, k=1.2), None),
    "modgeom:deficit_gf": (MODGEOM, 2, FREE,
                           FunctionalSpec("deficit_gf", v=0.95, w=0.6, level=6), None),
    "modgeom:doubly_value": (MODGEOM, 1, PolicySpec("doubly_reflected", 3),
                             FunctionalSpec("doubly_value", v=0.9, k=1.2), None),
    "one_atom:passage_up": (ONE_ATOM, -3, FREE,
                            FunctionalSpec("passage_up", v=0.9, level=5), None),
    "one_atom:dividends_pv": (ONE_ATOM, 1, UP3, FunctionalSpec("dividends_pv", v=0.9), None),
    # absorbed at the cap itself, which counts as absorbed, not capped
    "one_atom:passage_up,cap=8": (ONE_ATOM, -3, FREE,
                                  FunctionalSpec("passage_up", v=0.9, level=5), 8),
    # the target is first reachable at the cap, where visits are no longer counted
    "resolvent:cap=3": (THREE, 0, FREE,
                        FunctionalSpec("resolvent", v=0.9, level=6, target_state=3), 3),
    "v=1:ruin_indicator,cap=200": (THREE, 2, FREE, FunctionalSpec("ruin_indicator", v=1.0), 200),
    "finite_time_ruin:n=12": (THREE, 1, FREE, FunctionalSpec("ruin_indicator", v=1.0), 12),
}
CASES.update({f"out_of_band:{label}": case for label, case in OUT_OF_BAND.items()})
N_PATHS, SEED = 20000, 1708


def _two_sample_z(a, b):
    """z-scores of the difference of the means and of the capped fractions;
    the mean's standard error has a floor for the rounding of the two
    kernels' discounts, which differ where every path is the same."""
    se = math.hypot(a.std_error, b.std_error, 1e-12 * max(1.0, abs(b.mean)))
    z_mean = (a.mean - b.mean) / se
    pooled = (a.capped_fraction + b.capped_fraction) / 2.0
    se = math.sqrt(pooled * (1.0 - pooled) * 2.0 / N_PATHS)
    z_capped = ((a.capped_fraction - b.capped_fraction) / se if se > 0
                else abs(a.capped_fraction - b.capped_fraction) / 1e-12)
    return z_mean, z_capped


def test_cases_cover_every_kind():
    assert set(_KINDS) <= set(CASES)


@pytest.mark.parametrize("label", sorted(CASES))
def test_event_kernel_agrees_with_stepping_reference(label):
    dist, x0, policy, spec, cap = CASES[label]
    event = simulate(dist, x0, policy, spec, N_PATHS, SEED, cap)
    # another stream: both kernels map the first uniforms to the first claims
    stepped = simulate_stepping(dist, x0, policy, spec, N_PATHS, SEED, cap, stream=1)
    z_mean, z_capped = _two_sample_z(event, stepped)
    assert abs(z_mean) <= 4.0 and abs(z_capped) <= 4.0, (event, stepped)


def _kernel(dist, x0, policy, specs, n_paths, seed, cap):
    return _run(_ClaimSampler(dist), x0, specs, tuple(_KINDS[s.kind] for s in specs),
                n_paths, _rng(seed, 3), cap, policy.b)


@pytest.mark.parametrize("dist, x0, policy, specs, cap", [
    (FOUR, 2, DOUBLY, (FunctionalSpec("doubly_dividends", v=0.8),
                       FunctionalSpec("doubly_bailouts", v=0.8),
                       FunctionalSpec("doubly_value", v=0.8, k=1.2)), 111),
    (THREE, 1, FREE, (FunctionalSpec("discounted_ruin", v=0.9),
                      FunctionalSpec("ruin_indicator", v=0.9),
                      FunctionalSpec("deficit_gf", v=0.9, w=0.7)), 40),
    (TWO, 1, UP2, (FunctionalSpec("dividends_pv", v=0.9),
                   FunctionalSpec("joint_deficit_dividends", v=0.9, w=0.7, z=0.9)), 241),
])
def test_grouped_run_matches_single_runs_bit_for_bit(dist, x0, policy, specs, cap):
    values, *counters = _kernel(dist, x0, policy, specs, 3000, 5, cap)
    # one cap per path, all equal, runs the same paths
    for caps in (cap, np.full(3000, cap)):
        grouped, *grouped_counters = _kernel(dist, x0, policy, specs, 3000, 5, caps)
        assert all(np.array_equal(a, b) for a, b in zip(grouped, values))
        assert grouped_counters == counters
        for member, spec in zip(values, specs):
            (single,), *single_counters = _kernel(dist, x0, policy, (spec,), 3000, 5, caps)
            assert np.array_equal(member, single)
            assert single_counters == counters


def test_registry_runs_the_doubly_triple_as_one_pass(monkeypatch):
    import skipfree.mc as mc

    calls = []

    def counted(*args):
        calls.append(args[2])
        return _run(*args)

    monkeypatch.setattr(mc, "_run", counted)
    reg = default_registry()
    rows = {e.name.split(":")[0]: (i, e) for i, e in enumerate(reg)}
    group = [rows[k] for k in ("doubly_dividends", "doubly_bailouts", "doubly_value")]
    first = group[0][0]
    assert [i for i, _ in group] == [first, first + 1, first + 2]
    # called last to first, each row still reads the pass on the group's first stream
    got = {e.name: e.estimate(42, 2000, i) for i, e in reversed(group)}
    assert len(calls) == 1
    for i, e in group:
        assert e.estimate(42, 2000, i) is got[e.name]
    assert len(calls) == 1
    # a new registry object runs its own pass
    default_registry()[first + 2].estimate(42, 2000, first + 2)
    assert len(calls) == 2
    for (_, e), spec in zip(group, calls[0]):
        assert got[e.name] == simulate(FOUR, 2, DOUBLY, spec, 2000, 42, 111, first)


def test_grouped_functionals_must_share_their_dynamics():
    specs = (FunctionalSpec("doubly_dividends", v=0.8), FunctionalSpec("doubly_bailouts", v=0.9))
    with pytest.raises(InvalidFunctional):
        simulate(FOUR, 2, DOUBLY, specs, 100, 1, 111, 0)


def test_counters():
    doubly = simulate(FOUR, 2, DOUBLY, FunctionalSpec("doubly_value", v=0.8, k=1.2), 3000, 4)
    assert doubly.path_steps == 3000 * doubly.horizon_cap
    assert 0 < doubly.claim_draws < doubly.path_steps
    two = simulate(TWO, 2, UP2, FunctionalSpec("dividends_pv", v=0.9), 3000, 4)
    assert 0 < two.claim_draws < two.path_steps
    # the one-atom law never claims: every path climbs to the cap
    one = simulate(ONE_ATOM, 0, FREE, FunctionalSpec("ruin_indicator", v=0.9), 100, 4)
    assert one.claim_draws == 0 and one.mean == 0.0 and one.capped_fraction == 1.0
    assert one.path_steps == 100 * one.horizon_cap
    # paths absorbed at t = 0 cover no steps
    start = simulate(THREE, -1, FREE, FunctionalSpec("discounted_ruin", v=0.9), 100, 4)
    assert start.path_steps == start.claim_draws == 0


def test_claim_sampler_conditions_on_a_claim(modgeom):
    u = _rng(7, 1).random(40000)
    for dist in (FOUR, THREE, modgeom, MODGEOM):
        sampler = _ClaimSampler(dist)
        draws = sampler.draw_positive(u)
        assert draws.min() >= 1
        for k in range(1, 4):
            freq = float(np.mean(draws == k))
            assert freq == pytest.approx(dist.p(k) / (1.0 - dist.p0), abs=0.02)
        runs = sampler.zero_run(u)
        assert float(runs.mean()) == pytest.approx(dist.p0 / (1.0 - dist.p0), rel=0.05)
    assert np.isinf(_ClaimSampler(ONE_ATOM).zero_run(u[:10])).all()


WIDE = validate([0.4] + [0.6 / 40] * 40)  # 40 distinct cdf values, past _COMPARE_STEPS


@pytest.mark.parametrize("dist", [FOUR, THREE, TWO, HEAVY, MODGEOM, WIDE,
                                  modified_geometric(p0=0.6, p1=0.24, alpha=0.4),
                                  modified_geometric(p0=0.5, p1=0.0, alpha=0.3)])
def test_compare_and_add_draws_equal_searchsorted(dist, monkeypatch):
    sampler = _ClaimSampler(dist)
    # uniforms on and next to every cdf value, and at both ends of [0, 1)
    cuts = sampler.tail_cdf[sampler.tail_cdf < 1.0]
    u = np.concatenate([_rng(11, 2).random(20000), cuts, np.nextafter(cuts, 0.0),
                        np.nextafter(cuts, 1.0), [0.0, np.nextafter(1.0, 0.0)]])
    assert (len(sampler.steps) > mc._COMPARE_STEPS) == (dist is WIDE)
    got = sampler.draw_positive(u)
    monkeypatch.setattr(mc, "_COMPARE_STEPS", -1)
    want = sampler.draw_positive(u)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)
    if not dist.tail_mass:
        assert np.array_equal(got, 1 + np.searchsorted(sampler.tail_cdf, u, side="right"))


@pytest.mark.parametrize("dist, b, v, x0", [
    (TWO, 2, 65 / 72, 0), (TWO, 2, 65 / 72, 2), (TWO, 2, 65 / 72, 5),
    (TWO, 0, 65 / 72, 0), (TWO, 0, 65 / 72, 2),
    (MODGEOM, 2, 0.99, 1),
])
def test_killed_dividend_count_agrees_with_stepping_reference(dist, b, v, x0):
    event = dividend_count_samples(dist, b, v, x0, N_PATHS, SEED)
    stepped = dividend_count_samples_stepping(dist, b, v, x0, N_PATHS, SEED, stream=1)
    assert event.dtype == stepped.dtype == np.int64
    se = math.hypot(event.std(ddof=1), stepped.std(ddof=1)) / math.sqrt(N_PATHS)
    assert abs(event.mean() - stepped.mean()) <= 4.0 * se, (event.mean(), stepped.mean())
