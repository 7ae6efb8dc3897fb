"""Monte Carlo engine: determinism, validation, and law checks.

Full-size verification lives in the acceptance module; everything here
runs with small path counts to keep the suite quick.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from mc_reference import StepSampler

import skipfree
from skipfree import (
    DomainError,
    FunctionalSpec,
    InvalidFunctional,
    MCEstimate,
    PolicySpec,
    default_horizon_cap,
    dividend_count_samples,
    doubly_reflected_values,
    geometric_law_chisquare,
    injections_mgf,
    run_dividends_chisquare,
    run_registry,
    simulate,
)
from skipfree.golden import cached_table
from skipfree.mc import _rng, default_registry


def test_default_horizon_cap_rule():
    # smallest n with v^n / (1 - v) below 1e-10
    assert default_horizon_cap(0.9) == 241
    v, cap = 0.9, 241
    assert v**cap / (1.0 - v) < 1e-10 < v ** (cap - 1) / (1.0 - v)
    with pytest.raises(DomainError):
        default_horizon_cap(1.0)
    with pytest.raises(DomainError):
        default_horizon_cap(0.0)


def test_policy_and_functional_validation(three_point):
    with pytest.raises(InvalidFunctional):
        PolicySpec("mirror")
    with pytest.raises(InvalidFunctional):
        PolicySpec("reflect_upper")  # missing barrier
    with pytest.raises(InvalidFunctional):
        simulate(
            three_point, 0, PolicySpec("free"),
            FunctionalSpec("lifetime", v=0.9), 100, seed=1,
        )
    with pytest.raises(InvalidFunctional):
        simulate(
            three_point, 0, PolicySpec("free"),
            FunctionalSpec("dividends_pv", v=0.9), 100, seed=1,
        )
    with pytest.raises(DomainError):
        # undiscounted runs must cap explicitly
        simulate(
            three_point, 0, PolicySpec("free"),
            FunctionalSpec("ruin_indicator", v=1.0), 100, seed=1,
        )
    for n_paths in (0, -1):
        with pytest.raises(DomainError):
            dividend_count_samples(three_point, 2, 0.9, 2, n_paths, seed=1)


def test_simulate_is_deterministic(three_point):
    spec = (three_point, 3, PolicySpec("free"),
            FunctionalSpec("passage_up", v=0.9, level=6))
    a = simulate(*spec, 4000, seed=11)
    b = simulate(*spec, 4000, seed=11)
    c = simulate(*spec, 4000, seed=11, stream=1)
    assert isinstance(a, MCEstimate)
    assert a.mean == b.mean and a.std_error == b.std_error
    assert a.mean != c.mean


def test_passage_up_agrees_with_phi(three_point, three_tab_09):
    est = simulate(
        three_point, 3, PolicySpec("free"),
        FunctionalSpec("passage_up", v=0.9, level=6), 20000, seed=2,
    )
    analytic = three_tab_09.model.phi_v**3
    assert abs(est.mean - analytic) <= 5.0 * est.std_error
    assert est.n_paths == 20000
    assert 0.0 <= est.capped_fraction <= 1.0


def test_claim_sampler_frequencies(three_point, modgeom):
    rng = _rng(7, 0)
    u = rng.random(40000)
    for dist in (three_point, modgeom):
        draws = StepSampler(dist).draw(u)
        for k in range(4):
            freq = float(np.mean(draws == k))
            assert freq == pytest.approx(dist.p(k), abs=0.02)
        # lumped tail
        tail = float(np.mean(draws >= 4))
        assert tail == pytest.approx(dist.tail(3), abs=0.02)


def test_claim_sampler_alpha_zero_stops_at_two():
    from skipfree import modified_geometric

    d = modified_geometric(p0=0.5, p1=0.2, alpha=0.0)
    draws = StepSampler(d).draw(_rng(3, 0).random(20000))
    assert draws.max() == 2


def test_ruin_certain_under_upper_reflection(three_point):
    # with v = 1 and reflection above, every path either ruins or is
    # still running at the cap; none survives outright
    est = simulate(
        three_point, 5, PolicySpec("reflect_upper", b=8),
        FunctionalSpec("ruin_prob", v=1.0), 2000, seed=3, horizon_cap=4000,
    )
    assert est.mean + est.capped_fraction == pytest.approx(1.0, abs=1e-12)
    assert est.mean > 0.6


def test_horizon_cap_bias_is_one_sided(three_point):
    spec = (three_point, 2, PolicySpec("free"),
            FunctionalSpec("ruin_indicator", v=1.0))
    short = simulate(*spec, 3000, seed=5, horizon_cap=3)
    full = simulate(*spec, 3000, seed=5, horizon_cap=600)
    assert short.mean < full.mean
    # at v = 1 the subcritical free walk drifts up, so the paths that
    # never ruin always run into the cap
    assert short.capped_fraction > full.capped_fraction > 0.5


def test_dividend_count_mean(two_point, two_tab):
    samples = dividend_count_samples(two_point, 2, 65.0 / 72.0, 2, 20000, seed=9)
    theta = two_tab.dw(2) / two_tab.w(3)
    want = (1.0 - theta) / theta
    se = samples.std(ddof=1) / np.sqrt(len(samples))
    assert abs(samples.mean() - want) <= 5.0 * se


def test_simulate_scores_a_tuple_in_one_pass(four_point):
    doubly = PolicySpec("doubly_reflected", 4)
    specs = (FunctionalSpec("doubly_dividends", v=0.8), FunctionalSpec("doubly_bailouts", v=0.8),
             FunctionalSpec("doubly_value", v=0.8, k=1.2))
    group = simulate(four_point, 2, doubly, specs, 2000, 7, None, 3)
    assert isinstance(group, list)
    assert group == [simulate(four_point, 2, doubly, spec, 2000, 7, None, 3) for spec in specs]
    assert simulate(four_point, 2, doubly, specs[:1], 2000, 7, None, 3) == group[:1]
    with pytest.raises(InvalidFunctional):
        simulate(four_point, 2, doubly, (), 2000, 7)


def test_registry_builds_no_table_after_its_first_pass(monkeypatch):
    from skipfree import golden, scale

    builds, build = [], scale.w_table
    for module in (golden, scale):
        monkeypatch.setattr(module, "w_table", lambda *args: builds.append(args) or build(*args))
    for _ in range(2):
        builds.clear()
        run_registry(seed=42, n_paths=50)
        run_dividends_chisquare(seed=42, n_paths=50)
    assert not builds


def test_registry_structure():
    reg = default_registry()
    assert len(reg) == 20
    names = [e.name for e in reg]
    assert len(set(names)) == 20
    assert all(np.isfinite(e.analytic()) for e in reg)


def test_registry_small_run_sanity():
    rows = run_registry(seed=42, n_paths=20000)
    assert len(rows) == 20
    assert sorted(rows[0]) == [
        "analytic", "functional", "mc_mean", "mc_se", "n_paths", "seed", "z_score",
    ]
    worst = max(abs(r["z_score"]) for r in rows)
    assert worst <= 5.0


def test_dividends_chisquare_small_run():
    rep = run_dividends_chisquare(seed=11, n_paths=20000)
    assert set(rep) == {"functional", "n_paths", "p_value", "seed", "statistic", "theta"}
    assert rep["p_value"] > 1e-3


def test_doubly_reflected_spot_check(four_point, gsy_tab):
    est = simulate(
        four_point, 25, PolicySpec("doubly_reflected", b=25),
        FunctionalSpec("doubly_dividends", v=0.999), 1500, seed=7,
        horizon_cap=18500,
    )
    analytic = doubly_reflected_values(gsy_tab, 25, 25)[0]
    assert abs(est.mean - analytic) <= 5.0 * est.std_error


def test_injection_target_zero_is_reached_at_time_zero(four_point):
    # reflected at 0 from x0 = -2, the walk sits on the target 0 at
    # t = 0 having been injected 2: the transform is exactly w^2
    est = simulate(
        four_point, -2, PolicySpec("reflect_lower_0"),
        FunctionalSpec("injection_mgf", v=0.9, w=0.5, level=0), 100, seed=1,
    )
    table = cached_table(four_point, 0.9, 10)
    assert est.mean == 0.25 == injections_mgf(table, 0, -2, 0.5)
    assert est.std_error == 0.0 and est.capped_fraction == 0.0


@pytest.mark.parametrize("theta", [float("nan"), 0.0, 1.0, 1.5, -0.2, float("inf")])
def test_chisquare_rejects_theta_outside_unit_interval(theta, deadline):
    counts = np.arange(100) % 4
    with deadline(1.0), pytest.raises(DomainError):
        geometric_law_chisquare(counts, theta)


@pytest.mark.parametrize("min_expected", [0.0, -1.0, float("nan")])
def test_chisquare_rejects_nonpositive_min_expected(min_expected, deadline):
    counts = np.arange(100) % 4
    with deadline(1.0), pytest.raises(DomainError):
        geometric_law_chisquare(counts, 0.5, min_expected)


@pytest.mark.parametrize("counts", [
    np.append(np.arange(99) % 4, -1),
    (np.arange(100) % 4).astype(float),
    (np.arange(100) % 4).reshape(50, 2),
    np.array([], dtype=np.int64),
])
def test_chisquare_rejects_counts_that_are_not_nonnegative_integers(counts):
    with pytest.raises(DomainError):
        geometric_law_chisquare(counts, 0.5)


def _python(code):
    src = os.path.dirname(os.path.dirname(skipfree.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)


def test_import_loads_no_scipy():
    code = ("import sys, skipfree, skipfree.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = _python(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ["examples"], ["mc-verify", "--npaths", "3000", "--chi-npaths", "3000"],
])
def test_cli_runs_with_scipy_blocked(argv):
    code = ("import sys\n"
            "sys.modules['scipy'] = None  # any scipy import now fails\n"
            "from skipfree.cli import main\n"
            f"sys.exit(main({argv!r}))")
    out = _python(code)
    assert out.returncode == 0, out.stderr


def _chisquare_inputs(counts, theta):
    """The observed and expected cells geometric_law_chisquare builds."""
    n, probs = counts.size, []
    while n * (p := theta * (1.0 - theta) ** len(probs)) >= 5.0:
        probs.append(p)
    head = len(probs)
    observed = np.bincount(np.minimum(counts, head), minlength=head + 1).astype(float)
    return observed, np.append(n * np.asarray(probs), n * (1.0 - theta) ** head)


def test_chisquare_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(1708)
    parities = set()
    for _ in range(200):
        theta = float(rng.uniform(0.05, 0.7))
        skew = float(rng.choice([1.0, 0.9, 1.1]))  # some samples miss the law
        counts = rng.geometric(theta * skew, int(rng.integers(100, 20000))) - 1
        observed, expected = _chisquare_inputs(counts, theta)
        statistic, p_value = geometric_law_chisquare(counts, theta)
        want_stat, want_p = stats.chisquare(observed, expected)
        assert statistic == want_stat
        assert p_value == pytest.approx(want_p, rel=1e-12, abs=0)
        parities.add(observed.size % 2)
    assert parities == {0, 1}  # odd and even degrees of freedom
