"""The Monte Carlo kernel's discounts past the end of its per-run tables.

A run reads v^t, and the geometric sum of a climb's dividends, from
tables of at most n_paths + 1 entries; a time or a run past their end
is computed directly. Each case pins, bit for bit, the estimate that
computing every discount directly gives, on paths whose clocks and
climbs run far past the tables: 50 paths at v = 0.999, whose default
horizon is 29,919 steps.
"""

import tracemalloc

import pytest

from skipfree import FunctionalSpec, PolicySpec, simulate, validate
from skipfree import mc
from skipfree.mc import _dividend_counts

THREE = validate(["2/3", "2/9", "0", "1/9"])
FOUR = validate(["3/4", "1/20", "1/10", "0", "0", "0", "0", "1/10"])
LONG = validate(["49/50", "0", "1/50"])  # runs of zero claims average 49 steps
ONE_ATOM = validate(["1"])  # no claim ever: every climb runs to the cap

# label -> (dist, x0, policy, functional)
CASES = {
    "discounted_ruin": (THREE, 2, PolicySpec("free"), FunctionalSpec("discounted_ruin", v=0.999)),
    "resolvent": (THREE, 1, PolicySpec("free"),
                  FunctionalSpec("resolvent", v=0.999, level=40, target_state=2)),
    "deficit_gf": (FOUR, 3, PolicySpec("free"),
                   FunctionalSpec("deficit_gf", v=0.999, w=0.7, level=60)),
    "dividends_pv": (FOUR, 10, PolicySpec("reflect_upper", 20),
                     FunctionalSpec("dividends_pv", v=0.999)),
    "modified_value": (FOUR, 10, PolicySpec("reflect_upper", 20),
                       FunctionalSpec("modified_value", v=0.999, k=1.2)),
    "dividends_pv:long_climbs": (LONG, 5, PolicySpec("reflect_upper", 5),
                                 FunctionalSpec("dividends_pv", v=0.999)),
    "doubly_value:long_climbs": (LONG, 0, PolicySpec("doubly_reflected", 1),
                                 FunctionalSpec("doubly_value", v=0.999, k=1.2)),
    "injection_mgf": (FOUR, 0, PolicySpec("reflect_lower_0"),
                      FunctionalSpec("injection_mgf", v=0.999, w=0.5, level=30)),
    "doubly_value": (FOUR, 2, PolicySpec("doubly_reflected", 4),
                     FunctionalSpec("doubly_value", v=0.999, k=1.2)),
}

# label -> (mean, std_error, capped_fraction, path_steps, claim_draws) at seed 7, stream 3
PINS = {
    "discounted_ruin": (0.019800897604194966, 0.01980089760419496, 0.98, 1466041, 488761),
    "resolvent": (1.8521488226987686, 0.23548851384057187, 0.0, 3523, 1175),
    "deficit_gf": (0.38257860569512075, 0.03516037280899916, 0.0, 4720, 1148),
    "dividends_pv": (13.041072901588215, 2.856868576253998, 0.0, 5329, 1318),
    "modified_value": (9.945551475790664, 2.945573054611942, 0.0, 5329, 1318),
    "dividends_pv:long_climbs": (959.7077704130951, 0.8063384310731656, 1.0, 1495950, 30222),
    "doubly_value:long_climbs": (958.6308806744714, 0.809758372809284, 1.0, 1495950, 30222),
    "injection_mgf": (0.08751702297985867, 0.03375907419063577, 0.0, 8715, 2145),
    "doubly_value": (-29.56495242619907, 8.502293876949771, 1.0, 1495950, 373235),
}


def test_cases_are_pinned():
    assert set(CASES) == set(PINS)


@pytest.mark.parametrize("label", sorted(CASES))
def test_times_past_the_discount_tables_are_pinned(label):
    dist, x0, policy, fn = CASES[label]
    e = simulate(dist, x0, policy, fn, 50, 7, None, 3)
    assert e.horizon_cap == 29919
    got = (e.mean, e.std_error, e.capped_fraction, e.path_steps, e.claim_draws)
    assert got == PINS[label]


def test_killed_dividend_counts_past_the_tables_are_pinned():
    # one horizon per path, the largest far past 50 steps
    counts, killed, steps, claims = _dividend_counts(FOUR, 3, 0.999, 1, 50, 7, 3)
    assert counts.tolist() == [
        18, 0, 0, 1, 1, 0, 0, 3, 0, 1, 5, 3, 0, 4, 1, 4, 1, 0, 9, 5, 2, 0, 0, 0, 0,
        0, 11, 0, 1, 1, 7, 0, 3, 3, 0, 5, 1, 7, 9, 4, 12, 2, 5, 15, 14, 6, 9, 17, 12, 27]
    assert (killed, steps, claims) == (1, 476, 126)


def test_a_huge_cap_allocates_no_table_of_its_size():
    # one climb of 10^12 steps per path: tables sized by the cap would need terabytes
    runs = [
        (PolicySpec("reflect_upper", 3), FunctionalSpec("dividends_pv", v=0.9999999),
         (9999996.00526416, 5.893148455473899e-11, 1.0, 10**15)),
        (PolicySpec("doubly_reflected", 3),
         FunctionalSpec("doubly_value", v=0.9999999, k=1.2),
         (9999996.00526416, 5.893148455473899e-11, 1.0, 10**15)),
        (PolicySpec("free"),
         FunctionalSpec("resolvent", v=0.9999999, level=10**11, target_state=5),
         (0.9999995000001006, 1.053777060891491e-17, 0.0, 10**14)),
    ]
    tracemalloc.start()
    try:
        for policy, fn, pin in runs:
            e = simulate(ONE_ATOM, 0, policy, fn, 1000, 1, 10**12)
            assert (e.mean, e.std_error, e.capped_fraction, e.path_steps) == pin
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("case, n_paths, cap, size", [
    ("doubly_value", 50, None, 51), ("doubly_value", 50, 10, 11), ("one_atom", 3, 10**12, 4)])
def test_the_tables_hold_at_most_n_paths_plus_one_floats(monkeypatch, case, n_paths, cap, size):
    sizes = []
    tabled = mc._tabled
    monkeypatch.setattr(mc, "_tabled", lambda f, n: sizes.append(n) or tabled(f, n))
    dist, x0, policy, fn = CASES.get(case) or (
        ONE_ATOM, 0, PolicySpec("reflect_upper", 3), FunctionalSpec("dividends_pv", v=0.9))
    simulate(dist, x0, policy, fn, n_paths, 7, cap, 3)
    assert sizes == [size, size]


def test_killed_counts_size_their_tables_by_the_paths(monkeypatch):
    sizes = []
    tabled = mc._tabled
    monkeypatch.setattr(mc, "_tabled", lambda f, n: sizes.append(n) or tabled(f, n))
    # the largest of the 50 killing times is far past 50; a count has no
    # discounted dividends, so the run makes no table of geometric sums
    _dividend_counts(FOUR, 3, 0.999, 1, 50, 7, 3)
    assert sizes == [51]
