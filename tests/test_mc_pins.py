"""Bit-for-bit pins of the Monte Carlo simulator's output.

Each case records (mean, std_error, capped_fraction) exactly, so any
change to the draws, their order or the float operations on a path
shows up here. The registry pins cover every entry at its own stream;
the out-of-band pins start each policy outside its band, where the
start itself is a reflection or an absorption at t = 0.
"""

import pytest

from skipfree import FunctionalSpec, PolicySpec, simulate, validate
from skipfree.mc import default_registry

THREE_POINT = validate(["2/3", "2/9", "0", "1/9"])
FOUR_POINT = validate(["3/4", "1/20", "1/10", "0", "0", "0", "0", "1/10"])

FREE = PolicySpec("free")
UPPER = PolicySpec("reflect_upper", 3)
LOWER = PolicySpec("reflect_lower_0")
DOUBLY = PolicySpec("doubly_reflected", 4)

# label -> (dist, x0, policy, functional, horizon cap or None)
OUT_OF_BAND = {
    "passage_up:x0=level": (THREE_POINT, 3, FREE, FunctionalSpec("passage_up", v=0.9, level=3), None),
    "two_sided_up:x0>level": (THREE_POINT, 7, FREE, FunctionalSpec("two_sided_up", v=0.9, level=6), None),
    "deficit_gf:x0=-2": (THREE_POINT, -2, FREE, FunctionalSpec("deficit_gf", v=0.9, w=0.7, level=5), None),
    "resolvent:x0=-1": (THREE_POINT, -1, FREE, FunctionalSpec("resolvent", v=0.9, level=4, target_state=2), None),
    "resolvent:x0=level": (THREE_POINT, 4, FREE, FunctionalSpec("resolvent", v=0.9, level=4, target_state=2), None),
    "expected_deficit:x0=-3": (THREE_POINT, -3, FREE, FunctionalSpec("expected_deficit", v=0.9, level=5), None),
    "discounted_ruin:x0=-1": (THREE_POINT, -1, FREE, FunctionalSpec("discounted_ruin", v=0.9), None),
    "ruin_indicator:x0=-2": (THREE_POINT, -2, FREE, FunctionalSpec("ruin_indicator", v=1.0), 50),
    "downcross_w:x0=level-1": (
        THREE_POINT, 0, FREE,
        FunctionalSpec("downcross_w", v=0.9, level=1, upper=4, weights=(0.5, 0.25)), None,
    ),
    "downcross_w:x0<0": (
        THREE_POINT, -1, FREE,
        FunctionalSpec("downcross_w", v=0.9, level=1, upper=4, weights=(0.5, 0.25)), None,
    ),
    "injection_mgf:x0>target": (FOUR_POINT, 5, LOWER, FunctionalSpec("injection_mgf", v=0.9, w=0.5, level=4), None),
    "injection_mgf:x0=target": (FOUR_POINT, 4, LOWER, FunctionalSpec("injection_mgf", v=0.9, w=0.5, level=4), None),
    "injection_mgf:x0<0": (FOUR_POINT, -2, LOWER, FunctionalSpec("injection_mgf", v=0.9, w=0.5, level=4), None),
}
_UPPER_SPECS = {
    "dividends_pv": FunctionalSpec("dividends_pv", v=0.9),
    "joint_deficit_dividends": FunctionalSpec("joint_deficit_dividends", v=0.9, w=0.7, z=0.9),
    "ruin_prob": FunctionalSpec("ruin_prob", v=0.9),
    "bailout_pv": FunctionalSpec("bailout_pv", v=0.9),
    "modified_value": FunctionalSpec("modified_value", v=0.9, k=1.2),
}
_DOUBLY_SPECS = {
    "doubly_dividends": FunctionalSpec("doubly_dividends", v=0.8),
    "doubly_bailouts": FunctionalSpec("doubly_bailouts", v=0.8),
    "doubly_value": FunctionalSpec("doubly_value", v=0.8, k=1.2),
}
for _kind, _spec in _UPPER_SPECS.items():
    OUT_OF_BAND[f"{_kind}:x0<0"] = (FOUR_POINT, -2, UPPER, _spec, None)
    OUT_OF_BAND[f"{_kind}:x0>b"] = (FOUR_POINT, 6, UPPER, _spec, None)
for _kind, _spec in _DOUBLY_SPECS.items():
    OUT_OF_BAND[f"{_kind}:x0<0"] = (FOUR_POINT, -2, DOUBLY, _spec, None)
    OUT_OF_BAND[f"{_kind}:x0>b"] = (FOUR_POINT, 7, DOUBLY, _spec, None)

SEED, N_PATHS = 42, 2000

# (mean, std_error, capped_fraction) at SEED and N_PATHS
REGISTRY_PINS = {
    'passage_up:three_point,v=0.9,b=3': (0.550821500352675, 0.0041307218584712, 0.0),
    'two_sided_up:three_point,x=2,N=6': (0.3983634744325618, 0.004391324432635587, 0.0),
    'deficit_gf:three_point,x=1,b=5,w=0.7': (0.11223428527355316, 0.00494831760099876, 0.0),
    'expected_deficit:four_point,x=0,b=5': (-1.5247512333458777, 0.04131168278914838, 0.0),
    'discounted_ruin:heavy,x=2': (0.5726756105393096, 0.005195002386326658, 0.0),
    'eventual_ruin:three_point,x=0': (0.3435, 0.010621218392447734, 0.0),
    'discounted_ruin_gf:heavy,x=2,w=0.6': (0.21759827808173407, 0.0026596334734832277, 0.0),
    'finite_time_ruin:three_point,x=1,n=12': (0.2215, 0.009287734169484044, 0.7785),
    'killed_resolvent:two_point,i=1,j=2,N=4': (0.9399044465630447, 0.008469299863604413, 0.0),
    'w_at_downcrossing:two_point,x=2,b=1,N=4': (0.07743765261734924, 0.005866975144388062, 0.0),
    'definetti_value:two_point,b=2,x=2': (7.026428828295631, 0.04471035494911329, 0.09),
    'injections_mgf:four_point,x=0,b=4,w=0.5': (0.5251424094442338, 0.010488753844250923, 0.0),
    'joint_dividends_deficit:two_point,b=2,x=1,w=0.7,z=0.9': (0.07428716388559403, 0.004091953104157264, 0.072),
    'reflected_ruin_gf:four_point,b=3,x=0,w=0.4': (0.0845369368413426, 0.0025989132979816294, 0.0),
    'dividends_law_mean:two_point,b=2': (6.9245, 0.16254417916397387, 0.0),
    'bailout_value_reflected:four_point,b=5,x=2': (1.8676135655311714, 0.02617803316863946, 0.0),
    'doubly_dividends:four_point,b=4,x=2': (1.0003317445456728, 0.01565121370287963, 1.0),
    'doubly_bailouts:four_point,b=4,x=2': (1.4233613197032493, 0.03947953896935682, 1.0),
    'modified_value:four_point,b=5,x=2,k=1.2': (0.02407575586313216, 0.06081813911510347, 0.0),
    'doubly_value:four_point,b=4,x=2,k=1.2': (-0.7232171008771259, 0.059088316359969396, 1.0),
}
OUT_OF_BAND_PINS = {
    'passage_up:x0=level': (1.0, 0.0, 0.0),
    'two_sided_up:x0>level': (1.0, 0.0, 0.0),
    'deficit_gf:x0=-2': (0.49000000000000005, 2.4831550196201783e-18, 0.0),
    'resolvent:x0=-1': (0.0, 0.0, 0.0),
    'resolvent:x0=level': (0.0, 0.0, 0.0),
    'expected_deficit:x0=-3': (-3.0, 0.0, 0.0),
    'discounted_ruin:x0=-1': (1.0, 0.0, 0.0),
    'ruin_indicator:x0=-2': (1.0, 0.0, 0.0),
    'downcross_w:x0=level-1': (0.5, 0.0, 0.0),
    'downcross_w:x0<0': (0.0, 0.0, 0.0),
    'injection_mgf:x0>target': (1.0, 0.0, 0.0),
    'injection_mgf:x0=target': (1.0, 0.0, 0.0),
    'injection_mgf:x0<0': (0.08151486354628697, 0.0016284451118057156, 0.0),
    'dividends_pv:x0<0': (0.0, 0.0, 0.0),
    'dividends_pv:x0>b': (6.236877063559289, 0.048766199133094816, 0.0),
    'joint_deficit_dividends:x0<0': (0.49000000000000005, 2.4831550196201783e-18, 0.0),
    'joint_deficit_dividends:x0>b': (0.08477820807923882, 0.0015894761757536228, 0.0),
    'ruin_prob:x0<0': (1.0, 0.0, 0.0),
    'ruin_prob:x0>b': (1.0, 0.0, 0.0),
    'bailout_pv:x0<0': (2.0, 0.0, 0.0),
    'bailout_pv:x0>b': (1.4553516478639728, 0.01886001609948263, 0.0),
    'modified_value:x0<0': (-2.399999999999999, 1.9865240156961426e-17, 0.0),
    'modified_value:x0>b': (4.490455086122521, 0.06979590945826455, 0.0),
    'doubly_dividends:x0<0': (0.5472543390028698, 0.009435368424127608, 1.0),
    'doubly_dividends:x0>b': (5.128082648873402, 0.023429112977469878, 1.0),
    'doubly_bailouts:x0<0': (3.830975453306438, 0.04728232500705811, 1.0),
    'doubly_bailouts:x0>b': (1.0985961548820165, 0.02909830061772584, 1.0),
    'doubly_value:x0<0': (-4.049916204964856, 0.061487314854326534, 1.0),
    'doubly_value:x0>b': (3.8097672630149826, 0.05290035311854031, 1.0),
}


def _triple(est):
    return (est.mean, est.std_error, est.capped_fraction)


def test_pins_cover_every_case():
    assert set(REGISTRY_PINS) == {e.name for e in default_registry()}
    assert set(OUT_OF_BAND_PINS) == set(OUT_OF_BAND)


@pytest.mark.parametrize("stream", range(20))
def test_registry_estimate_is_pinned(stream):
    entry = default_registry()[stream]
    assert _triple(entry.estimate(SEED, N_PATHS, stream)) == REGISTRY_PINS[entry.name]


@pytest.mark.parametrize("label", sorted(OUT_OF_BAND))
def test_out_of_band_start_is_pinned(label):
    dist, x0, policy, spec, cap = OUT_OF_BAND[label]
    est = simulate(dist, x0, policy, spec, N_PATHS, SEED, cap)
    assert _triple(est) == OUT_OF_BAND_PINS[label]
