"""Bit-for-bit pins of the Monte Carlo simulator's output.

Each case records (mean, std_error, capped_fraction) exactly, so any
change to the draws, their order or the float operations on a path
shows up here. The registry pins cover every entry at its own stream;
the out-of-band pins start each policy outside its band, where the
start itself is a reflection or an absorption at t = 0; the modified
geometric pins draw claims from a geometric tail, with alpha > 0, with
alpha = 0 and with p_1 = 0.
"""

import pytest

from skipfree import FunctionalSpec, PolicySpec, modified_geometric, simulate, validate
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

# label -> (dist, x0, policy, functional)
MODGEOM = {}
for _law, _dist in (("alpha>0", modified_geometric(0.6, 0.24, 0.4)),
                    ("alpha=0", modified_geometric(0.5, 0.2, 0)),
                    ("p1=0", modified_geometric(0.7, 0, 0.55))):
    MODGEOM[f"{_law}:free"] = (_dist, 1, FREE, FunctionalSpec("deficit_gf", v=0.9, w=0.7, level=5))
    MODGEOM[f"{_law}:reflect_upper"] = (
        _dist, 2, UPPER, FunctionalSpec("modified_value", v=0.9, k=1.2))

SEED, N_PATHS = 42, 2000

# (mean, std_error, capped_fraction) at SEED and N_PATHS
REGISTRY_PINS = {
    'passage_up:three_point,v=0.9,b=3': (0.5477161161940862, 0.004192229838224933, 0.0),
    'two_sided_up:three_point,x=2,N=6': (0.40822514279063804, 0.0043403835678718075, 0.0),
    'deficit_gf:three_point,x=1,b=5,w=0.7': (0.10124941295129829, 0.004769796396227405, 0.0),
    'expected_deficit:four_point,x=0,b=5': (-1.5386858828124772, 0.04141151517949965, 0.0),
    'discounted_ruin:heavy,x=2': (0.579631610645044, 0.005174085164019638, 0.0),
    'eventual_ruin:three_point,x=0': (0.3385, 0.010583708350158778, 0.0),
    'discounted_ruin_gf:heavy,x=2,w=0.6': (0.21635648140330152, 0.002636317515691438, 0.0),
    'finite_time_ruin:three_point,x=1,n=12': (0.206, 0.00904560177410701, 0.794),
    'killed_resolvent:two_point,i=1,j=2,N=4': (0.9277662628041066, 0.008110054991815233, 0.0),
    'w_at_downcrossing:two_point,x=2,b=1,N=4': (0.07368896571198359, 0.005740286959161061, 0.0),
    'definetti_value:two_point,b=2,x=2': (7.046871052514787, 0.04364241580805845, 0.0805),
    'injections_mgf:four_point,x=0,b=4,w=0.5': (0.5481334140288188, 0.01042078857528777, 0.0),
    'joint_dividends_deficit:two_point,b=2,x=1,w=0.7,z=0.9': (0.06941221617339367, 0.003901997004481378, 0.0785),
    'reflected_ruin_gf:four_point,b=3,x=0,w=0.4': (0.08404495893582503, 0.002570678882540196, 0.0),
    'dividends_law_mean:two_point,b=2': (6.92, 0.1613871832316796, 0.932),
    'bailout_value_reflected:four_point,b=5,x=2': (1.804295153989217, 0.02537998986781308, 0.0),
    'modified_value:four_point,b=5,x=2,k=1.2': (0.1294286875280343, 0.06113363701121384, 0.0),
    'doubly_dividends:four_point,b=4,x=2': (1.002014362959724, 0.015963570715809373, 1.0),
    'doubly_bailouts:four_point,b=4,x=2': (1.4380385333569872, 0.0390684852964897, 1.0),
    'doubly_value:four_point,b=4,x=2,k=1.2': (-0.7236318770686604, 0.058021469457043055, 1.0),
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
    'injection_mgf:x0<0': (0.0814082736308498, 0.0016395426777263632, 0.0),
    'dividends_pv:x0<0': (0.0, 0.0, 0.0),
    'dividends_pv:x0>b': (6.266625565308471, 0.04951112738343487, 0.0),
    'joint_deficit_dividends:x0<0': (0.49000000000000005, 2.4831550196201783e-18, 0.0),
    'joint_deficit_dividends:x0>b': (0.08452324238069946, 0.001631543529858425, 0.0),
    'ruin_prob:x0<0': (1.0, 0.0, 0.0),
    'ruin_prob:x0>b': (1.0, 0.0, 0.0),
    'bailout_pv:x0<0': (2.0, 0.0, 0.0),
    'bailout_pv:x0>b': (1.428286215677792, 0.01914726756050689, 0.0),
    'modified_value:x0<0': (-2.399999999999999, 1.9865240156961426e-17, 0.0),
    'modified_value:x0>b': (4.552682106495122, 0.0708878068752789, 0.0),
    'doubly_dividends:x0<0': (0.5374274335092346, 0.009110553414930877, 1.0),
    'doubly_dividends:x0>b': (5.1247209673286065, 0.023212069742370143, 1.0),
    'doubly_bailouts:x0<0': (3.848897597752779, 0.049420731162076695, 1.0),
    'doubly_bailouts:x0>b': (1.1174848599996912, 0.030333078565587056, 1.0),
    'doubly_value:x0<0': (-4.081249683794101, 0.06367549829345025, 1.0),
    'doubly_value:x0>b': (3.783739135328977, 0.05460018615678987, 1.0),
}

MODGEOM_PINS = {
    'alpha>0:free': (0.09387486607619772, 0.004144056742582062, 0.0),
    'alpha>0:reflect_upper': (2.3340473749910573, 0.047335122166568516, 0.003),
    'alpha=0:free': (0.12445443951073491, 0.004575957533578141, 0.0),
    'alpha=0:reflect_upper': (1.6360648279578314, 0.032211116247116596, 0.0145),
    'p1=0:free': (0.1996690369187001, 0.004995145684249759, 0.0),
    'p1=0:reflect_upper': (0.6800571037711772, 0.05920760466658348, 0.0),
}


def _triple(est):
    return (est.mean, est.std_error, est.capped_fraction)


def test_pins_cover_every_case():
    assert set(REGISTRY_PINS) == {e.name for e in default_registry()}
    assert set(OUT_OF_BAND_PINS) == set(OUT_OF_BAND)
    assert set(MODGEOM_PINS) == set(MODGEOM)


@pytest.mark.parametrize("stream", range(20))
def test_registry_estimate_is_pinned(stream):
    entry = default_registry()[stream]
    assert _triple(entry.estimate(SEED, N_PATHS, stream)) == REGISTRY_PINS[entry.name]


@pytest.mark.parametrize("label", sorted(OUT_OF_BAND))
def test_out_of_band_start_is_pinned(label):
    dist, x0, policy, spec, cap = OUT_OF_BAND[label]
    est = simulate(dist, x0, policy, spec, N_PATHS, SEED, cap)
    assert _triple(est) == OUT_OF_BAND_PINS[label]


@pytest.mark.parametrize("label", sorted(MODGEOM))
def test_modified_geometric_law_is_pinned(label):
    dist, x0, policy, spec = MODGEOM[label]
    assert _triple(simulate(dist, x0, policy, spec, N_PATHS, SEED)) == MODGEOM_PINS[label]
