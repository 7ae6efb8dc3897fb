"""Bit-for-bit pins of the scale tables and the barrier scans built on them.

Each pin is a SHA-256 digest over one quantity in every case: three laws,
v in {0.8, 0.999, 1} and x_max in {2, 400}. x_max = 2 lies below the
four-point law's largest claim, so the short tables pass through the
same code as the long ones with the claim law cut off. A case that
raises records the error's class name instead of the values, so a
change in which cases fail also shows up here.
"""

import hashlib

import numpy as np
import pytest

from skipfree import DiscountedModel, SkipfreeError, modified_geometric, validate, w_table
from skipfree.dividends import optimize_barrier

LAWS = {
    "three_point": validate(["2/3", "2/9", "0", "1/9"]),
    "four_point": validate(["3/4", "1/20", "1/10", "0", "0", "0", "0", "1/10"]),
    "modified_geometric": modified_geometric(p0=0.6, p1=0.24, alpha=0.4),
}
CASES = [(law, v, n) for law in LAWS for v in (0.8, 0.999, 1.0) for n in (2, 400)]


def _scan(table, objective, n):
    r = optimize_barrier(table, objective, 1.2, 1, n - 2)
    return [r.b_star, r.value, r.attained, *r.ties, *(h for _, h in r.trace)]


# quantity -> values on (plain table t, rescaled table r, x_max n)
QUANTITIES = {
    "W": lambda t, r, n: [t.w(x) for x in range(n + 1)],
    "dW": lambda t, r, n: [t.dw(b) for b in range(n)],
    "Z": lambda t, r, n: [t.z(x) for x in range(n + 1)],
    "Z1": lambda t, r, n: [t.z1(x) for x in range(n + 1)],
    "Z(.,0.3)": lambda t, r, n: t.zw_array(0.3),
    "Z(.,0.7)": lambda t, r, n: t.zw_array(0.7),
    "tilted": lambda t, r, n: t.tilted_w_array(),
    "rescaled": lambda t, r, n: r.tilted_w_array(),
    "rescaled accessors": lambda t, r, n: (
        [r.w(x) for x in range(n + 1)] + [r.dw(b) for b in range(n)]
        + [r.w_ratio(x, n) for x in range(n + 1)]
    ),
    "definetti": lambda t, r, n: _scan(t, "definetti", n),
    "definetti rescaled": lambda t, r, n: _scan(r, "definetti", n),
    "modified_definetti": lambda t, r, n: _scan(t, "modified_definetti", n),
    "doubly_reflected": lambda t, r, n: _scan(t, "doubly_reflected", n),
}

PINS = {
    "W": "b2072cba800dee285f86f1c557c05155cfd0acef5268b2a28d5e9c67b556f955",
    "Z": "a99648e16810f63c05fcd202efd8e0ab0b8fd4715c521e1c3e51273e1565779c",
    "Z(.,0.3)": "3b9424081c025b9dda999b9818bec7800ef2076ab78e78fece4ca3b464e8bd61",
    "Z(.,0.7)": "9beefa5a4442edd761003460e91ab5e59e0b00fed1d4e8c3a1e91c084a870a6e",
    "Z1": "c2d9d2f2aa7feec7a0c6f85eda924464f327b30f8c07767ba6fd708460119ca8",
    "dW": "b9d789fd908af4e7a8aa6b72b2455e03f8487a45d426efc43c57fbed9c6155b3",
    "definetti": "cc239b788def074334573d68d29ebbfb8885933f5021f0e42a894cade4903ded",
    "definetti rescaled": "8a74911088973d9449158a5111aa3607557d1545c99dc4036217b6e186997465",
    "doubly_reflected": "4a7f1734f40a4a0c515b1f62eb7ad413dcb9bf6006a6d4bc58f39ef7315b437d",
    "modified_definetti": "2c187db08fb11623bc011cb6d51f4c7a1dda78c31b8461944d07d2df3e8dc9a8",
    "rescaled": "69cab66c29b1763f4fcac1abfe54680b63bb4b3149fe75ea2b318e3f1c83b55f",
    "rescaled accessors": "e69bc4bfffb46b5adcfb453c7b4db5107b70767bbec7afca7434913401036670",
    "tilted": "4c44e0d10a398d070662499dd96eb57e9e44df64a34df3108c94e95daf793361",
}


def _digest(quantity):
    parts = []
    for law, v, n in CASES:
        model = DiscountedModel(LAWS[law], v)
        try:
            vals = QUANTITIES[quantity](
                w_table(model, n), w_table(model, n, rescaled=True), n)
        except SkipfreeError as exc:
            parts.append(type(exc).__name__)
            continue
        parts.append(hashlib.sha256(np.asarray(vals, dtype=float).tobytes()).hexdigest())
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


@pytest.mark.parametrize("quantity", sorted(QUANTITIES))
def test_scale_pin(quantity):
    assert _digest(quantity) == PINS[quantity]
