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
    "W": "8c075697bf7478f0a74a897192ac2b461267dd34b68827b2a55546dde6fd13b8",
    "Z": "46d2b532613b0640a946caf269acf6cbc0acc8f3e52d18f37d7e648204358e7c",
    "Z(.,0.3)": "43ff763bdef622051a1a5d3de3ed04dd57e8820567caf1af6c83bd4c22f188d1",
    "Z(.,0.7)": "49eade357af6a0775d3972ba78fc34b72237fd9d0b12c424e3eb000e0088ad8a",
    "Z1": "6f713d77150695bbb52dfda401f28325dfd2872094e7fec63016217d5715aebe",
    "dW": "89861b3a7f5049f88c4a6370ef92716bfa2bd32af0e4de980c49aebcedb9eb02",
    "definetti": "fa1aa64d88bade2a8ded4c22b67ee3d6c893d5edb198abe85d0a2963d64db76b",
    "definetti rescaled": "04aa30b9e1e6dffb2385193a40ea37ac899a19c3a4da54e38c978abf4ecf454d",
    "doubly_reflected": "5edf8e61f8658459dde7f0af094278859e466066cbdd6e738b8e8c820559706c",
    "modified_definetti": "2eb273d918e910929ac60042b35bd6c885acf73ec45f0571bacfa61e7f5e1bde",
    "rescaled": "b0454f92bd17411365b277b1c5091ccaf14b05e3d95c0581ba701fe6dc10c770",
    "rescaled accessors": "70613414847db1565b28c959ca59128755b54e553780f24c36a5e30021f68fb7",
    "tilted": "3db2a5a6b6c84b9057c185020ea476afcb92a44e33da69b9c364350ce2ef69c3",
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
