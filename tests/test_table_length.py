"""Every per-level function of passage and dividends reads the levels it is
given and no deeper: on the shortest table it accepts, which holds just the
levels it reads, it gives the bits it gives on a 400-level table.

The functions are generated from skipfree.__all__ and inspect.signature:
each public function of the two modules whose first parameter is a table and
which takes an integer level. Each runs on the golden laws at three discounts
and two sets of levels, one below its barrier and one above.
"""

import dataclasses
import functools
import inspect
import re

import pytest

import skipfree
from skipfree import DiscountedModel, OutOfTable, w_table
from skipfree.golden import four_point_model, three_point_model, two_point_model

LAWS = {"three_point": three_point_model(), "two_point": two_point_model(),
        "four_point": four_point_model()}
VS = (0.9, 0.999, 1.0)
DEEP = 400
# the real and string arguments, then two sets of levels
FIXED = {"w": 0.7, "z": 0.9, "t": 0.5, "k": 1.2, "objective": "doubly_reflected"}
LEVELS = ({"x": 2, "b": 6, "upper": 6, "i": 1, "j": 2, "n": 3, "b_max": 8},
          {"x": 7, "b": 3, "upper": 4, "i": 3, "j": 0, "n": 0, "b_max": 3})


def _per_level(fn) -> bool:
    params = list(inspect.signature(fn).parameters.values())
    return (fn.__module__ in ("skipfree.passage", "skipfree.dividends")
            and params[0].name == "table"
            and any("int" in re.findall(r"\w+", str(p.annotation)) for p in params))


FUNCTIONS = {name: getattr(skipfree, name) for name in skipfree.__all__
             if inspect.isfunction(getattr(skipfree, name)) and _per_level(getattr(skipfree, name))}


@functools.cache
def _table(law, v, x_max):
    return w_table(DiscountedModel(LAWS[law], v), x_max)


def _canon(out) -> str:
    """A result as text, floats by their bits."""
    if isinstance(out, float):
        return f"float {out.hex()}"
    if dataclasses.is_dataclass(out):
        return type(out).__name__ + _canon(dataclasses.astuple(out))
    if isinstance(out, (list, tuple)):
        return "(" + ", ".join(map(_canon, out)) + ")"
    return f"{type(out).__name__} {out!r}"


def _outcome(fn, table, args) -> str:
    try:
        return _canon(fn(table, *args))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def _too_short(outcome: str) -> bool:
    return outcome.startswith(OutOfTable.__name__) or "inside the table" in outcome


def test_the_list_covers_the_sweep_and_the_ruin_family():
    assert {"discounted_ruin_gf", "discounted_ruin", "deficit_gf", "two_sided_up",
            "definetti_value", "optimize_barrier", "killed_resolvent"} <= set(FUNCTIONS)
    assert len(FUNCTIONS) >= 25


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_the_shortest_table_gives_the_deep_tables_bits(name):
    fn = FUNCTIONS[name]
    params = list(inspect.signature(fn).parameters)[1:]
    for law in LAWS:
        for v in VS:
            for levels in LEVELS:
                args = [{**FIXED, **levels}[p] for p in params]
                want = _outcome(fn, _table(law, v, DEEP), args)
                assert not _too_short(want), want
                short = next(n for n in range(DEEP)
                             if not _too_short(_outcome(fn, _table(law, v, n), args)))
                got = _outcome(fn, _table(law, v, short), args)
                assert got == want, (law, v, levels, short)
