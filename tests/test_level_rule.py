"""One rule for every integer argument and one for every real argument of
every public function, and for the fields of the four input dataclasses.

The grid is generated from skipfree.__all__, the public methods of
ClaimDistribution and inspect.signature, so a new public function or method
is covered without editing this file; the golden battery's oracles and the
tests' Lagrange series, which are not public, are listed by name. Each
parameter whose annotation names int:

- refuses a value that is not an integer (a float, 4.0 and nan too, a bool, a
  str, None where None is not the default) with a SkipfreeError, before any work;
- at -1 raises the DomainError BELOW names for it, or else goes on as with any
  other integer (a negative-start convention, or a seed);
- takes each numpy integer type as the Python int it equals, bit for bit.

Each parameter whose annotation names float refuses nan, +-inf, a bool, a str,
None and an array with a SkipfreeError, before any work, and gives for a numpy
float, an int or a Fraction the outcome of the Python float it equals, bit for
bit. The real and integer init fields of DiscountedModel, LevyChainParams,
PolicySpec and FunctionalSpec follow the same rules and keep the float or int
they equal.

Everything runs under warnings as errors, so a numpy warning fails a call.
"""

import dataclasses
import hashlib
import inspect
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

import exact_reference
import skipfree
from skipfree import (ClaimDistribution, DiscountedModel, DomainError, FunctionalSpec,
                      LevyChainParams, PolicySpec, ScaleTable, SkipfreeError, modified_geometric,
                      w_table)
from skipfree import embedding, golden, lundberg, mc, passage, scale
from skipfree.golden import three_point_model

DIST = three_point_model()
TABLE = w_table(DiscountedModel(DIST, 0.9), 20)

# a value every public function accepts, by parameter name
GOOD = {
    "dist": DIST, "model": TABLE.model, "table": TABLE, "params": LevyChainParams(2.0, 0.5, DIST),
    "policy": PolicySpec("free"), "functional": FunctionalSpec("discounted_ruin", v=0.9),
    "objective": "definetti", "rescaled": False,
    "v": 0.9, "w": 0.5, "z": 0.5, "t": 0.5, "f": 0.6, "k": 1.2, "q": 0.4, "beta": 0.7, "theta": 0.4,
    "counts": np.array([0, 1, 0, 2, 1, 0, 3, 0, 1, 0] * 12),
    "x": 2, "b": 3, "upper": 6, "i": 1, "j": 2, "n": 3, "m": 3, "x_max": 8, "b_max": 8,
    "n_max": 5, "x0": 2, "n_paths": 20, "seed": 1, "stream": 0, "horizon_cap": 30,
}
# where a function needs another value than GOOD's
OVERRIDES = {"eventual_ruin": {"table": w_table(DiscountedModel(DIST, 1.0), 20)},
             **{f"ClaimDistribution.{name}": {"k": 2} for name in ("p", "tail")},
             "run_dividends_chisquare": {"n_paths": 120},
             "root_pair": {"dist": modified_geometric(0.6, 0.24, 0.4)}}

# (function, parameter) -> the message of the DomainError at -1; every other
# integer parameter takes -1
BELOW = {
    **{(name, "b"): "barrier must be nonnegative" for name in (
        "bailout_value_reflected", "definetti_value", "dividends_law_at_barrier",
        "dividends_law_pgf", "doubly_reflected_influence_affine", "doubly_reflected_values",
        "joint_dividends_deficit", "reflected_ruin_gf")},
    **{(name, "b"): "difference index must be nonnegative" for name in (
        "doubly_reflected_influence", "doubly_reflected_value", "modified_definetti_influence",
        "modified_definetti_value")},
    **{(name, "b"): "upper barrier must be nonnegative" for name in (
        "deficit_gf", "expected_deficit")},
    ("two_sided_up", "upper"): "upper barrier must be nonnegative",
    ("injections_mgf", "b"): "target level must be nonnegative",
    ("upcrossing_pmf", "b"): "target level must be nonnegative",
    ("w_at_downcrossing", "b"): "crossing level must be nonnegative",
    ("killed_resolvent", "upper"): "upper must lie inside the table",
    ("dividend_count_samples", "b"): "barrier and start must be nonnegative",
    ("dividend_count_samples", "x0"): "barrier and start must be nonnegative",
    ("finite_time_ruin", "n"): "n and x_max must be nonnegative",
    ("finite_time_ruin", "x_max"): "n and x_max must be nonnegative",
    ("expected_stopped_w", "n"): "horizon must be nonnegative",
    ("expected_stopped_z", "n"): "horizon must be nonnegative",
    ("w_determinant_oracle", "n"): "determinant oracle supports 1 <= n <= 12",
    ("wq", "m"): "lattice index must be nonnegative",
    ("zq", "m"): "lattice index must be nonnegative",
    **{(name, "n_max"): "n_max must be nonnegative" for name in (
        "lagrange_series", "upcrossing_pmf")},
    **{(name, "b_max"): "b_max must be nonnegative" for name in (
        "multiband_diagnostics", "optimize_barrier")},
    **{(name, "x_max"): "x_max must be nonnegative" for name in (
        "gf_residual", "w_table", "z_gf_residual")},
    **{(name, "n_paths"): "n_paths must be at least 1" for name in (
        "dividend_count_samples", "run_dividends_chisquare", "run_registry", "simulate")},
    ("simulate", "horizon_cap"): "horizon_cap must be at least 1",
    ("ClaimDistribution.pmf_upto", "n"): "n must be nonnegative",
}

NOT_INTEGERS = (2.5, 4.0, np.float64(4.0), True, np.True_, math.nan, "3", None)
DTYPES = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)


def _params(fn, kind):
    return [p for p in inspect.signature(fn).parameters.values()
            if kind in re.findall(r"\w+", str(p.annotation))]


FUNCTIONS = {name: getattr(skipfree, name) for name in skipfree.__all__
             if inspect.isfunction(getattr(skipfree, name))}
# the oracles that check the public functions, by their homes
FUNCTIONS.update({name: getattr(golden, name) for name in (
    "dickson_hipp_z", "gf_residual", "root_pair", "w_determinant_oracle", "z_gf_residual")})
FUNCTIONS["lagrange_series"] = exact_reference.lagrange_series
# the public methods of ClaimDistribution, bound to DIST, and the pgf's divided difference
FUNCTIONS.update({f"ClaimDistribution.{name}": getattr(DIST, name)
                  for name, _ in inspect.getmembers(ClaimDistribution, inspect.isfunction)
                  if not name.startswith("_") or name == "_pgf_slope"})
PAIRS = [(name, p.name) for name, fn in FUNCTIONS.items() for p in _params(fn, "int")]
REAL_PAIRS = [(name, p.name) for name, fn in FUNCTIONS.items() for p in _params(fn, "float")]


class WorkRan(Exception):
    """Raised in place of the work a call does once its arguments are checked."""


@pytest.fixture
def no_work(monkeypatch):
    """Stand WorkRan in for every table build, DP, kernel and series; a series
    starts from its law's dense pmf."""
    def work(*args, **kwargs):
        raise WorkRan

    for module, name in ((scale, "_recur"), (scale, "_w_array_alt"), (passage, "_stopped_dp"),
                         (passage, "_ruin_rows"), (mc, "_run"), (mc, "default_registry"),
                         (ClaimDistribution, "pmf_upto"), (lundberg, "_newton"),
                         (embedding, "_chain_table")):
        monkeypatch.setattr(module, name, work)


def _call(name, param, value):
    args = {**GOOD, **OVERRIDES.get(name, {}), param: value}
    fn = FUNCTIONS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fn(*(args[p] for p in inspect.signature(fn).parameters))


def _canon(out) -> str:
    """A result as text, floats by their bits and arrays by their bytes."""
    if isinstance(out, (float, np.floating)):
        return f"{type(out).__name__} {float(out).hex()}"
    if isinstance(out, np.ndarray):
        return f"ndarray {out.dtype} {out.shape} {hashlib.sha256(out.tobytes()).hexdigest()}"
    if isinstance(out, ScaleTable):
        return f"ScaleTable {_canon(out.x_max)} {out.rescaled} {_canon(out.tilted_w_array())}"
    if dataclasses.is_dataclass(out):
        return type(out).__name__ + _canon(dataclasses.astuple(out))
    if isinstance(out, dict):
        return _canon(sorted(out.items()))
    if isinstance(out, (list, tuple)):
        return "(" + ", ".join(map(_canon, out)) + ")"
    return f"{type(out).__name__} {out!r}"


def _outcome(name, param, value) -> str:
    try:
        return _canon(_call(name, param, value))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def test_the_grid_covers_every_level_argument():
    assert len(PAIRS) >= 73 and set(BELOW) <= set(PAIRS)


@pytest.mark.parametrize("name, param", PAIRS)
def test_a_value_that_is_not_an_integer_is_refused_before_the_work(no_work, name, param):
    optional = inspect.signature(FUNCTIONS[name]).parameters[param].default is None
    for value in NOT_INTEGERS:
        if value is None and optional:
            continue
        with pytest.raises(SkipfreeError):
            _call(name, param, value)


@pytest.mark.parametrize("name, param", PAIRS)
def test_a_value_below_the_bound_keeps_its_message(no_work, name, param):
    if (name, param) in BELOW:
        with pytest.raises(DomainError) as info:
            _call(name, param, -1)
        assert str(info.value) == BELOW[name, param]
    else:
        # a convention gives a value; a seed, or a start the kernel absorbs, goes on to the work
        try:
            _call(name, param, -1)
        except WorkRan:
            pass


@pytest.mark.parametrize("name, param", PAIRS)
def test_numpy_integers_give_the_python_int_outcome(name, param):
    value = {**GOOD, **OVERRIDES.get(name, {})}[param]
    want = _outcome(name, param, value)
    assert not want.startswith(("DomainError", "TypeError")), want
    for kind in DTYPES:
        assert _outcome(name, param, kind(value)) == want, kind


NOT_REALS = (math.nan, math.inf, -math.inf, True, np.True_, "0.5", None, np.array([0.5]))


def test_the_grid_covers_every_real_argument():
    assert len(REAL_PAIRS) >= 33


@pytest.mark.parametrize("name, param", REAL_PAIRS)
def test_a_value_that_is_not_real_is_refused_before_the_work(no_work, name, param):
    optional = inspect.signature(FUNCTIONS[name]).parameters[param].default is None
    for value in NOT_REALS:
        if value is None and optional:
            continue
        with pytest.raises(SkipfreeError):
            _call(name, param, value)


@pytest.mark.parametrize("name, param", REAL_PAIRS)
def test_nan_gets_the_message_of_a_value_below_the_interval(no_work, name, param):
    below = _outcome(name, param, -1.0)
    assert below.startswith("DomainError: ") and "real number" not in below, below
    assert _outcome(name, param, math.nan) == below.replace("-1.0", "nan")


def _as_reals(value):
    """value as an np.float64, an np.float32, a Fraction and the ints next to it."""
    return (np.float64(value), np.float32(value), Fraction(value), math.floor(value),
            math.ceil(value))


@pytest.mark.parametrize("name, param", REAL_PAIRS)
def test_reals_give_the_python_float_outcome(name, param):
    value = {**GOOD, **OVERRIDES.get(name, {})}[param]
    assert not _outcome(name, param, value).startswith(("DomainError", "TypeError"))
    for real in _as_reals(value):
        assert _outcome(name, param, real) == _outcome(name, param, float(real)), repr(real)


# each input dataclass with a value every init field takes
DATACLASSES = {
    DiscountedModel: {"dist": DIST, "v": 0.9},
    LevyChainParams: {"gamma": 2.0, "h": 0.5, "dist": DIST},
    PolicySpec: {"kind": "reflect_upper", "b": 3},
    FunctionalSpec: {"kind": "modified_value", "v": 0.9, "w": 0.5, "z": 0.5, "k": 1.2,
                     "level": 4, "upper": 6, "target_state": 2},
}
FIELDS = [(cls, field.name, re.match(r"\w+", field.type)[0])
          for cls in DATACLASSES for field in dataclasses.fields(cls)
          if field.init and re.fullmatch(r"(float|int)( \| None)?", field.type)]


def _make(cls, name, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return cls(**{**DATACLASSES[cls], name: value})


def _made(cls, name, value) -> str:
    """The object made with name = value as text, with the class of that field, or the error."""
    try:
        made = _make(cls, name, value)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return f"{getattr(made, name).__class__.__name__} {_canon(made)}"


def test_the_grid_covers_every_real_and_integer_field():
    assert {(cls.__name__, name) for cls, name, _ in FIELDS} == {
        ("DiscountedModel", "v"), ("LevyChainParams", "gamma"), ("LevyChainParams", "h"),
        ("PolicySpec", "b"), *(("FunctionalSpec", name) for name in (
            "v", "w", "z", "k", "level", "upper", "target_state"))}


@pytest.mark.parametrize("cls, name, kind", FIELDS)
def test_a_field_that_is_not_its_kind_is_refused_before_the_work(no_work, cls, name, kind):
    optional = cls.__dataclass_fields__[name].default is None
    for value in NOT_REALS + (NOT_INTEGERS if kind == "int" else ()):
        if value is None and optional:
            continue
        with pytest.raises(SkipfreeError):
            _make(cls, name, value)


@pytest.mark.parametrize("cls, name, kind", FIELDS)
def test_a_field_keeps_the_python_number_it_equals(cls, name, kind):
    value = DATACLASSES[cls][name]
    cast = int if kind == "int" else float
    assert _made(cls, name, value).startswith(cast.__name__)
    for other in (tuple(t(value) for t in DTYPES) if kind == "int" else _as_reals(value)):
        assert _made(cls, name, other) == _made(cls, name, cast(other)), repr(other)
