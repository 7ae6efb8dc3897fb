"""The package root: every public name and submodule reads from it, and
`import skipfree` itself loads none of them until a name is read.

Each check runs in a fresh interpreter, since the test session has long
loaded every submodule.
"""

import json

import child

import skipfree

SUBMODULES = ("dividends", "embedding", "errors", "golden", "lundberg", "mc", "model",
              "passage", "scale")

# the 78 names __all__ listed when the root imported every submodule, less the alias
# optimize_definetti and ruin_limit_ratio_series, which are gone
PUBLIC = (
    "BarrierResult", "ClaimDistribution", "Degenerate", "DiscountedModel", "DomainError",
    "FunctionalSpec", "InvalidFunctional", "LevyChainParams", "MCEstimate", "NoConvergence",
    "NonPositiveP0", "NotADistribution", "OutOfTable", "OverflowSignal", "PolicySpec",
    "RootPair", "RuinDP", "ScaleTable", "SkipfreeError", "WrongKind", "asymptotic_constant",
    "bailout_value_reflected", "deficit_gf", "definetti_value", "default_horizon_cap",
    "default_registry", "dickson_hipp_z", "discounted_ruin", "discounted_ruin_gf",
    "dividend_count_samples", "dividends_law_at_barrier", "dividends_law_pgf",
    "doubly_reflected_influence", "doubly_reflected_influence_affine",
    "doubly_reflected_value", "doubly_reflected_values", "eventual_ruin",
    "eventual_survival_transform", "expected_deficit", "expected_stopped_w",
    "expected_stopped_z", "finite_time_ruin", "from_jsonable", "geometric_law_chisquare",
    "gf_residual", "injections_mgf", "joint_dividends_deficit", "killed_resolvent",
    "lagrange_series", "laplace_exponent", "modified_definetti_influence",
    "modified_definetti_value", "modified_geometric", "multiband_diagnostics",
    "optimize_barrier", "phi", "phi_q", "reflected_ruin_gf", "root_pair",
    "ruin_double_transform", "ruin_limit_ratio",
    "run_dividends_chisquare", "run_golden_checks", "run_registry", "simulate",
    "survival_double_transform", "two_sided_up", "upcrossing_price", "upcrossing_pmf",
    "validate", "w_at_downcrossing", "w_determinant_oracle", "w_table", "wq",
    "z_gf_residual", "zq",
)

_LOADED = "sorted(m for m in sys.modules if m == 'numpy' or m.startswith('skipfree.'))"


def _python(code, *flags):
    """stdout of code in a fresh interpreter, parsed as JSON; fails on a non-zero exit."""
    out = child.run(*flags, "-c", code)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_bare_import_loads_no_submodule_and_no_numpy():
    assert _python(f"import json, sys, skipfree\nprint(json.dumps({_LOADED}))") == []


def test_a_table_build_loads_only_its_layers():
    code = ("import json, sys\n"
            "from skipfree import DiscountedModel, validate, w_table\n"
            "w_table(DiscountedModel(validate(['2/3', '2/9', '0', '1/9']), 0.9), 50)\n"
            f"print(json.dumps({_LOADED}))")
    assert _python(code) == ["numpy", "skipfree.errors", "skipfree.lundberg", "skipfree.model",
                             "skipfree.scale"]


def test_every_public_name_is_its_defining_module_object():
    assert sorted(skipfree.__all__) == sorted(PUBLIC) and len(set(PUBLIC)) == 76
    code = ("import importlib, json, skipfree\n"
            "print(json.dumps([n for n in skipfree.__all__ if getattr(skipfree, n) is not\n"
            "    getattr(importlib.import_module(getattr(skipfree, n).__module__), n)]))")
    assert _python(code) == []


def test_star_import_submodules_and_unknown_names():
    code = ("import json, skipfree\n"
            "before = [hasattr(skipfree, m) for m in ('cli', 'nonexistent', 'OBJECTIVES')]\n"
            f"mods = [getattr(skipfree, m).__name__ for m in {SUBMODULES!r}]\n"
            "from skipfree import *\n"
            "print(json.dumps([before, mods, sorted(set(skipfree.__all__) - set(globals())),\n"
            "    sorted(set(skipfree.__all__) - set(dir(skipfree)))]))")
    before, mods, missing, undir = _python(code, "-W", "error")
    assert before == [False, False, False]
    assert mods == [f"skipfree.{m}" for m in SUBMODULES]
    assert missing == [] and undir == []
