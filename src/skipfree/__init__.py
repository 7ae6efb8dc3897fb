"""Scale functions and exit problems for upwards skip-free random walks.

The surplus chain moves up by at most one unit per period and down by
an integer claim amount. Everything downstream of that structure is
computable from two families of scale functions, tabulated here by
exact recursions: first-passage and exit probabilities, discounted
ruin and deficit transforms, dividend barrier values and their
optimization, capital injections, and reflected variants. A Monte
Carlo module cross-checks the analytic answers path by path, and an
embedding module reads the tables as scale functions of a lattice
Levy process.

Every public name is read from the package root, and each submodule
under its own name, but ``import skipfree`` loads none of them: the
first read of a name imports the submodule that defines it (PEP 562)
and keeps the object here, so later reads are plain lookups.
"""

import importlib

__version__ = "1.0.0"

# submodule -> the public names it defines, each read from the root
_EXPORTS = {
    "dividends": (
        "BarrierResult", "bailout_value_reflected", "definetti_value",
        "dividends_law_at_barrier", "dividends_law_pgf", "doubly_reflected_influence",
        "doubly_reflected_influence_affine", "doubly_reflected_value",
        "doubly_reflected_values", "injections_mgf", "joint_dividends_deficit",
        "modified_definetti_influence", "modified_definetti_value",
        "multiband_diagnostics", "optimize_barrier", "reflected_ruin_gf",
    ),
    "embedding": ("LevyChainParams", "laplace_exponent", "phi_q", "wq", "zq"),
    "errors": (
        "Degenerate", "DomainError", "InvalidFunctional", "NoConvergence",
        "NonPositiveP0", "NotADistribution", "OutOfTable", "OverflowSignal",
        "SkipfreeError", "WrongKind",
    ),
    "golden": ("run_golden_checks",),
    "lundberg": ("phi", "upcrossing_pmf"),
    "mc": (
        "FunctionalSpec", "MCEstimate", "PolicySpec", "default_horizon_cap",
        "default_registry", "dividend_count_samples", "geometric_law_chisquare",
        "run_dividends_chisquare", "run_registry", "simulate",
    ),
    "model": ("ClaimDistribution", "DiscountedModel", "from_jsonable",
              "modified_geometric", "validate"),
    "passage": (
        "RuinDP", "deficit_gf", "discounted_ruin", "discounted_ruin_gf", "eventual_ruin",
        "eventual_survival_transform", "expected_deficit", "expected_stopped_w",
        "expected_stopped_z", "finite_time_ruin", "killed_resolvent", "ruin_double_transform",
        "ruin_limit_ratio", "survival_double_transform", "two_sided_up", "upcrossing_price",
        "w_at_downcrossing",
    ),
    "scale": ("ScaleTable", "asymptotic_constant", "w_table"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a submodule binds it here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_HOME})
