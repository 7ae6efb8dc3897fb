"""The golden battery's verdict rule: the largest error decides, and a NaN fails."""

import math

import numpy as np
import pytest

from skipfree import golden

NAN, INF = math.nan, math.inf


def _nan(*args, **kwargs):
    return NAN


def _nan_column(model, n):
    return np.full(n + 1, NAN)


# check -> (owner of the oracle, its name there, a stand-in returning NaN)
ORACLES = {
    "dickson_hipp": (golden, "dickson_hipp_z", _nan),
    "determinant_oracle": (golden, "w_determinant_oracle", _nan_column),
    "martingale_w": (golden.passage, "expected_stopped_w", _nan),
    "gf_residuals": (golden, "gf_residual", _nan),
}


@pytest.mark.parametrize("check", sorted(ORACLES))
def test_nan_from_an_oracle_fails_its_check(check, monkeypatch):
    owner, name, stand_in = ORACLES[check]
    monkeypatch.setattr(owner, name, stand_in)
    passed, detail = getattr(golden, f"_check_{check}")()
    assert not passed
    assert "nan" in detail


@pytest.mark.parametrize("errs", [
    [NAN, 1e-12, 2e-12],
    [1e-12, NAN, 2e-12],
    [1e-12, 2e-12, NAN],
    [np.array([1e-12, 2e-12]), np.array([3e-13, NAN])],
])
def test_within_fails_on_nan_wherever_it_stands(errs):
    assert golden._within("max rel err", "1e-10", errs) == (
        False, "max rel err nan (tol 1e-10)")


def test_within_fails_on_inf():
    assert golden._within("max abs err", "1e-9", [0.0, INF, 1e-12]) == (
        False, "max abs err inf (tol 1e-9)")


def test_within_takes_the_largest_of_finite_errors():
    errs = [3e-13, 7.5e-11, 0.0, 2e-12]
    assert golden._worst(iter(errs)) == max(errs)
    assert golden._worst([np.array(errs[:2]), errs[2], np.array(errs[3:])]) == max(errs)
    assert golden._within("max rel err", "1e-10", errs) == (
        True, "max rel err 7.500e-11 (tol 1e-10)")
    assert golden._within("max rel err", "5e-11", errs)[0] is False
    # the bound itself passes
    assert golden._within("abs err", "1e-12", [1e-12])[0]
