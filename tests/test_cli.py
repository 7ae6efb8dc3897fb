"""Command line interface, exercised in process through main(argv)."""

import json
import math
import os
import subprocess
import sys

import pytest

import skipfree

from skipfree import cli
from skipfree.cli import main
from skipfree import (DiscountedModel, discounted_ruin_gf, finite_time_ruin, from_jsonable,
                      two_sided_up, w_table)
from skipfree.dividends import optimize_barrier
from skipfree.golden import GOLDEN_CHECKS


@pytest.fixture()
def model_file(tmp_path):
    path = tmp_path / "three_point.json"
    path.write_text(json.dumps({"type": "table", "pmf": ["2/3", "2/9", "0", "1/9"]}))
    return str(path)


@pytest.fixture()
def gsy_file(tmp_path):
    path = tmp_path / "four_point.json"
    path.write_text(json.dumps(
        {"type": "table", "pmf": ["3/4", "1/20", "1/10", "0", "0", "0", "0", "1/10"]}
    ))
    return str(path)


def test_scale_csv_round_trips_exactly(model_file, capsys, three_tab):
    rc = main(["scale", "--model", model_file, "--v", "150/169", "--xmax", "12"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,W,dW,Z,Z1"
    assert len(lines) == 14
    for line in lines[1:]:
        x, w, dw, z, z1 = line.split(",")
        x = int(x)
        assert float(w) == three_tab.w(x)
        assert float(dw) == three_tab.dw(x)
        assert float(z) == three_tab.z(x)
        assert float(z1) == three_tab.z1(x)
    assert float(lines[1].split(",")[1]) == 1.5


def test_ruin_eventual_closed_form(model_file, capsys):
    rc = main(["ruin", "--model", model_file, "--v", "1", "--xmax", "6"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,ruin"
    for line in lines[1:]:
        x, r = line.split(",")
        x = int(x)
        expect = 0.4 * 0.5**x - (-1.0 / 3.0) ** x / 15.0
        assert float(r) == pytest.approx(expect, abs=1e-12)


def test_ruin_finite_horizon_rows(model_file, capsys):
    rc = main(["ruin", "--model", model_file, "--v", "1", "--n", "2", "--xmax", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,ruin,survival"
    for line in lines[1:]:
        _, r, s = line.split(",")
        assert float(r) + float(s) == pytest.approx(1.0, abs=1e-12)


def test_ruin_finite_horizon_prints_row_n_of_the_dp(model_file, capsys):
    rc = main(["ruin", "--model", model_file, "--n", "40", "--xmax", "30", "--out", "json"])
    rows = json.loads(capsys.readouterr().out)
    with open(model_file, encoding="utf-8") as fh:
        dp = finite_time_ruin(from_jsonable(json.load(fh)), 40, 30)
    assert rc == 0 and [row["x"] for row in rows] == list(range(31))
    assert [row["ruin"] for row in rows] == dp.ruin[40].tolist()
    assert [row["survival"] for row in rows] == dp.survival[40].tolist()


def test_passage_report(model_file, capsys):
    rc = main([
        "passage", "--model", model_file, "--v", "0.9",
        "--x", "2", "--b", "6", "--w", "0.7",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    rows = dict(
        line.split(",") for line in out.strip().splitlines()[1:]
    )
    assert set(rows) >= {
        "upcrossing_price", "two_sided_up", "deficit_gf",
        "expected_deficit", "discounted_ruin", "discounted_ruin_gf",
    }
    assert 0.0 < float(rows["two_sided_up"]) < 1.0
    assert float(rows["expected_deficit"]) < 0.0


@pytest.mark.parametrize("v", ["0.99", "0.999"])
def test_passage_sizes_its_table_from_x_and_b(gsy_file, capsys, four_point, v):
    # the deficit transform without a barrier reads kappa(w) in closed form, so a
    # slowly converging Z(b, w) / W(b) is no refusal and no level past x or b is read
    rc = main(["passage", "--model", gsy_file, "--v", v, "--x", "2", "--b", "6", "--w", "0.7",
               "--out", "json"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    table = w_table(DiscountedModel(four_point, float(v)), 6)
    assert report["discounted_ruin_gf"] == discounted_ruin_gf(table, 2, 0.7)
    assert report["two_sided_up"] == two_sided_up(table, 2, 6)


def test_optimize_doubly_reports_json(gsy_file, capsys):
    rc = main([
        "optimize", "--model", gsy_file, "--v", "0.999",
        "--objective", "doubly", "--k", "1.2", "--bmax", "40",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)
    assert payload["b_star"] == 24
    assert payload["ties"] == [24]
    assert payload["value"] == pytest.approx(22.1226924488191, rel=1e-10)
    assert len(payload["trace"]) == 41


def test_optimize_prints_strict_json_past_where_dw_is_resolved(gsy_file, capsys, four_point):
    # at v = 1 dW rounds to 0 from b = 1450 on: H is inf or nan there
    rc = main(["optimize", "--model", gsy_file, "--v", "1", "--objective", "modified",
               "--k", "1.2", "--bmax", "1500"])
    payload = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert rc == 0
    table = w_table(DiscountedModel(four_point, 1.0), 1502)
    result = optimize_barrier(table, "modified_definetti", 1.2, 0, 1500)
    assert [entry["b"] for entry in payload["trace"]] == list(range(1501))
    assert [entry["H"] for entry in payload["trace"]] == [
        h if math.isfinite(h) else None for _, h in result.trace]
    assert sum(entry["H"] is None for entry in payload["trace"]) == 31
    assert payload["value"] is None and not math.isfinite(result.value)
    assert payload["b_star"] == result.b_star and payload["attained"] is False


def test_optimize_refuses_a_law_with_no_tail(tmp_path, capsys):
    # 0.7 + 0.3 as floats leaves a tail of 5.55e-17, which at v = 1 used to
    # slip past the degenerate check and print "value": Infinity
    path = tmp_path / "no_tail.json"
    path.write_text(json.dumps({"type": "modified_geometric", "p0": 0.7, "p1": 0.3,
                                "alpha": 0.5}))
    rc = main(["optimize", "--model", str(path), "--v", "1", "--bmax", "40"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error: p0 + p1 must be below 1")


def test_optimize_requires_penalty(gsy_file, capsys):
    rc = main([
        "optimize", "--model", gsy_file, "--v", "0.999",
        "--objective", "doubly", "--bmax", "40",
    ])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error:" in captured.err
    assert "--k" in captured.err
    assert captured.out == ""


def test_missing_model_file_is_a_clean_error(capsys):
    rc = main(["scale", "--model", "/nonexistent/model.json", "--v", "0.9"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_examples_all_pass_and_are_reproducible(capsys):
    rc = main(["examples"])
    first = capsys.readouterr().out
    assert rc == 0
    lines = first.strip().splitlines()
    assert len(lines) == len(GOLDEN_CHECKS) + 1
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("20 passed, 0 failed")
    rc = main(["examples"])
    second = capsys.readouterr().out
    assert rc == 0
    assert second == first


def test_embed_table(model_file, capsys):
    rc = main([
        "embed", "--model", model_file, "--gamma", "2", "--step", "0.5",
        "--q", "0", "1", "--xmax", "2",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q,Phi,m,Wq,Zq"
    assert len(lines) == 7
    q0 = lines[1].split(",")
    assert q0[1] == "0"  # Phi(0) prints as plain zero
    assert float(q0[3]) == pytest.approx(1.5)


def test_mc_verify_small_run(capsys):
    rc = main(["mc-verify", "--npaths", "2000", "--chi-npaths", "2000"])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)
    assert payload["low_power"] is True
    assert len(payload["rows"]) == 20
    assert payload["chisquare"]["p_value"] > 1e-3


@pytest.mark.parametrize("z, p", [(math.nan, 0.5), (0.0, math.nan)])
def test_mc_verify_fails_on_a_nan_verdict(z, p, monkeypatch, capsys):
    rows = [{"functional": "f", "z_score": 0.5}, {"functional": "g", "z_score": z}]
    monkeypatch.setattr(cli, "run_registry", lambda seed, n_paths: rows)
    monkeypatch.setattr(cli, "run_dividends_chisquare",
                        lambda seed, n_paths: {"p_value": p})
    rc = main(["mc-verify", "--npaths", "10", "--chi-npaths", "10"])
    payload = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert rc == 1
    assert [row["functional"] for row in payload["rows"]] == ["f", "g"]
    assert payload["rows"][1]["z_score"] == (None if math.isnan(z) else z)
    assert payload["chisquare"]["p_value"] == (None if math.isnan(p) else p)


def _refuse_constant(token):
    raise ValueError(f"{token} is not JSON")


def test_mc_verify_prints_strict_json_for_an_infinite_z(capsys):
    # with 3 paths some rows have std_error 0 and a mean off the analytic value
    rc = main(["mc-verify", "--npaths", "3", "--chi-npaths", "20000"])
    payload = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert rc == 1
    nulls = [row["functional"] for row in payload["rows"] if row["z_score"] is None]
    assert nulls and all(row["mc_se"] == 0.0 for row in payload["rows"]
                         if row["functional"] in nulls)


def test_overflowing_embed_under_warnings_as_errors(model_file):
    # Z's running sums used to overflow past the kept entries and warn
    src = os.path.dirname(os.path.dirname(skipfree.__file__))
    out = subprocess.run(
        [sys.executable, "-W", "error", "-m", "skipfree.cli", "embed", "--model", model_file,
         "--gamma", "2", "--step", "0.5", "--q", "0", "1", "--xmax", "2000"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
    assert out.returncode == 2
    assert out.stderr == "error: W exceeds float range on 0..1135\n"


@pytest.mark.parametrize("argv", [
    ["scale", "--xmax", "-1"],
    ["scale", "--xmax", "-2"],
    ["embed", "--gamma", "2", "--step", "0.5", "--q", "0", "--xmax", "-1"],
    ["ruin", "--xmax", "-1"],
    ["ruin", "--n", "3", "--xmax", "-1"],
])
def test_negative_xmax_is_a_usage_error(model_file, capsys, argv):
    rc = main([argv[0], "--model", model_file, *argv[1:]])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: --xmax must be nonnegative\n"


def test_optimize_sizes_its_table_from_bmax_alone(gsy_file, capsys, four_point):
    # the scan and the value at x > b_star read levels 0..bmax+1 only; a table
    # sized to reach x = 5000 left float range
    rc = main(["optimize", "--model", gsy_file, "--v", "0.8", "--bmax", "50", "--x", "5000"])
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    payload = json.loads(captured.out)
    result = optimize_barrier(w_table(DiscountedModel(four_point, 0.8), 52),
                              "definetti", 0.0, 5000, 50)
    assert (payload["b_star"], payload["value"]) == (result.b_star, result.value)
    assert (result.b_star, result.value) == (0, 5001.666666666667)


def test_rescaled_scan_past_float_range_names_first_level(gsy_file, capsys):
    rc = main(["optimize", "--model", gsy_file, "--v", "0.8", "--bmax", "2000", "--rescaled"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: W(1752) exceeds float range\n"


@pytest.mark.parametrize("lines_read", [0, 1])
def test_a_reader_closing_stdout_early_is_not_an_error(tmp_path, lines_read):
    # `skipfree ruin ... | head -1`: the write or the flush meets a closed pipe
    geo = tmp_path / "geo.json"
    geo.write_text(json.dumps({"type": "modified_geometric", "p0": 0.6, "p1": 0.24,
                               "alpha": 0.4}))
    src = os.path.dirname(os.path.dirname(skipfree.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-W", "error", "-m", "skipfree.cli", "ruin", "--v", "0.9",
         "--xmax", "2000", "--model", str(geo)],
        env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    for _ in range(lines_read):
        assert proc.stdout.readline() == b"x,ruin\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == b""
