"""The flag surface of each CLI subcommand, read from the parser itself."""

import json

import pytest

from skipfree.cli import _build_parser, main

EXPECTED = {
    "scale": {"--model", "--v", "--xmax"},
    "ruin": {"--model", "--v", "--xmax", "--n", "--out"},
    "passage": {"--model", "--v", "--x", "--b", "--w", "--out"},
    "optimize": {"--model", "--v", "--bmax", "--objective", "--k", "--x"},
    "mc-verify": {"--seed", "--npaths", "--chi-npaths"},
    "embed": {"--model", "--xmax", "--gamma", "--step", "--q"},
    "examples": set(),
}


def _flags():
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    return {
        name: {opt for a in p._actions for opt in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }


def test_each_subcommand_has_exactly_its_flags():
    flags = _flags()
    assert flags == EXPECTED
    assert sum(len(f) for f in flags.values()) == 28


@pytest.mark.parametrize("argv", [
    ["mc-verify", "--model", "x"],
    ["mc-verify", "--v", "0.5"],
    ["embed", "--model", "m.json", "--gamma", "2", "--step", "0.5", "--q", "0", "--v", "0.9"],
    ["scale", "--model", "m.json", "--out", "json"],
    ["scale", "--model", "m.json", "--rescaled"],
    ["passage", "--model", "m.json", "--bmax", "10"],
    ["passage", "--model", "m.json", "--rescaled"],
    ["ruin", "--model", "m.json", "--rescaled"],
    ["optimize", "--model", "m.json", "--rescaled"],
    ["passage", "--model", "m.json", "--xmax", "10"],
    ["examples", "--seed", "1"],
    ["optimize", "--model", "m.json", "--xmax", "10"],
])
def test_removed_flag_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


def test_passage_b_defaults_to_50(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"type": "table", "pmf": ["2/3", "2/9", "0", "1/9"]}))
    assert main(["passage", "--model", str(path), "--v", "0.9", "--out", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["b"] == 50


def test_overflowing_model_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({"type": "table", "pmf": ["1", "1e400"]}))
    assert main(["scale", "--model", str(path), "--xmax", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1
