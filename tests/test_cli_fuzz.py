"""The CLI on drawn argument lists: every call ends in exit 0, 1 or 2,
with no traceback and no warning, and a malformed number is refused at
once with the usage error."""

import contextlib
import io
import json
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from skipfree.cli import _FLAGS, _build_parser, main

MALFORMED = ("1/0", "1e400", "1e-16000000", "-1e999", "1/", "abc", "nan", "inf", "")
_NUMBER_BAD = st.sampled_from(("0", "-1", "2", "1e-300", *MALFORMED))
_INT_BAD = st.sampled_from(("-2", "-1", "1.5", "1e3", "", "x"))
# flag -> (values it takes, values a call may refuse); every drawn table,
# horizon, scan and run stays small
VALUES = {
    **dict.fromkeys(("v", "w"), (st.sampled_from(("0.9", "65/72", "1", "0.5")), _NUMBER_BAD)),
    **dict.fromkeys(("k", "gamma", "step", "q"), (st.sampled_from(("2", "0.5", "1.2")),
                                                  _NUMBER_BAD)),
    "xmax": (st.integers(0, 40), _INT_BAD), "n": (st.integers(0, 30), _INT_BAD),
    "bmax": (st.integers(0, 40), _INT_BAD), "seed": (st.integers(0, 3), _INT_BAD),
    **dict.fromkeys(("x", "b"), (st.integers(-3, 45), _INT_BAD)),
    "npaths": (st.integers(2, 8), st.integers(-1, 1)),
    "chi-npaths": (st.integers(20, 60), st.integers(-1, 19)),
    "out": (st.sampled_from(("csv", "json")), st.just("xml")),
    "objective": (st.sampled_from(("definetti", "modified", "doubly")), st.just("other")),
}
MODELS = {
    "three.json": {"type": "table", "pmf": ["2/3", "2/9", "0", "1/9"]},
    "geo.json": {"type": "modified_geometric", "p0": 0.6, "p1": 0.24, "alpha": 0.4},
    "heavy.json": {"type": "table", "pmf": ["1/2", "0", "0", "1/2"]},
}
# subcommand -> the flags it reads, without the dashes
COMMANDS = {name: sorted(opt[2:] for a in sub._actions for opt in a.option_strings
                         if opt.startswith("--") and opt != "--help")
            for name, sub in next(a for a in _build_parser()._actions
                                  if a.dest == "command").choices.items()}


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("models")
    for name, obj in MODELS.items():
        (path / name).write_text(json.dumps(obj))
    (path / "bad.json").write_text(json.dumps({"type": "table", "pmf": ["0", "1"]}))
    return path


def _call(argv):
    """main(argv): its exit code, stderr and the warnings it raised."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses with exit 2
            code = exc.code
    return code, err.getvalue(), [str(w.message) for w in caught]


@st.composite
def argvs(draw, model_dir):
    """A subcommand with each of its own flags half the time. A clean call
    always has the flags that some calls need and only values they take; any
    other call may have bad values and a flag the subcommand lacks. The path
    counts are always given, since their defaults start long runs."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    clean = draw(st.booleans())
    always = ("npaths", "chi-npaths") + (("model", "gamma", "step", "q", "k") if clean else ())
    flags = [flag for flag in COMMANDS[command] if flag in always or draw(st.booleans())]
    if not clean:
        flags += draw(st.lists(st.sampled_from(sorted(set(_FLAGS) - set(flags))), max_size=1))

    def value(flag):
        good, bad = VALUES[flag]
        return str(draw(good if clean else good | bad))

    argv = [command]
    for flag in draw(st.permutations(flags)):
        if flag == "model":
            names = sorted(MODELS) if clean else [*MODELS, "none.json", "bad.json"]
            values = [str(model_dir / draw(st.sampled_from(names)))]
        elif flag == "rescaled":
            values = []
        elif flag == "q":
            values = [value(flag) for _ in range(draw(st.integers(1, 3)))]
        else:
            values = [value(flag)]
        argv += ["--" + flag, *values]
    return argv


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_drawn_argv_exits_cleanly(model_dir, data):
    argv = data.draw(argvs(model_dir))
    code, err, caught = _call(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err, argv
    assert not caught, (argv, caught)


# a subcommand that reads each number flag
READER = {"--v": "scale", "--w": "passage", "--k": "optimize", "--gamma": "embed",
          "--step": "embed", "--q": "embed"}


@pytest.mark.parametrize("flag, text", [
    ("--v", "1e-16000000"), ("--v", "1e-4000000"), ("--v", "1/0"), ("--v", "1e400"),
    ("--w", "1e999"), ("--k", "nan"), ("--k", "inf"), ("--k", "1e400"), ("--gamma", "inf"),
    ("--gamma", "nan"), ("--step", "inf"), ("--step", "1/0"), ("--q", "nan"), ("--q", "1e999"),
])
def test_malformed_number_is_refused_at_once(model_dir, deadline, flag, text):
    command = READER[flag]
    with deadline(1.0):
        code, err, caught = _call([command, "--model", str(model_dir / "geo.json"), flag, text])
    assert code == 2 and "Traceback" not in err and not caught
    assert err.splitlines()[-1].endswith(
        "discount factor 0.0 outside (0, 1]" if text.startswith("1e-")
        else f"argument {flag}: invalid _rational value: '{text}'")
