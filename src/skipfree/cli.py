"""Command line front end.

Each subcommand accepts only the flags it reads:

  scale      CSV table of W, dW, Z, Z1: --model --v --xmax
  ruin       eventual, discounted or finite-horizon ruin probabilities:
             --model --v --xmax --n --out; at v = 1 on a law of mean >= 1
             ruin is certain and reads no level, so its table holds level 0
  passage    passage functionals at one level: --model --v --x --b --w --out;
             every value reads levels 0..max(x, b) only, so its table is sized
             from --x and --b
  optimize   barrier optimization with its full influence trace:
             --model --v --bmax --objective --k --x; the scan reads
             levels 0..bmax+1 only, so its table holds just those
  mc-verify  analytic vs Monte Carlo registry: --seed --npaths --chi-npaths
  examples   golden reference checks, one line each: no flags
  embed      Levy chain tables: --model --xmax --gamma --step --q

Every real flag (--v --w --k --gamma --step --q) is a decimal or a fraction
like 65/72; nan, inf and a value past float range are usage errors.

Exit codes: 0 on success, 1 when a golden check or MC concordance
fails (a NaN z or p fails too), 2 on configuration errors, unknown
flags included (message on standard error, no partial output). A reader
that closes standard output early (| head) refuses nothing: the output
stops there, and the exit code is 0 with nothing on standard error.

mc-verify and optimize print strict JSON: a number that is not finite
(an infinite or NaN z, or the inf and nan influences of a scan past where
dW is resolved) is written as null.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import dividends as dv
from . import passage
from .embedding import LevyChainParams, phi_q, wq, zq
from .errors import SkipfreeError
from .golden import run_golden_checks
from .mc import run_dividends_chisquare, run_registry
from .model import ClaimDistribution, DiscountedModel, _cap_exponent, from_jsonable
from .scale import w_table

_OBJECTIVES = {
    "definetti": "definetti",
    "modified": "modified_definetti",
    "doubly": "doubly_reflected",
}


class UsageError(ValueError):
    """Raised for invalid flag combinations; mapped to exit code 2."""


def _rational(text: str) -> float:
    """Parse a CLI number given as a decimal or a fraction like 65/72."""
    try:
        return float(Fraction(_cap_exponent(text)))
    except (ZeroDivisionError, OverflowError) as exc:
        raise ValueError(text) from exc


def _fmt(x: float) -> str:
    return "%.17g" % x


# Every flag, defined once; each subcommand names the flags it reads.
_FLAGS = {
    "model": dict(help="path to a model JSON file"),
    "v": dict(type=_rational, default=1.0,
              help="discount factor in (0, 1], decimal or a/b (default 1)"),
    "xmax": dict(type=int, default=100, help="largest level tabulated (default 100)"),
    "bmax": dict(type=int, default=50, help="largest barrier scanned (default 50)"),
    "seed": dict(type=int, default=42, help="base seed for Monte Carlo (default 42)"),
    "out": dict(choices=("csv", "json"), default="csv", help="output format (default csv)"),
    "n": dict(type=int, default=None, help="finite horizon; omit for the v=1 / v<1 split"),
    "x": dict(type=int, default=0, help="starting level"),
    "b": dict(type=int, default=50, help="upper target level (default 50)"),
    "w": dict(type=_rational, default=1.0, help="deficit transform argument in (0, 1]"),
    "objective": dict(choices=sorted(_OBJECTIVES), default="definetti"),
    "k": dict(type=_rational, default=None,
              help="bailout weight k >= 0 (required for modified/doubly)"),
    "npaths": dict(type=int, default=10**6, help="paths per registry entry (default 1e6)"),
    "chi-npaths": dict(type=int, default=10**5,
                       help="paths for the dividends chi-square test (default 1e5)"),
    "gamma": dict(type=_rational, required=True, help="jump intensity of the embedded chain"),
    "step": dict(type=_rational, required=True, help="lattice step h"),
    "q": dict(type=_rational, nargs="+", required=True, help="discount rates q >= 0"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skipfree",
        description="Scale functions, ruin, and dividend optimization "
        "for upwards skip-free random walks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = [
        ("scale", cmd_scale, "emit the scale function table as CSV",
         "model v xmax"),
        ("ruin", cmd_ruin, "ruin probabilities (eventual, discounted, or --n steps)",
         "model v xmax n out"),
        ("passage", cmd_passage, "passage functionals at one starting level",
         "model v x b w out"),
        ("optimize", cmd_optimize, "optimize a dividend barrier and emit the trace",
         "model v bmax objective k x"),
        ("mc-verify", cmd_mc_verify, "run the analytic vs Monte Carlo registry",
         "seed npaths chi-npaths"),
        ("examples", cmd_examples, "run the bundled golden checks, one line each", ""),
        ("embed", cmd_embed, "Levy chain tables (q, Phi(q), Wq, Zq) as CSV",
         "model xmax gamma step q"),
    ]
    for name, func, text, flags in commands:
        p = sub.add_parser(name, help=text)
        for flag in flags.split():
            p.add_argument("--" + flag, **_FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def _load_model(args: argparse.Namespace) -> ClaimDistribution:
    if not args.model:
        raise UsageError("--model is required for this command")
    with open(args.model, "r", encoding="utf-8") as fh:
        return from_jsonable(json.load(fh))


def _table_for(args: argparse.Namespace, x_max: int):
    return w_table(DiscountedModel(_load_model(args), args.v), x_max)


def cmd_scale(args: argparse.Namespace) -> int:
    table = _table_for(args, args.xmax + 1)
    cols = (table.w_array(), table._dw(0, args.xmax), table.zw_array(1.0), table._z1)
    lines = ["x,W,dW,Z,Z1"]
    for x, row in enumerate(zip(*(col[: args.xmax + 1].tolist() for col in cols))):
        lines.append(",".join([str(x)] + [_fmt(c) for c in row]))
    print("\n".join(lines))
    return 0


def cmd_ruin(args: argparse.Namespace) -> int:
    if args.n is not None:
        if args.n < 0:
            raise UsageError("--n must be nonnegative")
        for surv, ruin in passage._ruin_rows(_load_model(args), args.n, args.xmax):
            pass  # only row n is printed, so no other row is kept
        rows = [{"x": x, "ruin": ruin[x], "survival": surv[x]} for x in range(args.xmax + 1)]
        header = "x,ruin,survival"
    else:
        model = DiscountedModel(_load_model(args), args.v)
        # row x reads level x, except where ruin is certain: v = 1 and a mean >= 1
        table = w_table(model, args.xmax if args.v < 1.0 or model.subcritical else 0)
        fn = passage.eventual_ruin if args.v == 1.0 else passage.discounted_ruin
        rows = [{"x": x, "ruin": fn(table, x)} for x in range(args.xmax + 1)]
        header = "x,ruin"
    if args.out == "json":
        print(json.dumps(rows, indent=2))
    else:
        lines = [header]
        keys = header.split(",")
        for row in rows:
            lines.append(",".join(str(row[k]) if k == "x" else _fmt(row[k]) for k in keys))
        print("\n".join(lines))
    return 0


def cmd_passage(args: argparse.Namespace) -> int:
    table = _table_for(args, max(args.x, args.b, 0))
    report = {
        "v": args.v,
        "x": args.x,
        "b": args.b,
        "w": args.w,
        "upcrossing_price": passage.upcrossing_price(table.model, args.x, args.b),
        "two_sided_up": passage.two_sided_up(table, args.x, args.b),
        "deficit_gf": passage.deficit_gf(table, args.x, args.b, args.w),
        "expected_deficit": passage.expected_deficit(table, args.x, args.b),
    }
    if args.v < 1.0:
        report["discounted_ruin"] = passage.discounted_ruin(table, args.x)
        report["discounted_ruin_gf"] = passage.discounted_ruin_gf(
            table, args.x, args.w)
    else:
        report["eventual_ruin"] = passage.eventual_ruin(table, args.x)
    if args.out == "csv":
        lines = ["name,value"]
        for key, value in report.items():
            lines.append(f"{key},{_fmt(value) if isinstance(value, float) else value}")
        print("\n".join(lines))
    else:
        print(json.dumps(report, indent=2))
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    objective = _OBJECTIVES[args.objective]
    if objective != "definetti" and args.k is None:
        raise UsageError(f"--k is required for objective {args.objective}")
    k = 0.0 if args.k is None else args.k
    # the scan and the value at b* read levels 0..bmax+1; a negative --bmax
    # builds levels 0..1 and optimize_barrier refuses it
    table = _table_for(args, max(args.bmax, 0) + 1)
    result = dv.optimize_barrier(table, objective, k, args.x, args.bmax)
    print(json.dumps(_finite_or_null(result.to_jsonable()), indent=2, allow_nan=False))
    return 0


def _finite_or_null(obj):
    """obj with every float that is not finite replaced by None (JSON null)."""
    if isinstance(obj, dict):
        return {key: _finite_or_null(val) for key, val in obj.items()}
    if isinstance(obj, list):
        return [_finite_or_null(val) for val in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def cmd_mc_verify(args: argparse.Namespace) -> int:
    rows = run_registry(seed=args.seed, n_paths=args.npaths)
    chi = run_dividends_chisquare(seed=args.seed, n_paths=args.chi_npaths)
    ok = all(abs(row["z_score"]) <= 4.0 for row in rows) and chi["p_value"] > 0.01
    report = {
        "rows": rows,
        "chisquare": chi,
        "low_power": args.npaths < 10**5,
    }
    print(json.dumps(_finite_or_null(report), indent=2, allow_nan=False))
    return 0 if ok else 1


def cmd_examples(args: argparse.Namespace) -> int:
    results = run_golden_checks()
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        print(f"{tag} {res.name}: {res.detail}")
    failed = sum(1 for res in results if not res.passed)
    print(f"{len(results)} checks: {len(results) - failed} passed, {failed} failed")
    return 1 if failed else 0


def cmd_embed(args: argparse.Namespace) -> int:
    dist = _load_model(args)
    params = LevyChainParams(gamma=args.gamma, h=args.step, dist=dist)
    lines = ["q,Phi,m,Wq,Zq"]
    for q in args.q:
        big_phi = phi_q(params, q)
        for m in range(args.xmax + 1):
            lines.append(",".join([_fmt(q), _fmt(big_phi), str(m),
                                   _fmt(wq(params, q, m)), _fmt(zq(params, q, m))]))
    print("\n".join(lines))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "xmax", 0) < 0:
            raise UsageError("--xmax must be nonnegative")
        code = args.func(args)
        sys.stdout.flush()  # a reader gone early shows here, not in the flush at exit
        return code
    except BrokenPipeError:
        # the reader is gone; stdout goes to devnull so the flush at exit stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (SkipfreeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
