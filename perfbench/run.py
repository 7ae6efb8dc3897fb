"""skipfree benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {cli-cold,library,tables,sweep,mc} \
        --seed N --seconds S --trace {0,1}

Run from anywhere; the benchmark measures the checkout it sits in: the
worker puts the checkout's ``src/`` first on its path (and on every
child's PYTHONPATH) and refuses to run if ``skipfree`` resolves
elsewhere. Each workload is a closed loop with one client. A run
repeats passes over the workload's seeded op list for about S seconds;
every op is checked against a reference computed outside the timed
region. BENCHMARK.json names cli-cold and library; library runs the
tables, sweep and mc ops in every pass, and each of those three can
also be run alone for a closer look at one part.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:

    setup_s      median of three fresh set-ups (interpreter start,
                 ``import skipfree``, input generation, and for sweep and
                 library the sweep table builds), each in its own child
                 process
    wall_s       median over passes of a pass's summed op latencies
                 (the timed part; checks between ops are not timed)
    ops_per_s    ops of one pass / wall_s
    op_p50_ms    median op latency over every op of the run
    peak_rss_mb  ru_maxrss of the worker; for cli-cold, the largest child

The lines above it also give op_p90_ms (where at least ten samples lie
beyond it), paths_per_s (mc), error_rate, with sample counts, and for
library the wall_s of each of its parts (tables, sweep, mc).

With ``--trace 1`` the run spends half its time untraced and half with
spans around the library's entry points, and reports per-layer counts,
busy and self times, and the tracing overhead (traced minus untraced
wall_s). Spans and a full result record go to ``.perfbench/``.

``correct`` is false when an op returned a value outside its reference
tolerance. ``failed`` also counts ops that raised, exited with the
wrong code, printed a traceback, or missed the Monte Carlo gates
(|z| <= 4, chi-square p > 0.01). A set-up child that generates other
inputs than the worker, or a checkout without ``src/skipfree``, stops
the run with exit code 2 and no result. Seed 20171708
(inputs.HELD_OUT_SEED) is held out for verifying claimed gains.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
SETUP_SAMPLES = 3

END_TO_END = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s",
              "op_p50_ms": "ms", "peak_rss_mb": "MB"}
CLI_SUBS = ("scale", "ruin", "passage", "optimize", "examples", "embed", "error")


class BenchError(Exception):
    """The checkout cannot be measured; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    rest = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + rest)
    return env


def import_skipfree():
    if not (SRC / "skipfree" / "__init__.py").is_file():
        raise BenchError(f"no skipfree package under {SRC}")
    sys.path.insert(0, str(SRC))
    import skipfree
    import skipfree.cli  # noqa: F401  (loaded before any tracer rebinds names)
    where = Path(skipfree.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise BenchError(f"skipfree imported from {where}, not from {SRC}")
    return skipfree


def _run_child(argv: list[str]) -> tuple[float, str, str]:
    t0 = perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=child_env(),
                          cwd=ROOT, timeout=120)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"{argv[1:]} exited {proc.returncode}: {proc.stderr[-500:]}")
    return elapsed, proc.stdout, proc.stderr


def machine_info(sf) -> dict:
    import numpy
    import scipy
    info = {"nproc": os.cpu_count(), "cpu": platform.processor() or platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "skipfree_file": sf.__file__}
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
    info["caches"] = caches
    try:  # the ceiling keeps git from reading repositories above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        info["commit"] = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True, env=env,
                                        capture_output=True, timeout=30).stdout.strip() or None
    except OSError:
        info["commit"] = None
    return info


def run_passes(wl, seconds: float, tracer=None, first_pass: int = 0) -> dict:
    """Closed loop: passes over the op list for about `seconds`.

    A pass starts while it is expected to end within half a pass of the
    deadline, so a run overshoots by at most about half a pass; but a
    run makes at least `wl.min_passes` passes, so every op is timed more
    than once even when a pass is long.
    """
    stats = {"pass_wall": [], "pass_lat": [], "lat": [], "verdicts": [], "child_rss_kb": []}
    start = perf_counter()
    p = first_pass
    last = 0.0
    while p < first_pass + wl.min_passes or perf_counter() - start + last / 2 < seconds:
        t_pass = perf_counter()
        ops = wl.ops_for_pass(p)
        wall = 0.0
        pass_lat = []
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = f"{p}.{i}"
                root = tracer.open(f"op.{op.label}", "bench")
            exc = out = None
            t0 = perf_counter()
            try:
                out = wl.run(op)
            except Exception as e:  # the op failed; the loop must go on
                exc = e
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.close(root)
                tracer.on = False
            verdict = wl.check(op, out, exc)
            if tracer is not None:
                tracer.on = True
            wall += dt
            pass_lat.append(dt)
            stats["lat"].append((op.label, dt))
            stats["verdicts"].append((f"{p}.{i} {op.label}", verdict))
            if hasattr(out, "maxrss_kb"):
                stats["child_rss_kb"].append(out.maxrss_kb)
        stats["pass_wall"].append(wall)
        stats["pass_lat"].append(pass_lat)
        stats["op_parts"] = [op.part or wl.name for op in ops]
        stats["ops_per_pass"] = len(ops)
        last = perf_counter() - t_pass
        p += 1
    return stats


def percentile_with_tail(values: list[float], q: float):
    """The q-quantile when at least ten samples lie beyond it, else None."""
    if len(values) * (1 - q) < 10:
        return None
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def tally(stats: dict) -> dict:
    verdicts = [v for _, v in stats["verdicts"]]
    failures = [f"{name}: {v.detail}" for name, v in stats["verdicts"] if v.failed]
    return {"attempted": len(verdicts), "failed": sum(v.failed for v in verdicts),
            "wrong": sum(v.wrong for v in verdicts), "failures": failures}


def part_walls(stats: dict) -> dict:
    """Median over passes of each part's summed op latencies."""
    parts = stats["op_parts"]
    return {name: statistics.median(sum(dt for dt, q in zip(lat, parts) if q == name)
                                    for lat in stats["pass_lat"])
            for name in dict.fromkeys(parts)}


def end_to_end(workload: str, stats: dict, setup_samples: list[float]) -> dict:
    lat_ms = [dt * 1e3 for _, dt in stats["lat"]]
    wall = statistics.median(stats["pass_wall"])
    if workload == "cli-cold":
        rss_kb = max(stats["child_rss_kb"])
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"setup_s": statistics.median(setup_samples), "wall_s": wall,
            "ops_per_s": stats["ops_per_pass"] / wall,
            "op_p50_ms": statistics.median(lat_ms), "peak_rss_mb": rss_kb / 1024}


def setup_samples(workload: str, seed: int, want_digest: str, tiny: bool) -> list[float]:
    """Fresh set-ups in child processes, one at a time."""
    samples = []
    for _ in range(1 if tiny else SETUP_SAMPLES):
        elapsed, out, _ = _run_child([sys.executable, str(HERE / "probe.py"), workload,
                                      str(seed)] + (["tiny"] if tiny else []))
        if out.strip() != want_digest:
            raise BenchError(f"set-up child generated other inputs: {out.strip()!r}")
        samples.append(elapsed)
    return samples


def import_times() -> dict:
    """import.* from `python -X importtime` in a child."""
    py = statistics.median(_run_child([sys.executable, "-c", "pass"])[0] for _ in range(3))
    _, _, err = _run_child([sys.executable, "-X", "importtime", "-c", "import skipfree"])
    self_us = {"numpy": 0, "scipy": 0}
    skipfree_us = 0
    for line in err.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if not m:
            continue
        name = m[4]
        top = name.split(".")[0]
        if top in self_us:
            self_us[top] += int(m[1])
        if name == "skipfree":
            skipfree_us = int(m[2])
    return {"import.python_ms": py * 1e3, "import.numpy_ms": self_us["numpy"] / 1e3,
            "import.scipy_ms": self_us["scipy"] / 1e3, "import.skipfree_ms": skipfree_us / 1e3}


def cli_compute(sf, wl, tracer) -> dict:
    """The CLI's argv through skipfree.cli.main in-process, stdout captured."""
    from skipfree import embedding, golden
    argvs = [(a[0], a) for a in wl.inputs["valid"]] + [("error", a) for a in wl.inputs["invalid"]]
    times: dict[str, list[float]] = {}
    golden_failed = 0
    for sub, argv in argvs:
        argv = [str(wl.model_dir / a) if a.endswith(".json") else a for a in argv]
        for _ in range(2):
            golden.cached_table.cache_clear()  # as in a fresh process
            embedding._chain_table.cache_clear()
            sink = io.StringIO()
            tracer.op = f"cli-compute.{sub}"
            root = tracer.open("cli.main", "cli", {"sub": sub})
            t0 = perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
                try:
                    sf.cli.main(argv)
                except (Exception, SystemExit):  # measured even when the CLI dies
                    pass
            times.setdefault(sub, []).append(perf_counter() - t0)
            tracer.close(root)
            if sub == "examples":
                golden_failed = sum(line.startswith("FAIL") for line in sink.getvalue().splitlines())
    out = {f"cli.{sub}.compute_ms": statistics.median(ts) * 1e3 for sub, ts in times.items()}
    out["golden.failed"] = golden_failed
    return out


def per_layer(sf, workload: str, wl, traced: dict, untraced: dict, tracer) -> dict:
    from spans import layer_metrics
    if workload == "cli-cold":
        tracer.on = True
        extra = cli_compute(sf, wl, tracer)
        tracer.on = False
    else:
        extra = {"golden.failed": 0}
    m = layer_metrics(tracer)
    m.update(extra)
    m.update(import_times())
    lat = {}
    for stats in (untraced, traced):
        for label, dt in stats["lat"]:
            lat.setdefault(label, []).append(dt)
    for sub in CLI_SUBS:
        m[f"cli.{sub}.wall_ms"] = statistics.median(lat[sub]) * 1e3 \
            if workload == "cli-cold" and sub in lat else 0.0
        m.setdefault(f"cli.{sub}.compute_ms", 0.0)
    health = [v.health for stats in (untraced, traced) for _, v in stats["verdicts"]]
    m["scale.max_rel_err"] = max(
        (v.health.get("rel_err", 0.0) for stats in (untraced, traced)
         for name, v in stats["verdicts"] if name.split()[1].startswith(("tabulate", "grid"))),
        default=0.0)
    m["mc.max_abs_z"] = max((h["abs_z"] for h in health if "abs_z" in h), default=0.0)
    m["mc.chi_p_value"] = min((h["p_value"] for h in health if "p_value" in h), default=0.0)
    m["mc.capped_fraction.max"] = max((h["capped"] for h in health if "capped" in h),
                                      default=0.0)
    m["trace.overhead_s"] = (statistics.median(traced["pass_wall"])
                             - statistics.median(untraced["pass_wall"]))
    walls = part_walls(untraced)
    for name in ("tables", "sweep", "mc"):
        m[f"part.{name}.wall_ms"] = walls.get(name, 0.0) * 1e3
    return m


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("_ms") or ".p50_ms." in name:
        return "ms"
    if name.endswith(".us_per_call"):
        return "us"
    if ".ns_per_" in name:
        return "ns"
    if ".busy_s." in name or name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "rel_err", "p_value", "max_abs_z", ".max")):
        return "1"
    return "count"


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the result record."""
    import inputs
    from workloads import WORKLOADS

    sf = import_skipfree()
    WORKDIR.mkdir(exist_ok=True)
    info = machine_info(sf)
    spec = inputs.generate(workload, seed, tiny)
    want = inputs.digest(spec)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "tiny": tiny, "input_digest": want, "machine": info}
    samples = [] if trace else setup_samples(workload, seed, want, tiny)

    wl = WORKLOADS[workload](sf, spec, seed, WORKDIR / workload)
    wl.workdir.mkdir(exist_ok=True)
    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install(sf)
        tracer.on = True
    wl.setup()
    if tracer is not None:
        tracer.on = False
        tracer.uninstall()
    wl.prepare()

    if not trace:
        stats = run_passes(wl, seconds)
        record["metrics"] = end_to_end(workload, stats, samples)
        record["setup_samples_s"] = samples
    else:
        untraced = run_passes(wl, seconds / 2)
        tracer.install(sf)
        tracer.on = True
        traced = run_passes(wl, seconds / 2, tracer, first_pass=len(untraced["pass_wall"]))
        tracer.on = False
        record["metrics"] = per_layer(sf, workload, wl, traced, untraced, tracer)
        tracer.uninstall()
        tracer.dump(WORKDIR / f"spans-{workload}-seed{seed}.jsonl")
        stats = {k: untraced[k] + traced[k] for k in ("lat", "verdicts", "pass_wall")}
        stats["ops_per_pass"] = traced["ops_per_pass"]
        record["untraced_wall_s"] = statistics.median(untraced["pass_wall"])
        record["traced_wall_s"] = statistics.median(traced["pass_wall"])
        stats["pass_lat"], stats["op_parts"] = untraced["pass_lat"], untraced["op_parts"]
    record.update(tally(stats))
    record["passes"] = len(stats["pass_wall"])
    record["pass_wall_s"] = stats["pass_wall"]
    record["ops_per_pass"] = stats["ops_per_pass"]
    lat_ms = [dt * 1e3 for _, dt in stats["lat"]]
    record["op_p90_ms"] = percentile_with_tail(lat_ms, 0.9)
    record["part_wall_s"] = part_walls(stats)
    if "mc" in record["part_wall_s"]:
        mc = spec if workload == "mc" else spec["mc"]
        entries = stats["op_parts"].count("mc") - 1
        paths = mc["n_paths"] * entries + mc["chi_paths"]
        record["paths_per_s"] = paths / record["part_wall_s"]["mc"]
    record["error_rate"] = record["failed"] / record["attempted"]
    record["correct"] = record["wrong"] == 0
    return record


def summary_lines(record: dict) -> list[str]:
    m = record["metrics"]
    lines = [f"workload {record['workload']}  seed {record['seed']}  "
             f"trace {int(record['trace'])}  skipfree {record['machine']['skipfree_file']}",
             f"  {record['passes']} passes of {record['ops_per_pass']} ops, "
             f"{record['attempted']} ops attempted, {record['failed']} failed"]
    if not record["trace"]:
        for name, unit in END_TO_END.items():
            lines.append(f"  {name:<12} {m[name]:>14.6g} {unit}")
        p90 = record["op_p90_ms"]
        lines.append(f"  {'op_p90_ms':<12} {p90:>14.6g} ms" if p90 is not None else
                     f"  {'op_p90_ms':<12} {'n/a':>14} (fewer than 100 ops)")
        if "paths_per_s" in record:
            lines.append(f"  {'paths_per_s':<12} {record['paths_per_s']:>14.6g} 1/s")
        if len(record["part_wall_s"]) > 1:
            for name, wall in record["part_wall_s"].items():
                lines.append(f"  {'wall_s':<12} {wall:>14.6g} s  ({name} part)")
    else:
        for name in sorted(m):
            lines.append(f"  {name:<48} {m[name]:>14.6g} {unit_of(name)}")
        lines.append(f"  tracing overhead {m['trace.overhead_s']:.4g} s "
                     f"(traced wall_s {record['traced_wall_s']:.4g} s, "
                     f"untraced {record['untraced_wall_s']:.4g} s)")
    lines.append(f"  {'error_rate':<12} {record['error_rate']:>14.6g} "
                 f"({record['failed']}/{record['attempted']})")
    for failure in record["failures"][:10]:
        lines.append(f"  FAILED {failure}")
    return lines


def result_line(record: dict) -> str:
    m = record["metrics"]
    metrics = {name: {"value": m[name], "unit": END_TO_END.get(name) or unit_of(name)}
               for name in (END_TO_END if not record["trace"] else sorted(m))}
    return json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-cold", "library", "tables", "sweep", "mc"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(HERE))
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in summary_lines(record):
        print(line)
    out = WORKDIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str))
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
