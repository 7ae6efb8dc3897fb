"""Self-test of the benchmark itself; run from anywhere:

    python3 perfbench/selftest.py

Checks, on tiny inputs: the same seed gives byte-identical inputs; a
run of every workload completes and prints every end-to-end metric of
BENCHMARK.json with its unit; a traced run prints every per-layer
metric; a deliberately wrong reference is counted as a failed op, not
a crash; tracing does not change any output; and without ``src/`` the
benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run as bench  # noqa: E402
from workloads import WORKLOADS, Tables  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
SEED = 7


def check(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)
    print(f"ok  {what}")


def test_inputs_deterministic():
    for name in WORKLOAD_NAMES:
        a, b = inputs.generate(name, SEED), inputs.generate(name, SEED)
        check(inputs.digest(a) == inputs.digest(b), f"{name}: same seed, same inputs")
        other = inputs.generate(name, SEED + 1)
        check(inputs.digest(a) != inputs.digest(other), f"{name}: other seed, other inputs")


def test_tiny_runs():
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name in WORKLOAD_NAMES:
        for trace in (False, True):
            record = bench.run(name, SEED, 0.01, trace, tiny=True)
            result = json.loads(bench.result_line(record))
            check(set(result) == {"correct", "attempted", "failed", "metrics"}
                  and result["attempted"] >= 1, f"{name} trace={int(trace)}: tiny run completes")
            want = layer_units if trace else units
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{name} trace={int(trace)}: every metric printed with its unit")
            lines = "\n".join(bench.summary_lines(record))
            check(all(k in lines for k in want), f"{name} trace={int(trace)}: summary names them")
            if not trace:
                check(result["correct"], f"{name}: outputs match the references")


def test_wrong_reference_counts_as_failure():
    original = Tables.prepare

    def prepare_wrong(self):
        original(self)
        op = next(op for op in self.ops if op.spec["kind"] == "tabulate")
        op.ref.exact.w[3] *= 1.001

    Tables.prepare = prepare_wrong
    try:
        record = bench.run("library", SEED, 0.01, False, tiny=True)
    finally:
        Tables.prepare = original
    check(record["wrong"] >= 1 and not record["correct"]
          and any("W/Z/Z1/Zw" in f for f in record["failures"]),
          "a wrong reference value is a failed op, not a crash")


def test_tracing_keeps_outputs():
    from spans import Tracer
    sf = bench.import_skipfree()
    for name in WORKLOAD_NAMES:
        wl = WORKLOADS[name](sf, inputs.generate(name, SEED, tiny=True), SEED,
                             bench.WORKDIR / name)
        wl.workdir.mkdir(parents=True, exist_ok=True)
        wl.setup()
        wl.prepare()
        plain = bench.run_passes(wl, 0.0)
        tracer = Tracer()
        tracer.install(sf)
        tracer.on = True
        try:
            traced = bench.run_passes(wl, 0.0, tracer)
        finally:
            tracer.on = False
            tracer.uninstall()
        digests = [[v.digest for _, v in s["verdicts"]] for s in (plain, traced)]
        check(digests[0] == digests[1] and all(digests[0]),
              f"{name}: tracing on gives the same outputs as tracing off")
        if name != "cli-cold":
            check(len(tracer.spans) > len(digests[1]), f"{name}: spans recorded")


def test_no_source_tree():
    bare = bench.WORKDIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload",
                           WORKLOAD_NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without src/ the benchmark fails and prints no result")


if __name__ == "__main__":
    for test in (test_inputs_deterministic, test_no_source_tree, test_tiny_runs,
                 test_wrong_reference_counts_as_failure, test_tracing_keeps_outputs):
        test()
    print("selftest passed")
