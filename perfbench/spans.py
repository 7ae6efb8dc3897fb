"""Spans around the library's public entry points, from outside it.

Tracer.install wraps each entry point once and rebinds the wrapper at
every lookup site that holds the original object: the defining module,
the package root, and the modules that bound the name at import
(embedding and golden bind w_table, cli binds wq, zq, phi_q and
run_golden_checks). Call-time imports (mc.default_registry's
w_table, DiscountedModel's phi) and module-global calls (registry
entries calling mc.simulate) resolve through the defining module and so
see the wrapper too. Spans stay in memory; ``dump`` writes them out
when the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "model", "lundberg", "scale", "passage", "dividends",
          "embedding", "golden", "mc")

# (defining module, function names); every other module holding the
# same object is patched as well
ENTRY_POINTS = {
    "model": ("validate", "from_jsonable"),
    "lundberg": ("phi",),
    "scale": ("w_table",),
    "passage": ("two_sided_up", "deficit_gf", "expected_deficit", "discounted_ruin",
                "eventual_ruin", "discounted_ruin_gf", "upcrossing_price", "finite_time_ruin",
                "expected_stopped_w", "expected_stopped_z"),
    "dividends": ("optimize_barrier", "definetti_value", "modified_definetti_value",
                  "doubly_reflected_values", "doubly_reflected_value",
                  "joint_dividends_deficit", "reflected_ruin_gf", "injections_mgf",
                  "multiband_diagnostics"),
    "embedding": ("wq", "zq", "phi_q"),
    "golden": ("run_golden_checks",),
    "mc": ("simulate", "dividend_count_samples", "geometric_law_chisquare",
           "default_registry", "run_registry", "run_dividends_chisquare"),
}
VALUE_FNS = {"definetti_value", "modified_definetti_value", "doubly_reflected_values",
             "joint_dividends_deficit", "reflected_ruin_gf", "injections_mgf"}


def _attrs(fn: str, args: tuple, kwargs: dict) -> dict | None:
    """The span attributes the per-layer counters need."""
    if fn == "w_table":
        return {"x_max": args[1], "rescaled": bool(kwargs.get("rescaled", args[2:3] and args[2]))}
    if fn == "optimize_barrier":
        return {"objective": args[1], "b_max": args[4]}
    if fn == "simulate":
        return {"policy": args[2].kind, "paths": args[4],
                "cap": args[6] if len(args) > 6 else kwargs.get("horizon_cap")}
    if fn == "dividend_count_samples":
        return {"paths": args[4] if len(args) > 4 else kwargs["n_paths"]}
    return None


class Tracer:
    """Single-threaded span recorder: [name, layer, t0, t1, parent, op, attrs, error]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = "setup"
        self.on = False
        self._undo: list[tuple] = []

    def open(self, name: str, layer: str, attrs=None) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, layer, perf_counter(), None, parent, self.op, attrs, None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int, error: str | None = None) -> None:
        span = self.spans[idx]
        span[3] = perf_counter()
        span[7] = error
        self.stack.pop()

    def wrap(self, layer: str, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            idx = tracer.open(f"{layer}.{name}", layer, _attrs(name, args, kwargs))
            error = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                tracer.close(idx, error)
            if name == "default_registry":
                result = [dataclasses.replace(e, analytic=tracer.wrap("mc", "analytic", e.analytic))
                          for e in result]
            return result

        return traced

    def _zw_array(self, original):
        tracer = self

        @functools.wraps(original)
        def zw_array(table, w):
            if not tracer.on:
                return original(table, w)
            # peeks at the per-w cache to tell misses from hits
            fresh = float(w) not in table._zw
            idx = tracer.open("scale.zw_array", "scale", {"fresh": fresh})
            try:
                return original(table, w)
            finally:
                tracer.close(idx)

        return zw_array

    def install(self, sf) -> None:
        """Rebind every lookup site of every entry point to its wrapper."""
        modules = [sf] + [sys.modules[m] for m in sorted(sys.modules)
                          if m.startswith(sf.__name__ + ".")]
        for layer, names in ENTRY_POINTS.items():
            home = sys.modules[f"{sf.__name__}.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self.wrap(layer, name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        table_cls = sf.scale.ScaleTable
        self._undo.append((table_cls, "zw_array", table_cls.zw_array))
        table_cls.zw_array = self._zw_array(table_cls.zw_array)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)

    def dump(self, path) -> None:
        keys = ("name", "layer", "start", "end", "parent", "op", "attrs", "error")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _ms(seconds: float) -> float:
    return seconds * 1e3


def layer_metrics(tracer: Tracer) -> dict:
    """Counts, busy and self times per layer from the recorded spans."""
    spans = tracer.spans
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[4] >= 0:
            child[s[4]] += dur[i]
    self_time = defaultdict(float)
    for i, s in enumerate(spans):
        self_time[s[1]] += dur[i] - child[i]

    def pick(name, pred=lambda a: True):
        return [dur[i] for i, s in enumerate(spans) if s[0] == name and pred(s[6])]

    def per_call(ds, scale):
        return sum(ds) / len(ds) * scale if ds else 0.0

    m = {}
    validate = pick("model.validate")
    m["model.validate.us_per_call"] = per_call(validate, 1e6)
    phi = pick("lundberg.phi")
    m["lundberg.phi.calls"] = len(phi)
    m["lundberg.phi.us_per_call"] = per_call(phi, 1e6)

    wt = [(dur[i], s[6], s[7]) for i, s in enumerate(spans) if s[0] == "scale.w_table"]
    m["scale.w_table.calls"] = len(wt)
    m["scale.w_table.entries"] = sum(a["x_max"] + 1 for _, a, _ in wt)
    m["scale.w_table.busy_ms"] = _ms(sum(d for d, _, _ in wt))
    for n in (400, 2000, 8000):
        ds = [d for d, a, _ in wt if a["x_max"] == n and not a["rescaled"]]
        m[f"scale.w_table.p50_ms.n{n}"] = _ms(statistics.median(ds)) if ds else 0.0
    m["scale.w_table.overflow_count"] = sum(e == "OverflowSignal" for _, _, e in wt)
    m["scale.w_table.rescaled_busy_ms"] = _ms(sum(d for d, a, _ in wt if a["rescaled"]))

    zw = [(dur[i], s[6]["fresh"]) for i, s in enumerate(spans) if s[0] == "scale.zw_array"]
    m["scale.zw_array.calls"] = len(zw)
    m["scale.zw_array.busy_ms"] = _ms(sum(d for d, _ in zw))
    m["scale.zw_array.fresh_ratio"] = sum(f for _, f in zw) / len(zw) if zw else 0.0

    passage = [dur[i] for i, s in enumerate(spans) if s[1] == "passage"]
    m["passage.calls"] = len(passage)
    m["passage.us_per_call"] = per_call(passage, 1e6)

    ob = [(dur[i], s[6]) for i, s in enumerate(spans) if s[0] == "dividends.optimize_barrier"]
    m["dividends.optimize_barrier.calls"] = len(ob)
    m["dividends.optimize_barrier.b_scanned"] = sum(a["b_max"] + 1 for _, a in ob)
    for obj in ("definetti", "modified_definetti", "doubly_reflected"):
        sel = [(d, a["b_max"] + 1) for d, a in ob if a["objective"] == obj]
        n_b = sum(b for _, b in sel)
        m[f"dividends.optimize_barrier.ns_per_b.{obj}"] = \
            sum(d for d, _ in sel) / n_b * 1e9 if n_b else 0.0
    values = [dur[i] for i, s in enumerate(spans)
              if s[1] == "dividends" and s[0].split(".", 1)[1] in VALUE_FNS]
    m["dividends.values.us_per_call"] = per_call(values, 1e6)

    emb = [dur[i] for i, s in enumerate(spans)
           if s[1] == "embedding" and (s[4] < 0 or spans[s[4]][1] != "embedding")]
    m["embedding.calls"] = len(emb)
    m["embedding.busy_ms"] = _ms(sum(emb))
    lookups = sum(s[0] in ("embedding.wq", "embedding.zq") for s in spans)
    builds = sum(s[0] == "scale.w_table" and s[4] >= 0 and spans[s[4]][1] == "embedding"
                 for s in spans)
    m["embedding.table_builds"] = builds
    m["embedding.table_reuse_ratio"] = 1.0 - builds / lookups if lookups else 0.0

    m["golden.run_golden_checks.busy_ms"] = _ms(sum(pick("golden.run_golden_checks")))

    sim = [(dur[i], s[6]) for i, s in enumerate(spans) if s[0] == "mc.simulate"]
    for policy in ("free", "reflect_upper", "reflect_lower_0", "doubly_reflected"):
        m[f"mc.simulate.busy_s.{policy}"] = sum(d for d, a in sim if a["policy"] == policy)
    m["mc.simulate.calls"] = len(sim)
    dcs = [(dur[i], s[6]) for i, s in enumerate(spans) if s[0] == "mc.dividend_count_samples"]
    m["mc.paths"] = sum(a["paths"] for _, a in sim) + sum(a["paths"] for _, a in dcs)
    doubly = [(d, a["paths"] * a["cap"]) for d, a in sim if a["policy"] == "doubly_reflected"]
    steps = sum(n for _, n in doubly)
    m["mc.doubly.ns_per_path_step"] = sum(d for d, _ in doubly) / steps * 1e9 if steps else 0.0
    m["mc.dividend_count_samples.busy_ms"] = _ms(sum(d for d, _ in dcs))
    m["mc.chisquare.busy_ms"] = _ms(sum(pick("mc.geometric_law_chisquare")))
    m["mc.analytic.busy_ms"] = _ms(sum(pick("mc.analytic")))

    for layer in LAYERS + ("bench",):
        m[f"{layer}.self_ms"] = _ms(self_time.get(layer, 0.0))
    m["trace.spans"] = len(spans)
    return m
