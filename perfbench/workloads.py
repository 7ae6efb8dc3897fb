"""The workloads: how each one sets up, issues ops and checks them.

Every workload is a closed loop with one client. ``ops_for_pass``
returns the ops of one pass with their references already computed,
``run`` executes one op (the only timed call) and ``check`` compares
its outcome with the reference. A check returns a Verdict: ``failed``
marks an op that raised, exited with the wrong code, printed a
traceback, missed a gate or gave a wrong value; ``wrong`` marks the
last case alone, a value returned outside the reference tolerance.

``library`` runs the in-process workloads ``tables``, ``sweep`` and
``mc`` as the three parts of one pass; each op keeps the name of its
part, so a run can report each part's time.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import select
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import inputs as gen
import refs

SMALL = gen.SMALL_LEVEL + 2  # levels covered by the exact references
CLI_TIMEOUT_S = 120


@dataclass
class Op:
    label: str          # what the latency is reported under
    spec: dict
    ref: object = None
    part: str = ""      # the workload whose op this is, inside library


@dataclass
class Verdict:
    failed: bool = False
    wrong: bool = False
    detail: str = ""
    digest: str = ""
    health: dict = field(default_factory=dict)


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _v(text: str) -> float:
    """The float the CLI and the library see for a decimal or a/b string."""
    from fractions import Fraction
    return float(Fraction(text))


def _fail(detail: str, wrong: bool = False) -> Verdict:
    return Verdict(failed=True, wrong=wrong, detail=detail)


def _compare(pairs, what: str) -> Verdict:
    """pairs of (got, want) or (got, (want, bound)); a wrong value when
    any is out of tolerance."""
    worst = 0.0
    for i, (got, want) in enumerate(pairs):
        want, bound = want if isinstance(want, tuple) else (want, 0.0)
        worst = max(worst, refs.rel_err(got, want))
        if not refs.close(got, want, bound=bound):
            return Verdict(failed=True, wrong=True, health={"rel_err": worst},
                           detail=f"{what}[{i}] = {got!r}, reference {want!r}")
    return Verdict(health={"rel_err": worst})


def _raised(exc: BaseException) -> Verdict:
    return _fail(f"raised {type(exc).__name__}: {exc}")


class Workload:
    name = ""
    min_passes = 1

    def __init__(self, sf, inputs: dict, seed: int, workdir: Path):
        self.sf, self.inputs, self.seed, self.workdir = sf, inputs, seed, workdir

    def setup(self) -> None:
        """Input materialisation (and builds) counted in setup_s."""

    def prepare(self) -> None:
        """References shared by every pass; never timed."""

    def ops_for_pass(self, p: int) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, out, exc: BaseException | None) -> Verdict:
        raise NotImplementedError


# --------------------------------------------------------------- cli-cold

class CliCold(Workload):
    """Fresh `python -m skipfree.cli` processes, one at a time."""

    name = "cli-cold"
    min_passes = 2  # a pass is seven processes, about ten seconds

    def setup(self) -> None:
        self.model_dir = self.workdir / "models"
        self.model_dir.mkdir(parents=True, exist_ok=True)
        for fname, model in self.inputs["models"].items():
            (self.model_dir / fname).write_text(json.dumps(model))
        src = Path(self.sf.__file__).resolve().parent.parent
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

    def _dist(self, fname: str):
        return self.sf.from_jsonable(self.inputs["models"][fname])

    @staticmethod
    def _arg(argv: list[str], flag: str, default=None):
        return argv[argv.index(flag) + 1] if flag in argv else default

    def prepare(self) -> None:
        sf = self.sf
        self.refs = []
        for argv in self.inputs["valid"]:
            sub = argv[0]
            ref = None
            if sub in ("scale", "ruin", "passage"):
                dist = self._dist(self._arg(argv, "--model"))
                v = _v(self._arg(argv, "--v", "1"))
                ref = SimpleNamespace(exact=refs.ExactScale(dist, v, SMALL),
                                      phi=sf.DiscountedModel(dist, v).phi_v)
            elif sub == "optimize":
                dist = self._dist(self._arg(argv, "--model"))
                v = _v(self._arg(argv, "--v"))
                b_max = int(self._arg(argv, "--bmax"))
                table = sf.w_table(sf.DiscountedModel(dist, v), max(100, b_max + 2))
                cols = (table.w_array(),) + refs.z_columns(table.w_array(), v, dist.mean)
                k = float(self._arg(argv, "--k"))
                ref = SimpleNamespace(scan=refs.scan_reference(cols, "doubly_reflected", k, 0, b_max),
                                      cols=cols, k=k)
            elif sub == "embed":
                dist = self._dist(self._arg(argv, "--model"))
                gamma, h = float(self._arg(argv, "--gamma")), float(self._arg(argv, "--step"))
                xmax = int(self._arg(argv, "--xmax"))
                qs = [float(q) for q in argv[argv.index("--q") + 1: argv.index("--xmax")]]
                rows = []
                for q in qs:
                    v = gamma / (gamma + q)
                    table = sf.w_table(sf.DiscountedModel(dist, v), xmax)
                    big_phi = -math.log(table.phi) / h + 0.0
                    rows += [(q, big_phi, m, table.w(m) / (gamma * h), table.z(m))
                             for m in range(xmax + 1)]
                ref = rows
            self.refs.append(ref)

    def ops_for_pass(self, p: int) -> list[Op]:
        ops = [Op(argv[0], {"argv": argv}, ref) for argv, ref in zip(self.inputs["valid"], self.refs)]
        invalid = self.inputs["invalid"]
        ops.append(Op("error", {"argv": invalid[p % len(invalid)], "invalid": True}))
        return ops

    def run(self, op: Op):
        with open(os.devnull, "rb") as stdin, \
                (self.workdir / "stdout").open("w+b") as out, \
                (self.workdir / "stderr").open("w+b") as err:
            proc = subprocess.Popen([sys.executable, "-m", "skipfree.cli", *op.spec["argv"]],
                                    stdin=stdin, stdout=out, stderr=err,
                                    cwd=self.model_dir, env=self.env)
            # the pidfd turns readable when the child exits: no polling
            # loop competes with the child for the CPU
            pidfd = os.pidfd_open(proc.pid)
            try:
                exited, _, _ = select.select([pidfd], [], [], CLI_TIMEOUT_S)
            finally:
                os.close(pidfd)
            if not exited:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return SimpleNamespace(rc=proc.returncode, out=out.read().decode(),
                                   err=err.read().decode(), maxrss_kb=usage.ru_maxrss)

    def check(self, op: Op, res, exc) -> Verdict:
        if exc is not None:
            return _raised(exc)
        argv = op.spec["argv"]
        digest = _digest(res.rc, res.out, res.err)
        if "Traceback" in res.err:
            v = _fail(f"exit {res.rc} with a traceback: {res.err.strip().splitlines()[-1]}")
        elif op.spec.get("invalid"):
            lines = res.err.strip().splitlines()
            if res.rc != 2 or res.out or len(lines) != 1 or not lines[0].startswith("error: "):
                v = _fail(f"exit {res.rc}, stderr {res.err!r}; want exit 2 and one error line")
            else:
                v = Verdict()
        elif res.rc != 0 or res.err:
            v = _fail(f"exit {res.rc}, stderr {res.err[-200:]!r}")
        else:
            try:
                v = getattr(self, "_check_" + argv[0])(argv, res.out, op.ref)
            except (ValueError, KeyError, IndexError) as e:
                v = _fail(f"unparseable output: {type(e).__name__}: {e}", wrong=True)
        v.digest = digest
        return v

    def _rows(self, text: str, header: str, n_rows: int):
        lines = text.strip().splitlines()
        if lines[0] != header or len(lines) != n_rows + 1:
            raise ValueError(f"header {lines[0]!r}, {len(lines) - 1} rows")
        return [[float(c) for c in line.split(",")] for line in lines[1:]]

    def _check_scale(self, argv, out, ref) -> Verdict:
        rows = self._rows(out, "x,W,dW,Z,Z1", int(self._arg(argv, "--xmax")) + 1)
        ex = ref.exact
        pairs = []
        for x in range(gen.SMALL_LEVEL):
            pairs += [(rows[x][1], float(ex.w[x])), (rows[x][2], float(ex.w[x + 1] - ex.w[x])),
                      (rows[x][3], float(ex.z[x])), (rows[x][4], float(ex.z1[x]))]
        return _compare(pairs, "scale")

    def _check_ruin(self, argv, out, ref) -> Verdict:
        rows = self._rows(out, "x,ruin", int(self._arg(argv, "--xmax")) + 1)
        ex = ref.exact
        want = [1.0 if ex.mean >= 1 else float(1 - (1 - ex.mean) * ex.w[x])
                for x in range(gen.SMALL_LEVEL)]
        return _compare([(rows[x][1], want[x]) for x in range(gen.SMALL_LEVEL)], "ruin")

    def _check_passage(self, argv, out, ref) -> Verdict:
        report = json.loads(out)
        x, b = int(self._arg(argv, "--x")), int(self._arg(argv, "--b"))
        want = refs.passage_batch(ref.exact, x, b, _v(self._arg(argv, "--w")), ref.phi)
        return _compare([(report[k], want[k]) for k in want], "passage")

    def _check_optimize(self, argv, out, ref) -> Verdict:
        report = json.loads(out)
        result = SimpleNamespace(b_star=report["b_star"], value=report["value"],
                                 attained=report["attained"], trace=report["trace"])
        problem = refs.check_scan(result, ref.scan, ref.cols, "doubly_reflected", ref.k,
                                  int(self._arg(argv, "--bmax")))
        return _fail(problem, wrong=True) if problem else Verdict()

    def _check_examples(self, argv, out, ref) -> Verdict:
        lines = out.strip().splitlines()
        summary = re.fullmatch(r"(\d+) checks: (\d+) passed, 0 failed", lines[-1])
        if not summary or summary[1] != summary[2] or int(summary[1]) != len(lines) - 1 \
                or not all(line.startswith("PASS ") for line in lines[:-1]):
            return _fail(f"golden checks did not all pass: {lines[-1]!r}", wrong=True)
        return Verdict()

    def _check_embed(self, argv, out, ref) -> Verdict:
        rows = self._rows(out, "q,Phi,m,Wq,Zq", len(ref))
        pairs = []
        for got, want in zip(rows, ref):
            pairs += [(got[1], want[1]), (got[3], want[3]), (got[4], want[4])]
            if got[0] != want[0] or int(got[2]) != want[2]:
                return _fail(f"row {got[:3]} out of order", wrong=True)
        return _compare(pairs, "embed")


# ----------------------------------------------------------------- tables

class Tables(Workload):
    """Tabulate seeded models: Lundberg root, W, Z, Z1 and one Z(., w)."""

    name = "tables"

    def setup(self) -> None:
        self.dists = [self.sf.from_jsonable(law) for law in self.inputs["laws"]]
        self.ops = []
        for spec in self.inputs["ops"]:
            if spec["kind"] == "grid":
                spec = dict(spec, dist=self.sf.from_jsonable(spec["law"]))
                self.ops.append(Op("grid", spec))
            else:
                spec = dict(spec, dist=self.dists[spec["law"]], vf=_v(spec["v"]))
                self.ops.append(Op(f"tabulate.n{spec['n']}", spec))

    def prepare(self) -> None:
        for op in self.ops:
            s = op.spec
            if s["kind"] == "grid":
                op.ref = self._grid_reference(s)
                continue
            exact = refs.ExactScale(s["dist"], s["vf"], SMALL)
            exact.zw(s["w"])
            closed = None
            if s["dist"].kind == "modified_geometric":
                closed = self._closed_forms(s["dist"], s["vf"], s["n"])
            op.ref = SimpleNamespace(exact=exact, closed=closed)

    def _closed_forms(self, dist, v, n):
        from skipfree import golden
        w, z = [], []
        for x in range(n + 1):
            try:
                w.append(golden.closed_form_w_modgeom(dist, v, x))
                z.append(golden.closed_form_z_modgeom(dist, v, x))
            except OverflowError:
                break
        return np.array(w), np.array(z)

    def _grid_reference(self, s):
        sf = self.sf
        gamma, h = s["gamma"], s["h"]
        by_q: dict[float, int] = {}
        for q, m in s["points"]:
            by_q[q] = max(by_q.get(q, 0), m)
        tables = {q: sf.w_table(sf.DiscountedModel(s["dist"], gamma / (gamma + q)), m)
                  for q, m in by_q.items()}
        return [(-math.log(tables[q].phi) / h + 0.0, tables[q].w(m) / (gamma * h),
                 tables[q].z(m)) for q, m in s["points"]]

    def ops_for_pass(self, p: int) -> list[Op]:
        return self.ops

    def run(self, op: Op):
        sf, s = self.sf, op.spec
        if s["kind"] == "grid":
            params = sf.LevyChainParams(gamma=s["gamma"], h=s["h"], dist=s["dist"])
            out = []
            for q, m in s["points"]:
                try:
                    out.append((sf.phi_q(params, q), sf.wq(params, q, m), sf.zq(params, q, m)))
                except sf.SkipfreeError as exc:
                    out.append(exc)
            return out
        model = sf.DiscountedModel(s["dist"], s["vf"])
        try:
            table = sf.w_table(model, s["n"])
        except sf.OverflowSignal:
            # what the OverflowSignal docstring tells callers to do
            return sf.w_table(model, s["n"], rescaled=True), None
        table.z(s["n"])
        table.z1(s["n"])
        return table, table.zw_array(s["w"])

    def check(self, op: Op, out, exc) -> Verdict:
        if exc is not None:
            return _raised(exc)
        s = op.spec
        if s["kind"] == "grid":
            errors = [(pt, o) for pt, o in zip(s["points"], out) if isinstance(o, Exception)]
            good = [(o, want) for o, want in zip(out, op.ref) if not isinstance(o, Exception)]
            pairs = [(g, w) for o, want in good for g, w in zip(o, want)]
            v = _compare(pairs, "grid")
            if errors and not v.wrong:
                (q, m), e = errors[0]
                v = _fail(f"{len(errors)} grid point(s) raised; first q={q}, m={m}: "
                          f"{type(e).__name__}: {e}")
            v.digest = _digest([repr(o) for o in out])
            return v
        table, zw = out
        ex, n = op.ref.exact, s["n"]
        if len(table.tilted_w_array()) != n + 1:
            return _fail(f"table has {len(table.tilted_w_array())} levels, want {n + 1}", wrong=True)
        if table.rescaled:
            tilted = table.tilted_w_array()
            phi = table.phi
            got_w = [float(tilted[x]) * phi ** float(-x) for x in range(SMALL)]
            pairs = list(zip(got_w, map(float, ex.w)))
            v = _compare(pairs, "W(rescaled)")
            v.digest = _digest(tilted[:SMALL].tolist(), float(tilted[-1]))
            return v
        w_arr = table.w_array()
        z_arr = table.zw_array(1.0)
        z1 = [table.z1(x) for x in range(SMALL)]
        pairs = (list(zip(w_arr[:SMALL].tolist(), map(float, ex.w)))
                 + list(zip(z_arr[:SMALL].tolist(), map(float, ex.z)))
                 + list(zip(z1, map(float, ex.z1)))
                 + list(zip(zw[:SMALL].tolist(), map(float, ex.zw(s["w"])))))
        v = _compare(pairs, "W/Z/Z1/Zw")
        if not v.failed and op.ref.closed is not None:
            cw, cz = op.ref.closed
            m = len(cw)
            err = float(max(np.max(np.abs(w_arr[:m] / cw - 1.0)),
                            np.max(np.abs(z_arr[:m] / cz - 1.0))))
            v.health["rel_err"] = max(v.health["rel_err"], err)
            if not err <= 1e-8:
                v = _fail(f"modified geometric closed form off by {err:.3e} relative", wrong=True)
        v.digest = _digest(w_arr[:SMALL].tolist(), float(w_arr[-1]), float(z_arr[-1]),
                           z1, float(zw[-1]))
        return v


# ------------------------------------------------------------------ sweep

class Sweep(Workload):
    """Queries against tables built during set-up."""

    name = "sweep"

    def setup(self) -> None:
        sf = self.sf
        self.dists = [sf.from_jsonable(law) for law in self.inputs["laws"]]
        self.tables = []
        for t in self.inputs["tables"]:
            table = sf.w_table(sf.DiscountedModel(self.dists[t["law"]], _v(t["v"])), t["n"])
            table.z1(0)
            for w in self.inputs["fixed_w"]:
                table.zw_array(w)
            self.tables.append(table)

    def prepare(self) -> None:
        self.exact = []
        self.cols = []
        for table in self.tables:
            ex = refs.ExactScale(table.model.dist, table.v, SMALL)
            for w in self.inputs["fixed_w"]:
                ex.zw(w)
            self.exact.append(ex)
            w_arr = table.w_array()
            self.cols.append((w_arr,) + refs.z_columns(w_arr, table.v, table.model.dist.mean))
        # references of ops with a fixed w; fresh-w ops get theirs per pass
        self.refs = [None if isinstance(s.get("w"), dict) else self._reference(s)
                     for s in self.inputs["ops"]]

    def _reference(self, s: dict):
        ex, table = self.exact[s["table"]], self.tables[s["table"]]
        if s["kind"] == "optimize":
            return refs.scan_reference(self.cols[s["table"]], s["objective"],
                                       s["k"], s["x"], s["b_max"])
        # one exact evaluation per distinct starting level of the batch
        if s["kind"] == "passage":
            by_x = {x: refs.passage_batch(ex, x, s["b"], s["w"], table.phi) for x in set(s["xs"])}
        else:
            by_x = {x: refs.value_call(ex, s["fn"], s["b"], x, s["w"], s["z"], s["k"])
                    for x in set(s["xs"])}
        return [by_x[x] for x in s["xs"]]

    def ops_for_pass(self, p: int) -> list[Op]:
        fresh = gen.fresh_ws(self.seed, p, self.inputs["n_fresh"])
        ops = []
        for s, ref in zip(self.inputs["ops"], self.refs):
            if ref is None:
                s = dict(s, w=fresh[s["w"]["fresh"]])
                ref = self._reference(s)
            label = f"optimize.b{s['b_max']}" if s["kind"] == "optimize" else s["kind"]
            ops.append(Op(label, s, ref))
        # the exact Z(., w) columns of this pass's fresh w are not kept
        for ex in self.exact:
            for w in fresh:
                if w not in self.inputs["fixed_w"]:
                    ex.drop(w)
        return ops

    def run(self, op: Op):
        sf, s = self.sf, op.spec
        table = self.tables[s["table"]]
        if s["kind"] == "optimize":
            return sf.dividends.optimize_barrier(table, s["objective"], s["k"], s["x"], s["b_max"])
        b, w = s["b"], s["w"]
        if s["kind"] == "passage":
            pa = sf.passage
            ruin = "discounted_ruin" if table.v < 1.0 else "eventual_ruin"
            return [{"two_sided_up": pa.two_sided_up(table, x, b),
                     "deficit_gf": pa.deficit_gf(table, x, b, w),
                     "expected_deficit": pa.expected_deficit(table, x, b),
                     ruin: getattr(pa, ruin)(table, x)} for x in s["xs"]]
        fn = s["fn"]
        call = getattr(sf.dividends, fn)
        if fn in ("definetti_value", "doubly_reflected_values"):
            return [call(table, b, x) for x in s["xs"]]
        if fn == "modified_definetti_value":
            return [call(table, b, x, s["k"]) for x in s["xs"]]
        if fn == "joint_dividends_deficit":
            return [call(table, b, x, w, s["z"]) for x in s["xs"]]
        return [call(table, b, x, w) for x in s["xs"]]

    def check(self, op: Op, out, exc) -> Verdict:
        if exc is not None:
            return _raised(exc)
        s = op.spec
        if s["kind"] == "optimize":
            problem = refs.check_scan(out, op.ref, self.cols[s["table"]], s["objective"],
                                      s["k"], s["b_max"])
            v = _fail(problem, wrong=True) if problem else Verdict()
            v.digest = _digest(out.b_star, out.value, out.attained)
            return v
        if s["kind"] == "passage":
            pairs = [(got[k], want[k]) for got, want in zip(out, op.ref) for k in want]
        elif s["fn"] == "doubly_reflected_values":
            pairs = [pair for got, want in zip(out, op.ref) for pair in zip(got, want)]
        else:
            pairs = list(zip(out, op.ref))
        v = _compare(pairs, s["kind"] if s["kind"] == "passage" else s["fn"])
        v.digest = _digest(out)
        return v


# --------------------------------------------------------------------- mc

class MonteCarlo(Workload):
    """Registry entries of run_registry plus the dividends chi-square."""

    name = "mc"
    Z_GATE = 4.0
    P_GATE = 0.01

    def setup(self) -> None:
        self.first: dict[str, tuple] = {}

    def ops_for_pass(self, p: int) -> list[Op]:
        entries = self.sf.mc.default_registry()
        if self.inputs["entries"] is not None:
            entries = entries[: self.inputs["entries"]]
        ops = [Op(e.name.split(":")[0], {"stream": i, "entry": e}) for i, e in enumerate(entries)]
        return ops + [Op("chisquare", {"chi": True})]

    def run(self, op: Op):
        seed = self.inputs["mc_seed"]
        if op.spec.get("chi"):
            return self.sf.mc.run_dividends_chisquare(seed=seed, n_paths=self.inputs["chi_paths"])
        entry = op.spec["entry"]
        analytic = float(entry.analytic())
        return analytic, entry.estimate(seed, self.inputs["n_paths"], op.spec["stream"])

    def check(self, op: Op, out, exc) -> Verdict:
        if exc is not None:
            return _raised(exc)
        if op.spec.get("chi"):
            key, value = "chisquare", (out["statistic"], out["p_value"])
            v = Verdict() if out["p_value"] > self.P_GATE else \
                _fail(f"chi-square p = {out['p_value']:.4g} <= {self.P_GATE}")
            v.health = {"p_value": out["p_value"]}
        else:
            analytic, est = out
            key, value = op.spec["entry"].name, (analytic, est.mean, est.std_error)
            if est.std_error > 0.0:
                z = (est.mean - analytic) / est.std_error
            else:
                z = 0.0 if abs(est.mean - analytic) < 1e-12 else math.inf
            v = Verdict() if abs(z) <= self.Z_GATE else \
                _fail(f"{key}: |z| = {abs(z):.2f} > {self.Z_GATE}")
            v.health = {"abs_z": abs(z)}
            if not key.startswith("doubly"):  # doubly-reflected paths never stop
                v.health["capped"] = est.capped_fraction
        # Philox keys [seed, stream] make every pass bit-identical
        if self.first.setdefault(key, value) != value:
            v = Verdict(failed=True, wrong=True, health=v.health,
                        detail=f"{key} not reproducible: {value} vs {self.first[key]}")
        v.digest = _digest(value)
        return v


# ---------------------------------------------------------------- library

class Library(Workload):
    """A tables pass, a sweep pass and an mc pass, one after the other."""

    name = "library"
    PARTS = (Tables, Sweep, MonteCarlo)

    def __init__(self, sf, inputs: dict, seed: int, workdir: Path):
        super().__init__(sf, inputs, seed, workdir)
        self.parts = {cls.name: cls(sf, inputs[cls.name], seed, workdir) for cls in self.PARTS}

    def setup(self) -> None:
        for part in self.parts.values():
            part.setup()

    def prepare(self) -> None:
        for part in self.parts.values():
            part.prepare()

    def ops_for_pass(self, p: int) -> list[Op]:
        ops = []
        for name, part in self.parts.items():
            for op in part.ops_for_pass(p):
                op.part = name
                ops.append(op)
        return ops

    def run(self, op: Op):
        return self.parts[op.part].run(op)

    def check(self, op: Op, out, exc) -> Verdict:
        return self.parts[op.part].check(op, out, exc)


WORKLOADS = {cls.name: cls for cls in (CliCold, Tables, Sweep, MonteCarlo, Library)}
