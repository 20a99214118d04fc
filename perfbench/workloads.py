"""The four workloads: seeded job sets, job bodies and per-job checks.

A workload is built from its seed alone.  Set-up imports tpcalc from the
checkout's ``src``, builds ``default_db()`` and generates the job set; model
construction stays inside the jobs because every user pays it.  A run
repeats the job set in rounds, each round in a new seeded order, so every
job is timed several times at different moments of the run and every run
has the same mix of job sizes.  The seed draws the parameters (residual
coefficients, multidegrees, curve coefficients, tuple orders, model
parameters); the job kinds and sizes are fixed per workload.

Each job's ``expect`` is computed by a route that does not share the timed
code path; a check compares the job's output against it.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import refmath

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")


def import_tpcalc():
    """Import tpcalc from this checkout's sources and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "tpcalc", "__init__.py")):
        raise SystemExit(f"perfbench: no tpcalc sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import tpcalc

    if not os.path.abspath(tpcalc.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: tpcalc imported from {tpcalc.__file__}")
    return tpcalc


tp = import_tpcalc()
from tpcalc import verify as tpverify  # noqa: E402  (closed-form counts)
from tpcalc.oracle import CurveParam, poly  # noqa: E402


@dataclass
class Job:
    kind: str
    params: dict
    expect: object = None

    def describe(self) -> str:
        return json.dumps([self.kind, self.params, str(self.expect)], sort_keys=True)


def _residual(rng: random.Random, degree: int) -> dict:
    """A dense seeded integer residual: every Chern monomial gets a nonzero
    coefficient, so its term count, and so the job's cost, is fixed by the
    degree."""
    return {I: rng.choice([-1, 1]) * rng.randint(1, 9)
            for I in refmath.chern_indices(degree)}


def _as_expr(coeffs: dict):
    expr = tp.SymbolicExpr.zero()
    for I, a in coeffs.items():
        expr = expr + tp.symbolic.c_monomial(I) * a
    return expr


def _fill_db(db, rng, names: tuple, kappa: int) -> dict:
    """Insert a seeded residual for every sub-multiset of `names` missing
    from the store; return them as {(names, kappa): {index: coefficient}}."""
    planted = {}
    counts = Counter(names)
    kinds = sorted(counts)
    for combo in product(*(range(counts[k] + 1) for k in kinds)):
        sub = tuple(sorted(n for k, c in zip(kinds, combo) for n in [k] * c))
        if not sub or db.contains(sub, kappa):
            continue
        degree = tp.MultiSingType(sub, kappa).ell_total - kappa
        planted[(sub, kappa)] = _residual(rng, degree)
        db.insert(sub, kappa, _as_expr(planted[(sub, kappa)]))
    return planted


class Workload:
    name = ""
    tail_pct = 90  # the percentile job_tail_ms reports
    trace_rounds = 2  # rounds in each pass of a traced run

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.db = tp.default_db()
        self.values = refmath.SymbolValues(f"{self.name}:{seed}")
        self.setup()
        self.jobs = self.make_jobs()

    def rounds(self):
        """Endless rounds; each is every job index once, in a seeded order."""
        order = random.Random(f"{self.name}:{self.seed}:order")
        while True:
            idx = list(range(len(self.jobs)))
            order.shuffle(idx)
            yield idx

    def setup(self) -> None:
        pass

    def make_jobs(self) -> list[Job]:
        raise NotImplementedError

    def execute(self, job: Job):
        return getattr(self, "run_" + job.kind.split(":")[0])(job.params)

    def check(self, job: Job, out) -> bool:
        return getattr(self, "check_" + job.kind.split(":")[0])(job, out)

    def close(self) -> None:
        pass


# -- expand: partition expansions and Porteous, no ring arithmetic ------------

class Expand(Workload):
    """Bell(r) and k! growth: pure A0^r (kappa=1), pure A1^r (kappa=-1),
    mixed A0/A1 tuples (kappa=1) and thom_porteous(kappa, k)."""

    name = "expand"
    tail_pct = 85  # inside the thom_porteous k=6 share of the job set
    # 23 jobs: an odd count puts job_p50_ms inside one job's share, not
    # between two jobs of different cost
    PURE = [("A0", 1, r) for r in (4, 5, 6, 7)] + [("A1", -1, r) for r in (3, 4, 5)]
    MIXED = {3: 1, 4: 1, 5: 2, 6: 1}  # tuple length -> number of A1 entries
    PORTEOUS_K = (3, 4, 5, 6)
    SIDES = ("target", "source")

    def setup(self):
        for name, kappa, r in self.PURE:
            _fill_db(self.db, self.rng, (name,) * r, kappa)
        for r, a1 in self.MIXED.items():
            _fill_db(self.db, self.rng, ("A0",) * (r - a1) + ("A1",) * a1, 1)
        # pushed (v_k) and unpushed (w_k) residual values for the exponential
        # identity of the pure families
        self.family = {}
        for name, kappa in (("A0", 1), ("A1", -1)):
            top = max(r for n, _, r in self.PURE if n == name)
            v, w = [None], [None]
            for k in range(1, top + 1):
                terms = self.db.get((name,) * k, kappa).terms
                v.append(refmath.pushed_value(terms, self.values))
                w.append(refmath.value_of_terms(terms, self.values))
            self.family[(name, kappa)] = (v, w)

    def make_jobs(self):
        # Which side is extracted, which entry comes first and kappa are fixed
        # per job, not drawn: they change a job's cost, and every seed must
        # run the same sizes.
        rng = self.rng
        jobs = []
        for n, (name, kappa, r) in enumerate(self.PURE):
            v, w = self.family[(name, kappa)]
            jobs.append(Job(f"tuple:{name}^{r}", {
                "entries": [name] * r, "kappa": kappa, "side": self.SIDES[n % 2]},
                {"target": refmath.pure_target_value(r, v),
                 "source": refmath.pure_source_value(r, v, w)}))
        for r, a1 in self.MIXED.items():
            first = "A1" if r % 2 else "A0"
            rest = ["A0"] * (r - a1) + ["A1"] * a1
            rest.remove(first)
            rng.shuffle(rest)
            jobs.append(Job(f"tuple:mixed{r}", {
                "entries": [first] + rest, "kappa": 1, "side": self.SIDES[r % 2]}, None))
        for k in self.PORTEOUS_K:
            for kappa in (-1, 0, 1):
                jobs.append(Job(f"porteous:{k}", {"kappa": kappa, "k": k},
                                refmath.porteous_value(kappa, k, self.values)))
        return jobs

    def run_tuple(self, p):
        t = tp.MultiSingType(tuple(p["entries"]), p["kappa"])
        target = tp.expand_target(t, self.db)
        source = tp.expand_source(t, self.db)
        scratch = self.db.copy()
        scratch.remove(t.key, t.kappa)
        known = target if p["side"] == "target" else source
        return target, source, tp.extract_residual(t, known, p["side"], scratch)

    def check_tuple(self, job, out):
        target, source, R = out
        p = job.params
        ok = tp.sify(source) == target
        ok = ok and R.terms == self.db.get(p["entries"], p["kappa"]).terms
        if job.expect is not None:
            ok = ok and refmath.value_of_terms(target.terms, self.values) == job.expect["target"]
            ok = ok and refmath.value_of_terms(source.terms, self.values) == job.expect["source"]
        return ok

    def run_porteous(self, p):
        return tp.thom_porteous(p["kappa"], p["k"])

    def check_porteous(self, job, out):
        return refmath.value_of_terms(out.terms, self.values) == job.expect


# -- count: ring arithmetic, model building, evaluation, the oracle ------------

# (ambient dims, target factors, type, kappa); the divisor count follows from
# dim X = dim Y - kappa.  Ring sizes prod(n_i + 1): 36, 36, 40, 45, 64, 72,
# 81, 100, 125, 256 monomials; with the 5 classical jobs and 4 curves that
# makes 19 jobs, an odd count (see Expand.PURE).
CI_TEMPLATES = [
    ((2, 2, 3), (2,), "A1,A1,A1", -1),
    ((2, 2, 3), (2,), "A0,A0,A0", 1),
    ((1, 3, 4), (0,), "A1", -1),
    ((2, 2, 4), (2,), "A0,A1", 1),
    ((3, 3, 3), (2,), "A1,A1,A1", -1),
    ((1, 2, 2, 3), (0, 1), "A1,A1,A1", -1),
    ((2, 2, 2, 2), (3,), "A0,A0", 1),
    ((3, 4, 4), (0,), "A1,A1,A1", -1),
    ((4, 4, 4), (2,), "A0,A1", 1),
    ((3, 3, 3, 3), (3,), "A0,A0,A0", 1),
]


def ci_description(rng, dims, target, kappa) -> str:
    """A seeded complete intersection in prod P^dims projected onto the
    `target` factors, cut by as many divisors as make dim X = dim Y - kappa."""
    divisors = []
    for _ in range(sum(dims) - (sum(dims[i] for i in target) - kappa)):
        # every entry positive: each divisor meets every factor, so the
        # classes, and the job's cost, have the same support at every seed
        v = [rng.randint(1, 3) for _ in dims]
        divisors.append("(" + ",".join(map(str, v)) + ")")
    return (f"product [{','.join(map(str, dims))}] ci [{','.join(divisors)}] -> "
            f"[{','.join(map(str, target))}]")


def random_curve(rng, d):
    """A seeded degree-d plane curve, redrawn until it is immersive and its
    branch at infinity is smooth, so the oracle must give (d-1)(d-2)."""
    while True:
        x = [rng.randint(-5, 5) for _ in range(d)] + [rng.choice([-1, 1]) * rng.randint(1, 5)]
        y = [rng.randint(-5, 5) for _ in range(d)] + [rng.choice([-1, 1]) * rng.randint(1, 5)]
        if x[d] * y[d - 1] - y[d] * x[d - 1] == 0:
            continue
        if CurveParam(poly(x), poly(y)).is_immersive():
            return x, y


class Count(Workload):
    """Classical closed-form counts, seeded complete-intersection projections
    with rings of 36-256 monomials, and rational curves through the oracle."""

    name = "count"
    tail_pct = 91  # inside the 125-monomial ring's share of the job set
    trace_rounds = 3
    CURVE_DEGREES = (4, 5, 6, 7)

    def setup(self):
        self.c2 = tp.c(2)
        self.double = tp.multi_type("A0,A0", 1)
        self.triple = tp.multi_type("A0,A0,A0", 1)

    def make_jobs(self):
        rng = self.rng
        jobs = []
        d = rng.randint(3, 12)
        jobs.append(Job("model:salmon", {"model": f"dual-surface:{d}", "type": "A1,A1,A1",
                                         "kappa": -1}, tpverify.salmon_count(d)))
        d = rng.randint(4, 12)
        jobs.append(Job("model:roberts", {"model": f"web3:{d}", "type": "A1,A1,A1",
                                          "kappa": -1}, tpverify.roberts_count(d)))
        d = rng.randint(2, 12)
        jobs.append(Job("model:discriminant", {"model": f"pencil:{d}", "type": "A1",
                                               "kappa": -1}, 3 * (d - 1) ** 2))
        jobs.append(Job("surface:steiner", {"model": "veronese-p3"},
                        {"pinch": 6, "double": 3, "triple": 1}))
        jobs.append(Job("surface:scroll", {"model": "scroll-q-p3"},
                        {"pinch": 4, "triple": 0}))
        for dims, target, spec, kappa in CI_TEMPLATES:
            size = math.prod(n + 1 for n in dims)
            jobs.append(Job(f"model:ci{size}-{spec}", {
                "model": ci_description(rng, dims, target, kappa),
                "type": spec, "kappa": kappa}, None))
        for d in self.CURVE_DEGREES:
            x, y = random_curve(rng, d)
            jobs.append(Job(f"curve:{d}", {"x": x, "y": y}, (d - 1) * (d - 2)))
        return jobs

    def run_model(self, p):
        return tp.count_points(tp.get_model(p["model"]),
                               tp.multi_type(p["type"], p["kappa"]), self.db)

    def check_model(self, job, out):
        if job.expect is not None:
            return out == job.expect
        # source route: int_X of the source expansion, over the symmetry order
        p = job.params
        model = tp.get_model(p["model"])
        t = tp.multi_type(p["type"], p["kappa"])
        src = tp.evaluate(tp.expand_source(t, self.db), model)
        return out == tp.integrate_on(model.source, src) / t.aut_order

    def run_surface(self, p):
        model = tp.get_model(p["model"])
        pinch = tp.integrate_on(model.source, tp.evaluate(self.c2, model))
        double = tp.evaluate(tp.expand_target(self.double, self.db), model, side="target")
        triple = tp.count_points(model, self.triple, self.db)
        return pinch, double, triple

    def check_surface(self, job, out):
        pinch, double, triple = out
        ok = pinch == job.expect["pinch"] and triple == job.expect["triple"]
        if "double" in job.expect:  # degree of the double curve: n_2 / 2 = 3 h^2
            ok = ok and {m: c / 2 for m, c in double.terms.items()} == {(2,): job.expect["double"]}
        return ok

    def run_curve(self, p):
        curve = CurveParam(poly(p["x"]), poly(p["y"]))
        oracle = tp.double_point_degree(curve)
        model = tp.rational_curve_model(curve.degree)
        engine = tp.integrate_on(model.source,
                                 tp.evaluate(tp.expand_source(self.double, self.db), model))
        return oracle, engine

    def check_curve(self, job, out):
        return out[0] == job.expect and out[1] == job.expect


# -- recover: interpolation, extraction and the store -----------------------------

# Constraint models per unknown residual; the ones given as templates get
# seeded multidegrees.
RECOVER_MODELS = {
    ("A1", -1, 3): {"web3": (3, 9, 3), "dual-surface": (3, 7, 2),
                    "ci": [((3, 3), (1,))] * 3},
    ("A0", 1, 3): {"fixed": ["veronese-p3", "scroll-q-p3"],
                   "ci": [((2, 3), (1,)), ((2, 3), (1,)), ((1, 1, 3), (2,)),
                          ((1, 1, 3), (2,))]},
    ("A0", 1, 4): {"ci": [((2, 4), (1,)), ((2, 4), (1,)), ((3, 4), (1,)),
                          ((3, 4), (1,)), ((1, 2, 4), (2,)), ((1, 2, 4), (2,))]},
}


class Recover(Workload):
    """Plant a residual, count it on fresh models, forget it and solve for it;
    chained extractions into db copies; a dump/loads round trip."""

    name = "recover"
    tail_pct = 90  # inside the A0^4 recoveries' share of the job set
    trace_rounds = 3
    # 4 jobs per residual, each with its own models and residual: with the
    # 3 others that makes 15 jobs, an odd count (see Expand.PURE)
    PER_TYPE = 4

    def setup(self):
        # the store the round trip and the extractions read: every shipped
        # entry plus seeded A1^4 (kappa=-1) and A0^5 (kappa=1)
        _fill_db(self.db, self.rng, ("A1",) * 4, -1)
        _fill_db(self.db, self.rng, ("A0",) * 5, 1)

    def make_jobs(self):
        rng = self.rng
        jobs = []
        for (name, kappa, r), spec in RECOVER_MODELS.items():
            for _ in range(self.PER_TYPE):
                t = tp.MultiSingType((name,) * r, kappa)
                models = list(spec.get("fixed", []))
                for family in ("web3", "dual-surface"):
                    if family in spec:
                        lo, hi, n = spec[family]
                        degrees = rng.sample(range(lo, hi + 1), n)
                        models += [f"{family}:{d}" for d in degrees]
                models += [ci_description(rng, dims, target, kappa)
                           for dims, target in spec.get("ci", [])]
                planted = _residual(rng, t.ell_total - kappa)
                jobs.append(Job(f"recover:{name}^{r}", {
                    "entries": [name] * r, "kappa": kappa, "models": models,
                    "residual": [[list(I), a] for I, a in planted.items()]}, planted))
        jobs += [self._chain_job("A0", 1, (3, 4, 5)), self._chain_job("A1", -1, (2, 3, 4))]
        jobs.append(Job("roundtrip:db", {}, None))
        return jobs

    def _chain_job(self, name, kappa, sizes):
        """Forget A^r for r in sizes, then extract them in increasing r from
        known expansions: each extraction reads the entry the previous one
        wrote."""
        scratch = self.db.copy()
        planted, steps = {}, []
        for r in sizes:
            t = tp.MultiSingType((name,) * r, kappa)
            planted[r] = _residual(self.rng, t.ell_total - kappa)
            scratch.insert(t.key, kappa, _as_expr(planted[r]))
            side = self.rng.choice(["target", "source"])
            expand = tp.expand_target if side == "target" else tp.expand_source
            steps.append((r, side, tp.render_expr(expand(t, scratch))))
        return Job(f"extract:{name}", {"name": name, "kappa": kappa, "steps": steps},
                   planted)

    def run_recover(self, p):
        t = tp.MultiSingType(tuple(p["entries"]), p["kappa"])
        planted = {tuple(I): a for I, a in p["residual"]}
        with_r = self.db.copy()
        with_r.insert(t.key, t.kappa, _as_expr(planted))
        counts = [tp.count_points(tp.get_model(m), t, with_r) for m in p["models"]]
        without = with_r.copy()
        without.remove(t.key, t.kappa)
        constraints = [(m, tp.get_model(m), n) for m, n in zip(p["models"], counts)]
        return tp.solve_exact(tp.assemble_system(t, without, constraints))

    def check_recover(self, job, out):
        want = {I: Fraction(a) for I, a in job.expect.items()}
        if out.status == "unique":
            return {I: a for I, a in out.solution.items() if a} == want
        if out.status == "underdetermined":
            return refmath.in_affine_span(want, out.solution, out.kernel)
        return False

    def run_extract(self, p):
        scratch = self.db.copy()
        for r, _side, _known in p["steps"]:
            scratch.remove((p["name"],) * r, p["kappa"])
        out = {}
        for r, side, known in p["steps"]:
            t = tp.MultiSingType((p["name"],) * r, p["kappa"])
            out[r] = tp.extract_residual(t, tp.parse_expr(known), side, scratch)
        return out

    def check_extract(self, job, out):
        return all(
            {refmath.c_index(m): c for m, c in out[r].terms.items()}
            == {I: Fraction(a) for I, a in want.items()}
            for r, want in job.expect.items())

    def run_roundtrip(self, p):
        return tp.ResidualDB.loads(self.db.dump())

    def check_roundtrip(self, job, out):
        keys = self.db.keys()
        return out.keys() == keys and all(
            out.get(*k).terms == self.db.get(*k).terms for k in keys)


# -- cli: one `python -m tpcalc.cli ... --json` process per job ------------------

README_JOBS = [
    (["expand", "--type", "A0,A0,A0", "--kappa", "1", "--side", "target"],
     "s_0^3 - 3*s_0*s_1 + 2*s_2 + 2*s_01"),
    (["expand", "--type", "A0,A0,A0", "--kappa", "1", "--side", "source", "--normalized"],
     "1/2*fs_0^2 - 1/2*fs_1 - fs_0*c1 + c1^2 + c2"),
    (["eval", "--model", "veronese-p3", "--expr", "c2"], "6*h^2"),
    (["count", "--model", "dual-surface:3", "--type", "A1,A1,A1"], "45"),
    (["porteous", "--kappa", "-1", "--k", "2"], "c1^2 - c2"),
    (["extract", "--type", "A1,A0", "--kappa", "1", "--side", "source",
      "--known", "fs_0*c2 - 2*c1*c2 - 2*c3"], "types=[A0,A1] kappa=1 R= -2*c1*c2 - 2*c3"),
    (["interp", "--type", "A0,A0,A0", "--kappa", "1",
      "--constraint", "veronese-p3=1", "--constraint", "scroll-q-p3=0"],
     "types=[A0,A0,A0] kappa=1 R= 2*c1^2 + 2*c2"),
    (["oracle", "--curve", "t^2, t^3"], {"delta_degree": 2, "engine_class_degree": "2"}),
    (["count", "--model", "product [2,3] ci [(4,1)] -> [1]", "--type", "A1,A1,A1"], "675"),
]


class Cli(Workload):
    """Interpreter start, argparse and model build on every call: the README
    examples, three verify suites, seeded counts and --db merges."""

    name = "cli"
    tail_pct = 90  # in the dense upper part of the mix, below verify --suite classical
    TIMEOUT = 120
    # with these 4, 21 jobs: an odd count (see Expand.PURE)
    DB_ENTRIES = [("A1", -1, 4, "target"), ("A1", -1, 4, "source"),
                  ("A0", 1, 5, "target"), ("A0", 1, 5, "source")]

    def setup(self):
        os.makedirs(WORK, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.db_files = []
        self.traced = None  # set by the traced pass: a callable building argv

    def _db_job(self, name, kappa, r, side):
        scratch = tp.default_db()
        planted = _fill_db(scratch, self.rng, (name,) * r, kappa)
        tag = f"{self.seed}-{len(self.db_files)}"
        path = os.path.join(WORK, f"cli-{tag}.db")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(
                f"types=[{','.join(names)}] kappa={k} R= {tp.render_expr(_as_expr(R))}\n"
                for (names, k), R in planted.items()))
        self.db_files.append(path)
        values = refmath.SymbolValues(f"cli:{tag}")
        v, w = [None], [None]
        for k in range(1, r + 1):
            terms = scratch.get((name,) * k, kappa).terms
            v.append(refmath.pushed_value(terms, values))
            w.append(refmath.value_of_terms(terms, values))
        want = (refmath.pure_target_value(r, v) if side == "target"
                else refmath.pure_source_value(r, v, w))
        argv = ["expand", "--type", ",".join([name] * r), "--kappa", str(kappa),
                "--side", side, "--db", os.path.relpath(path, ROOT)]
        return Job(f"cli:expand-db-{name}^{r}-{side}", {"argv": argv},
                   {"value": want, "values": values})

    def make_jobs(self):
        rng = self.rng
        jobs = [Job(f"cli:readme-{i}", {"argv": argv}, want)
                for i, (argv, want) in enumerate(README_JOBS)]
        for suite in ("table1", "series", "classical"):
            jobs.append(Job(f"cli:verify-{suite}", {"argv": ["verify", "--suite", suite]},
                            "all-pass"))
        d = rng.randint(3, 8)
        jobs.append(Job("cli:count-salmon", {"argv": [
            "count", "--model", f"dual-surface:{d}", "--type", "A1,A1,A1"]},
            str(tpverify.salmon_count(d))))
        d = rng.randint(4, 9)
        jobs.append(Job("cli:count-roberts", {"argv": [
            "count", "--model", f"web3:{d}", "--type", "A1,A1,A1"]},
            str(tpverify.roberts_count(d))))
        d = rng.randint(2, 9)
        jobs.append(Job("cli:eval-pencil", {"argv": [
            "eval", "--model", f"pencil:{d}", "--type", "A1"]}, f"{3 * (d - 1) ** 2}*H"))
        kappa, k = rng.choice([-1, 0, 1]), 4  # k sets the cost, so it is fixed
        jobs.append(Job("cli:porteous", {"argv": [
            "porteous", "--kappa", str(kappa), "--k", str(k)]},
            {"value": refmath.porteous_value(kappa, k, self.values), "values": self.values}))
        d = rng.choice([4, 5])
        x, y = random_curve(rng, d)
        jobs.append(Job("cli:oracle", {"argv": [
            "oracle", "--curve", f"{refmath.poly_text(x)}, {refmath.poly_text(y)}"]},
            {"delta_degree": (d - 1) * (d - 2), "engine_class_degree": str((d - 1) * (d - 2))}))
        return jobs + [self._db_job(*entry) for entry in self.DB_ENTRIES]

    def run_cli(self, p):
        argv = p["argv"] + ["--json"]
        cmd = (self.traced(argv) if self.traced
               else [sys.executable, "-m", "tpcalc.cli"] + argv)
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=self.TIMEOUT)
        return proc.returncode, proc.stdout

    def check_cli(self, job, out):
        code, stdout = out
        if code != 0:
            return False
        report = json.loads(stdout)
        want, got = job.expect, report["result"]
        if want == "all-pass":
            return bool(report["checks"]) and all(c["pass"] for c in report["checks"])
        if isinstance(want, str):
            return got == want
        if "value" in want:
            return refmath.text_value(got, want["values"]) == want["value"]
        return all(got[k] == v for k, v in want.items())

    def close(self):
        for path in self.db_files:
            if os.path.exists(path):
                os.remove(path)


WORKLOADS = {w.name: w for w in (Expand, Count, Recover, Cli)}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
