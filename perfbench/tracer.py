"""Span recorder for traced runs, installed from outside the library.

``Recorder.install`` replaces each public entry point of the tpcalc layers by
a wrapper, in every tpcalc module namespace (and class) that binds it, so
``tpcore.evaluate`` and ``interp.evaluate`` are both traced.  A wrapper
records a span only while ``active`` is set, i.e. inside a job's timed call;
checks and set-up run untraced.  Spans stay in memory; self time (a span
minus the time its child spans cover) and counts are accumulated as spans
close, and ``write_spans`` writes the raw spans out once at the end.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import weakref
from collections import defaultdict

# (module, attribute, span name, counter name, counter increment); a span
# name of None only counts.  An increment is called as inc(result, *args).
FUNCTIONS = [
    ("tpcore", "expand_target", "tpcore.expand", None, None),
    ("tpcore", "expand_source", "tpcore.expand", None, None),
    ("tpcore", "extract_residual", "tpcore.expand", None, None),
    ("tpcore", "set_partitions", None, "tpcore.partitions", lambda out, r: len(out)),
    ("tpcore", "thom_porteous", "tpcore.porteous", None, None),
    ("tpcore", "evaluate", "tpcore.evaluate", "tpcore.evaluate.monomials",
     lambda out, expr, *a, **k: len(expr.terms)),
    ("symbolic", "parse_expr", "symbolic.text", None, None),
    ("symbolic", "render_expr", "symbolic.text", None, None),
    ("chow", "product_projective", "chow.build", None, None),
    ("chow", "complete_intersection", "chow.build", None, None),
    ("chow", "integrate_on", "chow.integrate", None, None),
    ("interp", "assemble_system", "interp.assemble", None, None),
    ("interp", "solve_exact", "interp.solve", "interp.solve.cells",
     lambda out, system: len(system.rows) * len(system.unknowns)),
    ("oracle", "resultant", "oracle.resultant", None, None),
    ("oracle", "poly_mul", None, "oracle.poly_mul.calls", lambda out, p, q: 1),
]


def _pairs(cls_name):
    def count(out, a, b):
        return len(a.terms) * len(b.terms) if type(b).__name__ == cls_name else 0
    return count


# (module, class, method, span name, counter name, counter increment)
METHODS = [
    ("algebra", "GradedClass", "__mul__", "algebra.mul", "algebra.mul.term_pairs",
     _pairs("GradedClass")),
    ("algebra", "GradedClass", "invert", "algebra.invert", None, None),
    ("symbolic", "SymbolicExpr", "__mul__", "symbolic.mul", "symbolic.mul.term_pairs",
     _pairs("SymbolicExpr")),
    ("maps", "MapModel", "quotient_chern", "maps.quotient_chern", None, None),
    ("maps", "MapModel", "landweber_novikov", "maps.ln", None, None),
]


def _canon(index) -> tuple:
    index = [int(i) for i in index]
    while index and index[-1] == 0:
        index.pop()
    return tuple(index)


class Recorder:
    def __init__(self):
        self.active = False
        self.job = -1
        self.spans: list = []  # (job, name, parent span, start, end)
        self.stack: list = []  # (span index, [time covered by children])
        self.calls: dict = defaultdict(int)
        self.self_s: dict = defaultdict(float)
        self.job_self_s: dict = defaultdict(float)  # the current call's, uncorrected
        self.counters: dict = defaultdict(int)
        self._seen_ln = weakref.WeakKeyDictionary()  # model -> indices queried
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _span(self, name, fn, args, kwargs):
        idx = len(self.spans)
        parent = self.stack[-1][0] if self.stack else -1
        covered = [0.0]
        self.stack.append((idx, covered))
        self.spans.append(None)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (self.job, name, parent, start, end)
            self.calls[name] += 1
            self.job_self_s[name] += (end - start) - covered[0]
            if self.stack:
                self.stack[-1][1][0] += end - start

    def end_job(self, factor: float) -> None:
        """Add the finished call's self times, host-speed corrected."""
        for name, seconds in self.job_self_s.items():
            self.self_s[name] += seconds * factor
        self.job_self_s.clear()

    def _wrap(self, fn, span, counter, inc):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            out = fn(*args, **kwargs) if span is None else rec._span(span, fn, args, kwargs)
            if counter:
                rec.counters[counter] += inc(out, *args, **kwargs)
            return out

        return wrapper

    def _wrap_ln(self, fn):
        rec = self

        @functools.wraps(fn)
        def wrapper(model, index):
            if rec.active:
                seen = rec._seen_ln.setdefault(model, set())
                key = _canon(index)
                if key not in seen:
                    seen.add(key)
                    rec.counters["maps.ln.misses"] += 1
                return rec._span("maps.ln", fn, (model, index), {})
            return fn(model, index)

        return wrapper

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in every tpcalc namespace that binds it."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "tpcalc" or name.startswith("tpcalc.")}
        namespaces = [vars(m) for m in mods.values()]
        classes = [v for ns in namespaces for v in ns.values() if isinstance(v, type)
                   and getattr(v, "__module__", "").startswith("tpcalc")]

        def rebind(orig, wrapper):
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
            for cls in set(classes):
                for attr, value in list(vars(cls).items()):
                    if value is orig:
                        self._undo.append((cls, attr, orig))
                        setattr(cls, attr, wrapper)

        for mod, attr, span, counter, inc in FUNCTIONS:
            orig = getattr(mods["tpcalc." + mod], attr)
            rebind(orig, self._wrap(orig, span, counter, inc))
        for mod, cls_name, meth, span, counter, inc in METHODS:
            orig = vars(getattr(mods["tpcalc." + mod], cls_name))[meth]
            wrapper = (self._wrap_ln(orig) if span == "maps.ln"
                       else self._wrap(orig, span, counter, inc))
            rebind(orig, wrapper)
        # each map model's own pushforward and pullback
        base = getattr(mods["tpcalc.maps"], "MapModel")
        todo = list(base.__subclasses__())
        while todo:
            cls = todo.pop()
            todo += cls.__subclasses__()
            for meth in ("pushforward", "pullback"):
                if meth in vars(cls):
                    orig = vars(cls)[meth]
                    rebind(orig, self._wrap(orig, "maps.push_pull", None, None))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counters": dict(self.counters)}

    def write_spans(self, path: str, extra: list = ()) -> None:
        """One JSON array per line: job, name, parent span, start, end (s)."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in list(self.spans) + list(extra):
                fh.write(json.dumps(span) + "\n")


def merge(total: dict, part: dict) -> dict:
    for key in ("calls", "self_s", "counters"):
        bucket = total.setdefault(key, {})
        for name, value in part.get(key, {}).items():
            bucket[name] = bucket.get(name, 0) + value
    return total


def layer_metrics(agg: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json from merged summaries."""
    calls = agg.get("calls", {})
    self_ms = {k: v * 1000.0 for k, v in agg.get("self_s", {}).items()}
    counters = agg.get("counters", {})
    ln_calls = calls.get("maps.ln", 0)
    ln_misses = counters.get("maps.ln.misses", 0)
    return {
        "algebra.mul.calls": calls.get("algebra.mul", 0),
        "algebra.mul.self_ms": self_ms.get("algebra.mul", 0.0),
        "algebra.mul.term_pairs": counters.get("algebra.mul.term_pairs", 0),
        "algebra.invert.calls": calls.get("algebra.invert", 0),
        "algebra.invert.self_ms": self_ms.get("algebra.invert", 0.0),
        "symbolic.mul.calls": calls.get("symbolic.mul", 0),
        "symbolic.mul.self_ms": self_ms.get("symbolic.mul", 0.0),
        "symbolic.mul.term_pairs": counters.get("symbolic.mul.term_pairs", 0),
        "symbolic.text.self_ms": self_ms.get("symbolic.text", 0.0),
        "tpcore.expand.calls": calls.get("tpcore.expand", 0),
        "tpcore.expand.self_ms": self_ms.get("tpcore.expand", 0.0),
        "tpcore.partitions": counters.get("tpcore.partitions", 0),
        "tpcore.porteous.self_ms": self_ms.get("tpcore.porteous", 0.0),
        "tpcore.evaluate.calls": calls.get("tpcore.evaluate", 0),
        "tpcore.evaluate.self_ms": self_ms.get("tpcore.evaluate", 0.0),
        "tpcore.evaluate.monomials": counters.get("tpcore.evaluate.monomials", 0),
        "maps.quotient_chern.self_ms": self_ms.get("maps.quotient_chern", 0.0),
        "maps.ln.calls": ln_calls,
        "maps.ln.misses": ln_misses,
        "maps.ln.hit_ratio": (ln_calls - ln_misses) / ln_calls if ln_calls else 0.0,
        "maps.ln.self_ms": self_ms.get("maps.ln", 0.0),
        "maps.push_pull.self_ms": self_ms.get("maps.push_pull", 0.0),
        "chow.build.calls": calls.get("chow.build", 0),
        "chow.build.self_ms": self_ms.get("chow.build", 0.0),
        "chow.integrate.self_ms": self_ms.get("chow.integrate", 0.0),
        "interp.assemble.self_ms": self_ms.get("interp.assemble", 0.0),
        "interp.solve.self_ms": self_ms.get("interp.solve", 0.0),
        "interp.solve.cells": counters.get("interp.solve.cells", 0),
        "oracle.resultant.calls": calls.get("oracle.resultant", 0),
        "oracle.resultant.self_ms": self_ms.get("oracle.resultant", 0.0),
        "oracle.poly_mul.calls": counters.get("oracle.poly_mul.calls", 0),
    }
