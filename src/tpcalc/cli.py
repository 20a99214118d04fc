"""Command-line front end.

Subcommands: expand, eval, count, porteous, extract, interp, oracle, verify.
Exit codes: 0 success, 1 a mathematical check failed (a `count` that is
not a non-negative integer included) or stdout was closed before the report
was written, 2 usage errors (unknown subcommand,
model or type, an unreadable --db, an input above a size limit).

`main` makes every report: its `inputs` are the parsed options less `--db`
and `--json`, keyed by dest (`constraints` for `--constraint`).  It loads the
store once for a subcommand that takes `--db` and hands it to the handler,
which only fills in `result` or `checks`.  `--json` emits the report as
{command, inputs, result, checks, elapsed_ms}, the same payload as the text
output; timing lives outside the checked payload so reports are
deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from . import verify as verify_suites
from .algebra import render_class
from .interp import assemble_system, solve_exact
from .maps import get_model, model_names
from .oracle import CurveParam, double_point_degree, poly_str
from .symbolic import parse_expr, render_expr
from .tpcore import (
    MissingResidual,
    MultiSingType,
    count_points,
    default_db,
    evaluate,
    expand_source,
    expand_target,
    extract_residual,
    multi_type,
    residual_line,
    sing_ell,
    thom_porteous,
)


PORTEOUS_MAX_K = 8  # k = 8: about 0.2 s with rendering; each step beyond about 6x more
KAPPA_MAX = 1000  # |--kappa|; s-indices are dense: A0^3 at 1000 takes about 0.8 s
INTERP_MAX_DEGREE = 30  # ell(t) - kappa; 30 takes about a second, each step of 2 about 1.5x more
ORACLE_MAX_DEGREE = 14  # a degree-14 curve takes about a second, d = 16 about 2.5 s
ORACLE_MAX_DIGITS = 4  # per coordinate over a common denominator; 2 s at degree 14


class UsageError(ValueError):
    pass


@dataclass
class Report:
    command: str
    inputs: dict
    result: object = None
    checks: list = field(default_factory=list)
    elapsed_ms: float | None = None

    @property
    def all_pass(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, default=str)

    def to_text(self) -> str:
        lines = []
        if self.result is not None:
            if isinstance(self.result, dict):
                for key, value in self.result.items():
                    lines.append(f"{key}: {value}")
            else:
                lines.append(str(self.result))
        for c in self.checks:
            status = "PASS" if c["pass"] else "FAIL"
            lines.append(
                f"{status} {c['name']}: expected {c['expected']}, got {c['got']}"
            )
        if self.elapsed_ms is not None:
            lines.append(f"# elapsed: {self.elapsed_ms:.1f} ms")
        return "\n".join(lines)


def _load_db(path: str | None):
    db = default_db()
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read --db {path}: {exc.strerror}") from None
        db = type(db).loads(text, base=db)
    return db


def _multi_type(spec: str, kappa: int, db) -> MultiSingType:
    """multi_type, refusing an entry whose ell is above KAPPA_MAX: A0's ell is kappa,
    and an s-index of degree ell is dense, so a declared ell lies on the same axis."""
    t = multi_type(spec, kappa, db)
    for name in dict.fromkeys(t.entries):
        if (ell := sing_ell(name, kappa, db)) > KAPPA_MAX:
            raise UsageError(f"{name} at kappa={kappa} has ell={ell}, beyond the limit of "
                             f"{KAPPA_MAX}; expansions grow with ell")
    return t


def _expand(t: MultiSingType, side: str, normalized: bool, db):
    """The expansion on one side, divided by #Aut (of the tail) if normalized."""
    if side == "target":
        expr = expand_target(t, db)
        return expr / t.aut_order if normalized else expr
    expr = expand_source(t, db)
    return expr / t.aut_order_rest if normalized else expr


def _cmd_expand(args, rep: Report, db) -> None:
    t = _multi_type(args.type, args.kappa, db)
    rep.result = render_expr(_expand(t, args.side, args.normalized, db))


def _cmd_eval(args, rep: Report, db) -> None:
    model = get_model(args.model)
    if (args.expr is None) == (args.type is None):
        raise UsageError("eval needs exactly one of --expr or --type")
    if args.expr is not None:
        if args.normalized:
            raise UsageError("--normalized applies only to --type")
        expr = parse_expr(args.expr)
    else:
        t = _multi_type(args.type, model.kappa, db)
        expr = _expand(t, args.side or "target", args.normalized, db)
    rep.result = render_class(evaluate(expr, model, side=args.side))


def _cmd_count(args, rep: Report, db) -> None:
    model = get_model(args.model)
    n = count_points(model, _multi_type(args.type, model.kappa, db), db)
    rep.result = str(n)
    if n < 0 or n.denominator != 1:  # a wrong db entry or a non-generic map
        rep.checks.append({"name": "count", "expected": "a non-negative integer",
                           "got": str(n), "pass": False})


def _cmd_porteous(args, rep: Report) -> None:
    if args.k > PORTEOUS_MAX_K:
        raise UsageError(f"--k {args.k} is above the limit of {PORTEOUS_MAX_K}; "
                         "the determinant's cost grows about 2^k * k")
    rep.result = render_expr(thom_porteous(args.kappa, args.k))


def _cmd_extract(args, rep: Report, db) -> None:
    t = _multi_type(args.type, args.kappa, db)
    R = extract_residual(t, parse_expr(args.known), args.side, db)
    rep.result = residual_line(t.key, t.kappa, R)


def _cmd_interp(args, rep: Report, db) -> None:
    t = _multi_type(args.type, args.kappa, db)
    if t.ell_total - t.kappa > INTERP_MAX_DEGREE:
        raise UsageError(f"the residual degree ell - kappa = {t.ell_total - t.kappa} is above "
                         f"the limit of {INTERP_MAX_DEGREE}; the unknowns are the Chern "
                         "monomials of that degree")
    constraints = []
    for spec in args.constraints:
        name, _, value = spec.partition("=")
        if not value:
            raise UsageError(f"constraint {spec!r} must look like model=count")
        try:
            count = Fraction(value)
        except ZeroDivisionError:
            raise UsageError(f"constraint {spec!r} has a zero denominator") from None
        except ValueError:
            count = None
        if count is None or count < 0 or count.denominator != 1:
            raise UsageError(f"constraint {spec!r} needs a non-negative integer count")
        constraints.append((name.strip(), get_model(name.strip()), count))
    system = assemble_system(t, db, constraints)
    outcome = solve_exact(system)
    if outcome.status == "unique":
        rep.result = residual_line(t.key, t.kappa, outcome.residual())
    elif outcome.status == "underdetermined":
        label = dict(zip(system.unknowns, system.describe_unknowns()))
        kern = ["; ".join(f"{label[I]}={a}" for I, a in vec.items())
                for vec in outcome.kernel]
        rep.result = {
            "status": "underdetermined",
            "particular": {label[I]: str(a) for I, a in outcome.solution.items()},
            "kernel": kern,
        }
    else:
        rep.result = {"status": "inconsistent", "violated": outcome.violated}


def _cmd_oracle(args, rep: Report) -> None:
    too_many_digits = UsageError("a coefficient or the common denominator of a curve "
                                 f"coordinate has more than {ORACLE_MAX_DIGITS} digits")
    # 10000/10000*t reduces below the limit, but Python 3.11+ refuses to read
    # a number of more than 4300 digits as an int
    if re.search(r"\d{4301}", args.curve):
        raise too_many_digits
    curve = CurveParam.parse(args.curve, max_degree=ORACLE_MAX_DEGREE)
    for p in (curve.x, curve.y):  # p = (integer coefficients) / den
        den = math.lcm(*(a.denominator for a in p))
        if max([den, *(abs(a * den) for a in p)]) >= 10 ** ORACLE_MAX_DIGITS:
            raise too_many_digits
    deg = double_point_degree(curve)
    rep.result = {
        "x": poly_str(curve.x),
        "y": poly_str(curve.y),
        "degree": curve.degree,
        "immersive": curve.is_immersive(),
        "delta_degree": deg,
        "engine_class_degree": str(verify_suites.engine_double_point_degree(curve.degree)),
    }


def _cmd_verify(args, rep: Report) -> None:
    rep.checks = verify_suites.run_suite(args.suite)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tpcalc",
        description="Exact multi-singularity class expansions, evaluations "
                    "and enumerative counts.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_db(p):
        p.add_argument("--db", help="residual-db file merged over the built-in store")

    p = sub.add_parser("expand", help="print a multi-singularity expansion")
    p.add_argument("--type", required=True, help="comma-separated names, e.g. A0,A0,A1")
    p.add_argument("--kappa", type=int, required=True)
    p.add_argument("--side", choices=["source", "target"], default="target")
    p.add_argument("--normalized", action="store_true",
                   help="divide by #Aut (target) or #Aut of the tail (source)")
    add_db(p)
    p.set_defaults(fn=_cmd_expand)

    p = sub.add_parser("eval", help="evaluate an expression on a named model")
    p.add_argument("--model", required=True,
                   help=f"one of: {', '.join(model_names())}")
    p.add_argument("--expr", help="polynomial in c<j>, s_<digits>, fs_<digits>")
    p.add_argument("--type", help="expand this multi-type instead of --expr")
    p.add_argument("--side", choices=["source", "target"])
    p.add_argument("--normalized", action="store_true")
    add_db(p)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("count", help="count points of a zero-dimensional locus")
    p.add_argument("--model", required=True)
    p.add_argument("--type", required=True)
    add_db(p)
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("porteous", help="corank-1 determinantal polynomial")
    p.add_argument("--kappa", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=_cmd_porteous)

    p = sub.add_parser("extract", help="invert an expansion to its residual")
    p.add_argument("--type", required=True)
    p.add_argument("--kappa", type=int, required=True)
    p.add_argument("--side", choices=["source", "target"], required=True)
    p.add_argument("--known", required=True, help="the known expansion")
    add_db(p)
    p.set_defaults(fn=_cmd_extract)

    p = sub.add_parser("interp", help="solve for a residual from model counts")
    p.add_argument("--type", required=True)
    p.add_argument("--kappa", type=int, required=True)
    p.add_argument("--constraint", action="append", default=[], dest="constraints",
                   metavar="MODEL=COUNT", help="may be repeated")
    add_db(p)
    p.set_defaults(fn=_cmd_interp)

    p = sub.add_parser("oracle", help="resultant double-point count for a curve")
    p.add_argument("--curve", required=True, help="e.g. 't^2, t^3'")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True,
                   choices=list(verify_suites.SUITES))
    p.set_defaults(fn=_cmd_verify)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true", help="structured output")
        p.set_defaults(subparser=p)  # main prints the failing subcommand's usage
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        if abs(getattr(args, "kappa", 0)) > KAPPA_MAX:
            raise UsageError(f"--kappa {args.kappa} is beyond the limit of {KAPPA_MAX} "
                             "in absolute value; expansions grow with |kappa|")
        inputs = {k: v for k, v in vars(args).items()
                  if k not in ("cmd", "fn", "subparser", "db", "json")}
        report = Report(args.cmd, inputs)
        if hasattr(args, "db"):
            args.fn(args, report, _load_db(args.db))
        else:
            args.fn(args, report)
    except (ValueError, MissingResidual) as exc:
        print(f"error: {exc}", file=sys.stderr)
        args.subparser.print_usage(sys.stderr)
        return 2
    report.elapsed_ms = (time.perf_counter() - started) * 1000.0
    try:
        print(report.to_json() if args.json else report.to_text())
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early; point stdout at devnull so that the flush
        # at exit cannot fail again (the note on SIGPIPE in the signal module docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0 if report.all_pass else 1


if __name__ == "__main__":
    raise SystemExit(main())
