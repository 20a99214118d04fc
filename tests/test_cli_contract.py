"""The CLI's contract on generated input.

Every call of `cli.main`, for all eight subcommands, ends under a fixed
deadline with exit 0, 1 or 2 and no traceback, and an exit 2 comes with
``error:`` on stderr.

The strategies draw each size limit that exists, read from its constant, at
the limit and one past it: |--kappa| and a declared ell (`cli.KAPPA_MAX`),
the Porteous size (`cli.PORTEOUS_MAX_K`), the residual degree of `interp`
(`cli.INTERP_MAX_DEGREE`), a curve's degree and digits
(`cli.ORACLE_MAX_DEGREE`, `cli.ORACLE_MAX_DIGITS`), the ring size
(`chow.MAX_RING_SIZE`) and the digits of a number (`grammar.MAX_DIGITS`) in
an expression, a model description, a curve, a count and --db text.  Beside
them they draw huge exponents and indices, and malformed types, models,
curves and --db text.  Two axes have no bound yet and are left out until
their bounds land: the number of distinct divisors of a model and the tuple
size of a type (ROADMAP item 7).
"""

import io
import os
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings
from hypothesis import strategies as st

from tpcalc import cli
from tpcalc.chow import MAX_RING_SIZE
from tpcalc.grammar import MAX_DIGITS

DEADLINE_S = 5.0  # the slowest call, interp at INTERP_MAX_DEGREE, takes 0.7-1.2 s on a 2-vCPU Xeon VM

K, DEG, DIG = cli.KAPPA_MAX, cli.ORACLE_MAX_DEGREE, cli.ORACLE_MAX_DIGITS
AT_DIGITS, PAST_DIGITS = "9" * MAX_DIGITS, "9" * (MAX_DIGITS + 1)


def _ring_of(size: int) -> str:
    """A product of two projective spaces whose ring has `size` monomials."""
    p = next(p for p in range(2, size + 1) if size % p == 0)
    return f"product [{p - 1},{size // p - 1}]"


def _dense_curve(degree: int, digits: int) -> str:
    """A curve with every coefficient up to `degree` nonzero and `digits` digits."""
    top = 10 ** digits - 1
    x = " + ".join(f"{top - 7 * i}*t^{i}" for i in range(degree + 1))
    y = " - ".join(f"{top - 11 * i}*t^{i}" for i in range(degree, -1, -1))
    return f"{x}, {y}"


def _mostly(valid, *other):
    """valid three draws in four, else one of other."""
    return st.sampled_from([True, True, True, False]).flatmap(
        lambda pick: valid if pick else st.one_of(*other))


def _ints(limit: int):
    """argv text of an integer: small values, the limit and one past it in both
    signs, huge values and text that is no integer."""
    edges = [limit, limit + 1, -limit, -limit - 1]
    return _mostly(st.integers(-3, 3).map(str), st.sampled_from(edges).map(str),
                   st.integers().map(str), st.sampled_from(["", "x", "1.5", "1e3", "--1", " 2"]))


KAPPAS = _ints(K)
TYPES = _mostly(st.sampled_from(["A0", "A0,A0", "A0,A0,A0", "A1", "A1,A1", "A1,A1,A1", "A0,A1",
                                 "A1,A0", "A0,A0,A0,A0"]),
                st.sampled_from(["B", "E8", "", "A0,,A0", ",A0", "A0;A1", "A0 A0", "a" * 5000]),
                st.text(alphabet="A01B,; ", max_size=12))
MODELS = _mostly(st.sampled_from([
    "veronese-p3", "scroll-q-p3", "ratcurve:3", "pencil:4", "web3:4", "dual-surface:3",
    "product [2,1] ci [(3,1)] -> [1]", f"{_ring_of(MAX_RING_SIZE)} -> [1]"]), st.sampled_from([
    "web3:0", "web3:-1", "web3:x", f"web3:{PAST_DIGITS}", "k3-surface", "",
    "product [2,1] -> [5]", "product [2,1] -> [0,0]",
    "product [2,1] ci [(1,-1)] -> [1]", "product [2,1] ci [(1,1,1)] -> [1]", "product [] -> [0]",
    f"{_ring_of(MAX_RING_SIZE + 1)} -> [1]", f"product [{AT_DIGITS},1] -> [1]",
    f"product [{PAST_DIGITS},1] -> [1]", f"product [2,1] ci [({AT_DIGITS},1)] -> [1]",
    f"product [2,1] ci [({PAST_DIGITS},1)] -> [1]"]),
    st.text(alphabet="product[]ci(),-> 0123:", max_size=30))
EXPRS = _mostly(st.sampled_from([
    "c1", "c2", "s_0", "s_1", "s_01", "fs_0*c1", "c1^60", "c1^1500", "s_1^99999999999",
    "s_1^99999999999*s_0 + s_1^2", "s_(99999999999)", "c99999999999", "fs_(0,0,99999)"]),
    st.sampled_from(["c0", "c-1", "s_1^-1", "1/0", "x", "", f"{AT_DIGITS}*c1",
                     f"{PAST_DIGITS}*c1", f"c1^{AT_DIGITS}", f"c1^{PAST_DIGITS}"]),
    st.text(alphabet="cfs_0123456789^*+-/() ", max_size=20))
CURVES = _mostly(st.sampled_from([
    "t^2, t^3", "t^3 - t, t^4 + 2*t", f"t^{DEG} + t, t^{DEG - 1} + 1",
    f"{10 ** DIG - 1}*t^2, t^3", f"1/{10 ** DIG - 1}*t^2, t^3"]), st.sampled_from([
    f"t^{DEG + 1}, t^3", f"{10 ** DIG}*t^2, t^3", f"1/{10 ** DIG}*t^2, t^3", "1, t^2", "1, 1",
    "t, t", "t^2", "", "x^2, t", "t^99999999999, t", f"{AT_DIGITS}*t, t^2",
    f"{PAST_DIGITS}*t, t^2"]),
    st.text(alphabet="t^0123456789,+-*/ ", max_size=20))
DB_TEXTS = _mostly(st.sampled_from([
    "", "# a comment", "types=[A1] kappa=1 R= 5*c2", "types=[A1] kappa=-1 R= c1^2 - c2",
    f"type=B kappa=1 ell={K}", f"types=[A1] kappa=1 R= {AT_DIGITS}*c2"]), st.sampled_from([
    "garbage", "types=[A1] kappa=1 R= c1", "types=[A0,A0,A0,A0,A0] kappa=1 R= c1^4",
    f"type=B kappa=1 ell={K + 1}", f"type=B kappa={K + 1} ell=1", "type=A0 kappa=1 ell=1",
    f"types=[A1] kappa=1 R= {PAST_DIGITS}*c2", f"types=[A1] kappa={PAST_DIGITS} R= c2",
    "types=[A1] kappa=1 R= c2^99999999999"]),
    st.text(alphabet="types=[A01B,] kapl R-c^*12\n", max_size=40))
SIDES = st.sampled_from(["source", "target", "both"])
FLAGS = _mostly(st.just([]), st.sampled_from([["--json"], ["--normalized"], ["--side"],
                                               ["--bogus"], ["--json", "--json"]]))


# (type, kappa) pairs that name store entries, and (model, type) pairs whose count
# is a number of points
TYPED = _mostly(st.sampled_from([("A0,A0", "1"), ("A0,A0,A0", "1"), ("A1", "1"), ("A0,A1", "1"),
                                 ("A1,A0", "1"), ("A1", "-1"), ("A1,A1,A1", "-1"),
                                 ("A0,A0", "7"), ("A0,A0,A0", str(K))]),
                st.tuples(TYPES, KAPPAS))
COUNTED = _mostly(st.sampled_from([("veronese-p3", "A0,A0,A0"), ("scroll-q-p3", "A0,A0,A0"),
                                   ("web3:4", "A1,A1,A1"), ("dual-surface:3", "A1,A1,A1"),
                                   ("pencil:4", "A1,A1"), ("ratcurve:3", "A0,A0")]),
                  st.tuples(MODELS, TYPES))


@st.composite
def argvs(draw):
    """(argv, --db text or None) for one call, over all eight subcommands."""
    cmd = draw(_mostly(st.sampled_from(["expand", "eval", "count", "porteous", "extract",
                                        "interp", "oracle", "verify"]),
                       st.sampled_from(["", "frobnicate", "--json"])))
    argv = [cmd]
    if cmd in ("expand", "extract", "interp"):
        type_, kappa = draw(TYPED)
        argv += ["--type", type_, "--kappa", kappa]
    if cmd == "eval":  # exactly one of --expr and --type, or neither or both
        argv += ["--model", draw(MODELS)]
        inputs = draw(_mostly(st.sampled_from(["expr", "type"]),
                              st.sampled_from(["", "expr type"])))
        argv += ["--expr", draw(EXPRS)] if "expr" in inputs else []
        argv += ["--type", draw(TYPES)] if "type" in inputs else []
    if cmd == "count":
        model, type_ = draw(COUNTED)
        argv += ["--model", model, "--type", type_]
    if cmd in ("expand", "eval", "extract") and draw(st.booleans()):
        argv += ["--side", draw(SIDES)]
    if cmd == "extract":
        argv += ["--side", "target", "--known", draw(EXPRS)]
    if cmd == "porteous":
        argv += ["--kappa", draw(KAPPAS), "--k", draw(_ints(cli.PORTEOUS_MAX_K))]
    if cmd == "interp":
        for _ in range(draw(st.integers(0, 2))):
            model = draw(_mostly(st.sampled_from(["web3:4", "dual-surface:3", "pencil:4"]),
                                 MODELS))
            count = draw(_mostly(st.sampled_from(["45", "675", "12"]), st.sampled_from(
                ["x", "1/2", "1/0", "-3", "1e9", "", AT_DIGITS, PAST_DIGITS])))
            argv += ["--constraint", f"{model}={count}"]
    if cmd == "oracle":
        argv += ["--curve", draw(CURVES)]
    if cmd == "verify":
        argv += ["--suite", draw(_mostly(st.sampled_from(["table1", "classical", "series",
                                                          "properties"]),
                                         st.sampled_from(["tables", ""])))]
    db = None
    if cmd in ("expand", "eval", "count", "extract", "interp") and draw(st.booleans()):
        db = draw(DB_TEXTS)
    return argv + draw(FLAGS), db


def call(argv: list[str], db_text: str | None) -> tuple[int, str, float]:
    """(exit code, stderr, seconds) of one in-process call of cli.main."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if db_text is not None:
            argv = argv + ["--db", os.path.join(tmp, "extra.db")]
            with open(argv[-1], "w", encoding="utf-8") as fh:
                fh.write(db_text)
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        return code, err.getvalue(), time.perf_counter() - start


@given(argvs())
@settings(max_examples=200, deadline=None)
# each limit at its value and one past it, so each is run whatever is drawn
@example((["expand", "--type", "A0,A0,A0", "--kappa", str(K)], None))
@example((["expand", "--type", "A1", "--kappa", str(-K - 1)], None))
@example((["expand", "--type", "B", "--kappa", "1"], f"type=B kappa=1 ell={K}\n"
          f"types=[B] kappa=1 R= c1^{K - 1}"))
@example((["expand", "--type", "B", "--kappa", "1"], f"type=B kappa=1 ell={K + 1}"))
@example((["porteous", "--kappa", "1", "--k", str(cli.PORTEOUS_MAX_K)], None))
@example((["porteous", "--kappa", "1", "--k", str(cli.PORTEOUS_MAX_K + 1)], None))
@example((["interp", "--type", "A0,A0", "--kappa", str(cli.INTERP_MAX_DEGREE)], None))
@example((["interp", "--type", "A0,A0", "--kappa", str(cli.INTERP_MAX_DEGREE + 1)], None))
@example((["oracle", "--curve", _dense_curve(DEG, DIG)], None))
@example((["oracle", "--curve", _dense_curve(DEG + 1, DIG)], None))
@example((["oracle", "--curve", _dense_curve(DEG, DIG + 1)], None))
@example((["eval", "--model", f"{_ring_of(MAX_RING_SIZE)} -> [1]", "--expr", "c1^60"], None))
@example((["eval", "--model", f"{_ring_of(MAX_RING_SIZE + 1)} -> [1]", "--expr", "c1"], None))
@example((["eval", "--model", "veronese-p3", "--expr", f"{AT_DIGITS}*c1"], None))
@example((["eval", "--model", "veronese-p3", "--expr", f"{PAST_DIGITS}*c1"], None))
@example((["eval", "--model", f"product [2,1] ci [({AT_DIGITS},1)] -> [1]", "--expr", "c1"],
          None))
@example((["interp", "--type", "A1,A1,A1", "--kappa", "-1", "--constraint",
           f"web3:4={PAST_DIGITS}"], None))
@example((["expand", "--type", "A1", "--kappa", "1"], f"types=[A1] kappa=1 R= {AT_DIGITS}*c2"))
@example((["eval", "--model", "web3:4", "--expr", "s_1^99999999999"], None))
@example((["eval", "--model", "veronese-p3", "--expr", "c1^1500"], None))
def test_every_call_exits_0_1_or_2_in_time_without_a_traceback(case):
    argv, db_text = case
    code, err, seconds = call(argv, db_text)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 2:
        assert "error:" in err, (argv, err)
    assert seconds < DEADLINE_S, (argv, seconds)
