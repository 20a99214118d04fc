"""Acceptance criteria, one test per criterion, all at tolerance zero.

Runnable two ways: under pytest, or directly (`python tests/test_acceptance.py`)
to get one PASS/FAIL line per criterion.
"""

import random
from fractions import Fraction

from tpcalc.chow import integrate_on
from tpcalc.maps import get_model
from tpcalc.oracle import CurveParam, OracleError, double_point_resultant, poly
from tpcalc.symbolic import c, parse_expr, s, sify
from tpcalc.tpcore import (
    MultiSingType,
    count_points,
    default_db,
    evaluate,
    expand_source,
    expand_target,
    extract_residual,
    get_sing_type,
    multi_type,
    thom_porteous,
    verify_generating_series,
)
from tpcalc.interp import assemble_system, solve_exact
from tpcalc.oracle import double_point_degree
from tpcalc.verify import (
    engine_double_point_degree,
    projection_formula_holds,
    roberts_count,
    salmon_count,
)

TABLE1 = [
    ("A0,A0", "fs_0 - c1", False),
    ("A1", "c2", False),
    ("A0,A0,A0", "1/2*fs_0^2 - 1/2*fs_1 - fs_0*c1 + c1^2 + c2", False),
    ("A0,A1", "fs_01 - 2*c1*c2 - 2*c3", False),
    ("A1,A0", "fs_0*c2 - 2*c1*c2 - 2*c3", True),
    ("A0,A0,A0,A0",
     "1/6*fs_0^3 - 1/2*fs_0*fs_1 + 1/3*fs_2 + 1/3*fs_01 - 1/2*fs_0^2*c1 "
     "+ 1/2*fs_1*c1 + fs_0*c1^2 + fs_0*c2 - c1^3 - 3*c1*c2 - 2*c3", True),
]


def criterion_01_table1():
    """Source expansions normalized by the tail symmetry reproduce all six
    published rows; the pair row and the quadruple row via extraction."""
    db = default_db()
    for spec, text, via_extraction in TABLE1:
        t = multi_type(spec, 1)
        expected = parse_expr(text)
        if via_extraction:
            scratch = db.copy()
            scratch.remove(t.key, 1)
            extracted = extract_residual(
                t, expected * t.aut_order_rest, "source", scratch)
            assert extracted == db.get(t.key, 1), spec
            got = expand_source(t, scratch) / t.aut_order_rest
        else:
            got = expand_source(t, db) / t.aut_order_rest
        assert got == expected, spec
    # the two orders of the mixed pair extract to one and the same residual
    db2 = default_db()
    r_ab = extract_residual(multi_type("A0,A1", 1),
                            parse_expr("fs_01 - 2*c1*c2 - 2*c3"), "source",
                            db2.copy())
    r_ba = extract_residual(multi_type("A1,A0", 1),
                            parse_expr("fs_0*c2 - 2*c1*c2 - 2*c3"), "source",
                            db2.copy())
    assert r_ab == r_ba


def criterion_02_target_kappa_one():
    db = default_db()
    assert expand_target(multi_type("A0,A0", 1), db) == s() ** 2 - s(1)
    assert expand_target(multi_type("A0,A0,A0", 1), db) == (
        s() ** 3 - 3 * s() * s(1) + 2 * s(2) + 2 * s(0, 1)
    )


def criterion_03_target_kappa_minus_one():
    db = default_db()
    n1 = s(2) - s(0, 1)
    assert expand_target(multi_type("A1", -1), db) == n1

    pushed_pair = -7 * s(3) + 8 * s(1, 1) - s(0, 0, 1)
    assert expand_target(multi_type("A1,A1", -1), db) == pushed_pair + n1 ** 2

    pushed_triple = (138 * s(4) - 158 * s(2, 1) + 2 * s(0, 2)
                     + 20 * s(1, 0, 1) - 2 * s(0, 0, 0, 1))
    expected = pushed_triple + 3 * n1 * pushed_pair + n1 ** 3
    assert expand_target(multi_type("A1,A1,A1", -1), db) == expected


def criterion_04_salmon():
    db = default_db()
    t = multi_type("A1,A1,A1", -1)
    for d in range(3, 7):
        got = count_points(get_model(f"dual-surface:{d}"), t, db)
        assert got == salmon_count(d), d
    assert salmon_count(3) == 45


def criterion_05_roberts():
    db = default_db()
    t = multi_type("A1,A1,A1", -1)
    for d in range(4, 9):
        got = count_points(get_model(f"web3:{d}"), t, db)
        assert got == roberts_count(d), d
    assert roberts_count(4) == 675


def criterion_06_steiner_suite():
    db = default_db()
    veronese = get_model("veronese-p3")
    assert integrate_on(veronese.source, evaluate(c(2), veronese)) == 6
    double_curve = evaluate(expand_target(multi_type("A0,A0", 1), db),
                            veronese) / 2
    assert double_curve == 3 * veronese.target_ring.gen("h") ** 2
    assert count_points(veronese, multi_type("A0,A0,A0", 1), db) == 1

    scroll = get_model("scroll-q-p3")
    assert count_points(scroll, multi_type("A0,A0,A0", 1), db) == 0
    assert integrate_on(scroll.source, evaluate(c(2), scroll)) == 4


def criterion_07_discriminant_degree():
    expr = s(2) - s(0, 1)
    for d in range(2, 9):
        model = get_model(f"pencil:{d}")
        got = evaluate(expr, model)
        assert got == 3 * (d - 1) ** 2 * model.target_ring.gen("H"), d


def criterion_08_interpolation_recovery():
    db = default_db()
    t2 = multi_type("A0,A0", 1)
    scratch = db.copy()
    scratch.remove(t2.key, 1)
    system = assemble_system(
        t2, scratch, [("ratcurve:4", get_model("ratcurve:4"), Fraction(3))])
    outcome = solve_exact(system)
    assert outcome.status == "unique"
    assert outcome.residual() == -c(1)

    t3 = multi_type("A0,A0,A0", 1)
    scratch = db.copy()
    scratch.remove(t3.key, 1)
    system = assemble_system(t3, scratch, [
        ("veronese-p3", get_model("veronese-p3"), Fraction(1)),
        ("scroll-q-p3", get_model("scroll-q-p3"), Fraction(0)),
    ])
    outcome = solve_exact(system)
    assert outcome.status == "unique"
    assert outcome.residual() == 2 * c(1) ** 2 + 2 * c(2)


def criterion_09_symbolic_pushforward_identity():
    db = default_db()
    for names, kappa in db.keys():
        t = MultiSingType(names, kappa)
        assert sify(expand_source(t, db)) == expand_target(t, db), (names, kappa)


def criterion_10_generating_series():
    db = default_db()
    assert verify_generating_series([get_sing_type("A0", 1)], 4, db)
    assert verify_generating_series([get_sing_type("A1", -1)], 3, db)


def _random_immersive_curve(rng, d):
    while True:
        x = [rng.randint(-4, 4) for _ in range(d + 1)]
        y = [rng.randint(-4, 4) for _ in range(d + 1)]
        if x[d] == 0 or y[d] == 0:
            continue
        if x[d] * y[d - 1] == x[d - 1] * y[d]:
            continue
        curve = CurveParam(poly(x), poly(y))
        if not curve.is_immersive():
            continue
        try:
            double_point_resultant(curve)
        except OracleError:
            continue
        return curve


def criterion_11_oracle_agreement():
    assert double_point_degree(CurveParam.parse("t^2, t^3")) == 2
    rng = random.Random(20240815)
    for trial in range(25):
        d = 3 + trial % 4
        curve = _random_immersive_curve(rng, d)
        got = double_point_degree(curve)
        assert got == (d - 1) * (d - 2) == engine_double_point_degree(d), (
            trial, d, curve)


def criterion_12_property_suites():
    db = default_db()
    for name in ["veronese-p3", "scroll-q-p3", "ratcurve:3", "pencil:3",
                 "web3:3", "dual-surface:3"]:
        assert projection_formula_holds(get_model(name)), name

    for names, kappa in db.keys():
        t = MultiSingType(names, kappa)
        assert expand_target(t, db).is_homogeneous(t.ell_total, kappa)
        assert expand_source(t, db).is_homogeneous(t.ell_total - kappa, kappa)

    rng = random.Random(99)
    base = ("A0", "A0", "A1")
    synthetic = parse_expr("3*c1^4 + 5*c2^2 - c1*c3")
    seeded = db.copy()
    seeded.insert(base, 1, synthetic)
    for _ in range(10):
        entries = list(base)
        rng.shuffle(entries)
        t = MultiSingType(tuple(entries), 1)
        known = expand_source(t, seeded)
        fresh = seeded.copy()
        fresh.remove(base, 1)
        assert extract_residual(t, known, "source", fresh) == synthetic, entries

    assert thom_porteous(1, 1) == c(2)
    assert thom_porteous(0, 1) == c(1)
    assert thom_porteous(-1, 2) == c(1) ** 2 - c(2)


CRITERIA = [
    ("criterion 1: Table 1 reproduction (six rows)", criterion_01_table1),
    ("criterion 2: target identities, kappa=1", criterion_02_target_kappa_one),
    ("criterion 3: target identities, kappa=-1",
     criterion_03_target_kappa_minus_one),
    ("criterion 4: Salmon counts, d=3..6", criterion_04_salmon),
    ("criterion 5: Roberts counts, d=4..8", criterion_05_roberts),
    ("criterion 6: Steiner / scroll suite", criterion_06_steiner_suite),
    ("criterion 7: discriminant degree 3(d-1)^2, d=2..8",
     criterion_07_discriminant_degree),
    ("criterion 8: interpolation recovery", criterion_08_interpolation_recovery),
    ("criterion 9: symbolic pushforward identity",
     criterion_09_symbolic_pushforward_identity),
    ("criterion 10: generating series", criterion_10_generating_series),
    ("criterion 11: oracle agreement (25 random curves)",
     criterion_11_oracle_agreement),
    ("criterion 12: property suites", criterion_12_property_suites),
]


# pytest entry points, one per criterion
def test_criterion_01():
    criterion_01_table1()


def test_criterion_02():
    criterion_02_target_kappa_one()


def test_criterion_03():
    criterion_03_target_kappa_minus_one()


def test_criterion_04():
    criterion_04_salmon()


def test_criterion_05():
    criterion_05_roberts()


def test_criterion_06():
    criterion_06_steiner_suite()


def test_criterion_07():
    criterion_07_discriminant_degree()


def test_criterion_08():
    criterion_08_interpolation_recovery()


def test_criterion_09():
    criterion_09_symbolic_pushforward_identity()


def test_criterion_10():
    criterion_10_generating_series()


def test_criterion_11():
    criterion_11_oracle_agreement()


def test_criterion_12():
    criterion_12_property_suites()


def main() -> int:
    failures = 0
    for label, fn in CRITERIA:
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {label}: {exc}")
        else:
            print(f"PASS {label}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
