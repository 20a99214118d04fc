"""Hermetic verification suites shared by the CLI and the test suite.

Each suite returns a list of {name, expected, got, pass} dicts.  Everything
is exact and deterministic: random operands come from seeded generators and
no check depends on the environment.  The series suite checks the engine's
target expansions against the exponential generating identity.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import GradedClass, render_class
from .chow import integrate_on
from .maps import MapModel, get_model
from .symbolic import parse_expr, render_expr, sify
from .tpcore import (
    MultiSingType,
    bell_number,
    count_points,
    default_db,
    evaluate,
    expand_source,
    expand_target,
    extract_residual,
    get_sing_type,
    multi_type,
    set_partitions,
    thom_porteous,
    verify_generating_series,
)


def salmon_count(d: int) -> Fraction:
    """Triple points of the dual surface of a degree-d surface in P^3."""
    return Fraction(
        d * (d - 2) * (d**7 - 4 * d**6 + 7 * d**5 - 45 * d**4
                       + 114 * d**3 - 111 * d**2 + 548 * d - 960), 6)


def roberts_count(d: int) -> Fraction:
    """Three-nodal members of a general web of degree-d plane curves."""
    return Fraction(
        9 * d**6 - 54 * d**5 + 9 * d**4 + 423 * d**3
        - 458 * d**2 - 829 * d + 1050, 2)


def engine_double_point_degree(d: int) -> Fraction:
    """The double-point class of a degree-d rational plane curve, integrated."""
    db = default_db()
    model = get_model(f"ratcurve:{d}")
    m_class = evaluate(expand_source(multi_type("A0,A0", 1), db), model)
    return integrate_on(model.source, m_class)


# Source-side normalized expansions, kappa = 1; the flag marks the rows that
# ship via residual extraction rather than directly.
TABLE1_ROWS: list[tuple[str, str, bool]] = [
    ("A0,A0", "fs_0 - c1", False),
    ("A1", "c2", False),
    ("A0,A0,A0",
     "1/2*fs_0^2 - 1/2*fs_1 - fs_0*c1 + c1^2 + c2", False),
    ("A0,A1", "fs_01 - 2*c1*c2 - 2*c3", False),
    ("A1,A0", "fs_0*c2 - 2*c1*c2 - 2*c3", True),
    ("A0,A0,A0,A0",
     "1/6*fs_0^3 - 1/2*fs_0*fs_1 + 1/3*fs_2 + 1/3*fs_01 - 1/2*fs_0^2*c1 "
     "+ 1/2*fs_1*c1 + fs_0*c1^2 + fs_0*c2 - c1^3 - 3*c1*c2 - 2*c3", True),
]


def _check(name: str, expected, got) -> dict:
    return {"name": name, "expected": str(expected), "got": str(got),
            "pass": expected == got}


def suite_table1() -> list[dict]:
    db = default_db()
    checks = []
    for type_spec, expected_text, via_extraction in TABLE1_ROWS:
        t = multi_type(type_spec, 1)
        expected = parse_expr(expected_text)
        if via_extraction:
            scratch = db.copy()
            scratch.remove(t.key, t.kappa)
            extract_residual(t, expected * t.aut_order_rest, "source", scratch)
            got = expand_source(t, scratch) / t.aut_order_rest
            name = f"table1 {type_spec} (extraction round trip)"
        else:
            got = expand_source(t, db) / t.aut_order_rest
            name = f"table1 {type_spec}"
        checks.append(_check(name, render_expr(expected), render_expr(got)))
    return checks


def suite_classical() -> list[dict]:
    db = default_db()
    checks = []
    triple = multi_type("A1,A1,A1", -1)
    for d in range(3, 7):
        got = count_points(get_model(f"dual-surface:{d}"), triple, db)
        checks.append(_check(f"salmon d={d}", salmon_count(d), got))
    for d in range(4, 9):
        got = count_points(get_model(f"web3:{d}"), triple, db)
        checks.append(_check(f"roberts d={d}", roberts_count(d), got))

    veronese = get_model("veronese-p3")
    pinch = evaluate(parse_expr("c2"), veronese)
    checks.append(_check("steiner pinch points",
                         Fraction(6), integrate_on(veronese.source, pinch)))
    double_curve = evaluate(
        expand_target(multi_type("A0,A0", 1), db), veronese) / 2
    h = veronese.target_ring.gen("h")
    checks.append(_check("steiner double-curve degree", render_class(3 * h**2),
                         render_class(double_curve)))
    checks.append(_check("steiner triple points", Fraction(1),
                         count_points(veronese, multi_type("A0,A0,A0", 1), db)))
    scroll = get_model("scroll-q-p3")
    checks.append(_check("scroll triple points", Fraction(0),
                         count_points(scroll, multi_type("A0,A0,A0", 1), db)))
    scroll_pinch = evaluate(parse_expr("c2"), scroll)
    checks.append(_check("scroll pinch points", Fraction(4),
                         integrate_on(scroll.source, scroll_pinch)))

    disc = expand_target(multi_type("A1", -1), db)
    for d in range(2, 9):
        model = get_model(f"pencil:{d}")
        got = evaluate(disc, model)
        H = model.target_ring.gen("H")
        checks.append(_check(f"discriminant degree d={d}",
                             render_class(3 * (d - 1) ** 2 * H),
                             render_class(got)))
    return checks


def suite_series() -> list[dict]:
    db = default_db()
    checks = [
        _check("generating series A0 (kappa=1) up to r=4", True,
               verify_generating_series([get_sing_type("A0", 1)], 4, db)),
        _check("generating series A1 (kappa=-1) up to r=3", True,
               verify_generating_series([get_sing_type("A1", -1)], 3, db)),
    ]
    return checks


def _random_class(rng: random.Random, ring, degree: int) -> GradedClass:
    terms = {}
    for mono in ring.monomials_of_degree(degree):
        terms[mono] = Fraction(rng.randint(-3, 3))
    return GradedClass(ring, terms)


PROJECTION_PAIRS, PROJECTION_SEED = 100, 20240823
PROPERTY_MODELS = ["veronese-p3", "scroll-q-p3", "ratcurve:3", "pencil:3",
                   "web3:3", "dual-surface:3"]


def projection_formula_holds(model: MapModel) -> bool:
    """f_*(alpha * f^* beta) == f_*(alpha) * beta on seeded random class pairs."""
    rng = random.Random(PROJECTION_SEED)
    src = model.source.ambient
    tgt = model.target_ring
    for _ in range(PROJECTION_PAIRS):
        alpha = _random_class(rng, src, rng.randint(0, src.top_degree))
        beta = _random_class(rng, tgt, rng.randint(0, tgt.top_degree))
        lhs = model.pushforward(alpha * model.pullback(beta))
        rhs = model.pushforward(alpha) * beta
        if lhs != rhs:
            return False
    return True


def nested_triple_point_class(model: MapModel) -> GradedClass:
    """The classical nested route: f^*f_*(m2) - 2 c_1 f^*f_*(1) + R3 with
    m2 = f^*f_*(1) - c_1, for kappa = 1 models."""
    one = model.source.ambient.one()
    c2 = model.chern(2)  # the higher first, so c(f) is built once
    c1 = model.chern(1)
    pp1 = model.pullback(model.pushforward(one))
    m2 = pp1 - c1
    ppm2 = model.pullback(model.pushforward(m2))
    return ppm2 - 2 * c1 * pp1 + 2 * (c1 * c1 + c2)


def suite_properties() -> list[dict]:
    db = default_db()
    checks = []

    for name in PROPERTY_MODELS:
        ok = projection_formula_holds(get_model(name))
        checks.append(_check(f"projection formula on {name} ({PROJECTION_PAIRS} pairs)",
                             True, ok))

    homogeneous = True
    for (names, kappa) in db.keys():
        t = MultiSingType(names, kappa)
        if not expand_target(t, db).is_homogeneous(t.ell_total, kappa):
            homogeneous = False
        if not expand_source(t, db).is_homogeneous(t.ell_total - kappa, kappa):
            homogeneous = False
    checks.append(_check("expansions homogeneous of ell / ell-kappa",
                         True, homogeneous))

    pushed_ok = True
    for (names, kappa) in db.keys():
        t = MultiSingType(names, kappa)
        if sify(expand_source(t, db)) != expand_target(t, db):
            pushed_ok = False
    checks.append(_check("formal pushforward of source = target", True, pushed_ok))

    # order independence of extraction, seeded permutations of a mixed triple
    rng = random.Random(11)
    base = ("A0", "A0", "A1")
    synthetic = parse_expr("3*c1^4 + 5*c2^2 - c1*c3")
    scratch = db.copy()
    scratch.insert(base, 1, synthetic)
    order_ok = True
    for _ in range(10):
        entries = list(base)
        rng.shuffle(entries)
        t = MultiSingType(tuple(entries), 1)
        known = expand_source(t, scratch)
        fresh = scratch.copy()
        fresh.remove(base, 1)
        if extract_residual(t, known, "source", fresh) != synthetic:
            order_ok = False
    for spec_a, spec_b in [("A0,A1", "A1,A0")]:
        ta, tb = multi_type(spec_a, 1), multi_type(spec_b, 1)
        fresh = db.copy()
        fresh.remove(ta.key, 1)
        ra = extract_residual(ta, expand_source(ta, db), "source", fresh)
        fresh = db.copy()
        fresh.remove(tb.key, 1)
        rb = extract_residual(tb, expand_source(tb, db), "source", fresh)
        if ra != rb:
            order_ok = False
    checks.append(_check("extraction is order independent (10 shuffles)",
                         True, order_ok))

    checks.append(_check("porteous (kappa=1, k=1)", "c2",
                         render_expr(thom_porteous(1, 1))))
    checks.append(_check("porteous (kappa=0, k=1)", "c1",
                         render_expr(thom_porteous(0, 1))))
    checks.append(_check("porteous (kappa=-1, k=2)", "c1^2 - c2",
                         render_expr(thom_porteous(-1, 2))))

    two_route_ok = True
    m3 = multi_type("A0,A0,A0", 1)
    for name in ["veronese-p3", "scroll-q-p3", "ratcurve:4"]:
        model = get_model(name)
        via_expansion = evaluate(expand_source(m3, db), model)
        if via_expansion != nested_triple_point_class(model):
            two_route_ok = False
    checks.append(_check("triple-point class: expansion = nested route",
                         True, two_route_ok))

    bell_ok = all(len(set_partitions(r)) == bell_number(r) for r in range(1, 7))
    checks.append(_check("partition counts match Bell numbers (r<=6)",
                         True, bell_ok))
    return checks


SUITES = {
    "table1": suite_table1,
    "classical": suite_classical,
    "series": suite_series,
    "properties": suite_properties,
}


def run_suite(name: str) -> list[dict]:
    try:
        fn = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}") from None
    return fn()
