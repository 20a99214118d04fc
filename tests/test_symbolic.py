from fractions import Fraction
from functools import reduce
from math import gcd
from typing import Mapping

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tpcalc.symbolic import (
    Monomial,
    Scalar,
    Symbol,
    SymbolicExpr,
    _index_order,
    _monomial_sort_key,
    _push,
    _symbol_key,
    c,
    c_exponents,
    c_monomial,
    canon_index,
    fs,
    index_c_degree,
    packing_of,
    parse_expr,
    render_expr,
    s,
    sify,
)
from tpcalc.interp import SolveResult
from tpcalc.tpcore import (default_db, expand_source, expand_target, extract_residual,
                           multi_type, thom_porteous)


class TestIndices:
    def test_trailing_zeros_trimmed(self):
        assert canon_index((1, 0, 0)) == (1,)
        assert canon_index((0, 1)) == (0, 1)
        assert canon_index(()) == ()

    def test_empty_index_prints_zero(self):
        assert render_expr(s()) == "s_0"
        assert render_expr(s(0)) == "s_0"
        assert render_expr(fs(0, 1)) == "fs_01"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            canon_index((-1,))


class TestChernSymbols:
    def test_c0_is_one(self):
        assert c(0) == SymbolicExpr.constant(1)

    def test_negative_is_zero(self):
        assert c(-2).is_zero()

    def test_c_exponents(self):
        mono = next(iter((c(1) ** 2 * c(3)).terms))
        assert c_exponents(mono) == (2, 0, 1)

    def test_c_monomial_inverse(self):
        expr = c_monomial((2, 0, 1))
        assert expr == c(1) ** 2 * c(3)


class TestArithmetic:
    def test_commutes(self):
        assert s(2) * c(1) == c(1) * s(2)

    def test_homogeneous(self):
        kappa = 1
        expr = s() ** 2 - s(1)
        assert expr.is_homogeneous(2, kappa)
        assert not expr.is_homogeneous(3, kappa)

    def test_side_detection(self):
        assert (s(1) + s(2)).side == "target"
        assert (c(2) + fs(0)).side == "source"
        assert SymbolicExpr.constant(3).side == "scalar"
        with pytest.raises(ValueError):
            (s(1) * c(1)).side

    def test_scalar_division(self):
        expr = (s() ** 2 - s(1)) / 2
        assert expr.coefficient(next(iter((s(1)).terms))) == Fraction(-1, 2)


class TestSify:
    def test_constant_pushes_to_s0(self):
        assert sify(SymbolicExpr.constant(1)) == s()

    def test_double_point(self):
        assert sify(fs() - c(1)) == s() ** 2 - s(1)

    def test_mixed_pair(self):
        src = c(2) * fs() - 2 * c(1) * c(2) - 2 * c(3)
        assert sify(src) == s(0, 1) * s() - 2 * s(1, 1) - 2 * s(0, 0, 1)

    def test_rejects_target_side(self):
        with pytest.raises(ValueError):
            sify(s(1))


def test_push_renders_residuals_in_s_or_fs():
    R = parse_expr("2*c1^2 - 1/3*c2")
    assert render_expr(_push(R, "s")) == "2*s_2 - 1/3*s_01"
    assert render_expr(_push(R, "fs")) == "2*fs_2 - 1/3*fs_01"


class TestRendering:
    def test_known_strings(self):
        expr = s() ** 3 - 3 * s() * s(1) + 2 * s(2) + 2 * s(0, 1)
        assert render_expr(expr) == "s_0^3 - 3*s_0*s_1 + 2*s_2 + 2*s_01"
        assert render_expr(2 * c(1) ** 2 + 2 * c(2)) == "2*c1^2 + 2*c2"
        assert render_expr(s() - c(1)) == "s_0 - c1"

    def test_discriminant_residual_order(self):
        expr = (138 * c(1) ** 4 - 158 * c(1) ** 2 * c(2) + 2 * c(2) ** 2
                + 20 * c(1) * c(3) - 2 * c(4))
        assert render_expr(expr) == (
            "138*c1^4 - 158*c1^2*c2 + 2*c2^2 + 20*c1*c3 - 2*c4"
        )

    def test_zero(self):
        assert render_expr(SymbolicExpr.zero()) == "0"
        assert parse_expr("0").is_zero()

    def test_parse_known(self):
        assert parse_expr("s_0^2 - s_1") == s() ** 2 - s(1)
        assert parse_expr("-7*c1^3 + 8*c1*c2 - c3") == (
            -7 * c(1) ** 3 + 8 * c(1) * c(2) - c(3)
        )
        assert parse_expr("1/2*fs_0^2 - 1/2*fs_1") == (fs() ** 2 - fs(1)) / 2

    def test_parse_error(self):
        with pytest.raises(ValueError):
            parse_expr("q_3 + 1")


# -- grammar round trip on random expressions ---------------------------------

_symbols = st.one_of(
    st.integers(min_value=1, max_value=4).map(lambda j: ("c", j)),
    st.lists(st.integers(min_value=0, max_value=12), max_size=3).map(
        lambda I: ("s", canon_index(I))
    ),
    st.lists(st.integers(min_value=0, max_value=12), max_size=3).map(
        lambda I: ("fs", canon_index(I))
    ),
)

_monomials = st.lists(
    st.tuples(_symbols, st.integers(min_value=1, max_value=3)), max_size=3
)


@st.composite
def _expressions(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    terms = {}
    target = draw(st.booleans())
    for _ in range(n):
        mono = draw(_monomials)
        # keep sides unmixed so .side stays well-defined
        mono = [
            (sym, e) for sym, e in mono
            if (sym[0] == "s") == target or sym[0] == "c" and not target
        ]
        coeff = draw(st.fractions(min_value=-9, max_value=9, max_denominator=4))
        expr = SymbolicExpr({tuple(mono): coeff})
        for m, v in expr.terms.items():
            terms[m] = terms.get(m, Fraction(0)) + v
    return SymbolicExpr(terms)


@given(_expressions())
@settings(max_examples=80)
def test_round_trip_bit_exact(expr):
    text = render_expr(expr)
    again = parse_expr(text)
    assert again == expr
    assert render_expr(again) == text


# -- the packed product against the retired pairwise loop ---------------------


def add_product(acc: dict, terms1: Mapping[Monomial, Scalar],
                terms2: Mapping[Monomial, Scalar], scale: Scalar = 1) -> None:
    """acc += scale * terms1 * terms2, on term mappings of canonical monomials."""
    for m1, c1 in terms1.items():
        c1 = c1 * scale
        for m2, c2 in terms2.items():
            exps: dict[Symbol, int] = dict(m1)
            for sym, e in m2:
                exps[sym] = exps.get(sym, 0) + e
            mono = tuple(sorted(exps.items(), key=lambda kv: _symbol_key(kv[0])))
            acc[mono] = acc.get(mono, 0) + c1 * c2


def reference_product(a, b):
    acc = {}
    add_product(acc, a.terms, b.terms)
    return SymbolicExpr(acc)


def assert_same_product(got, want):
    assert render_expr(got) == render_expr(want)
    assert got.terms == want.terms
    assert all(type(x) is Fraction for x in got.terms.values())
    assert SymbolicExpr(got.terms).terms == got.terms  # canonical monomials


@st.composite
def _operands(draw):
    """c, s and fs symbols mixed in one expression, denominators up to 6;
    empty monomials give constant terms and no terms the zero expression."""
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        coeff = Fraction(draw(st.integers(min_value=-9, max_value=9)),
                         draw(st.integers(min_value=1, max_value=6)))
        for m, v in SymbolicExpr({tuple(draw(_monomials)): coeff}).terms.items():
            terms[m] = terms.get(m, 0) + v
    return SymbolicExpr(terms)


@given(_operands(), _operands())
@settings(max_examples=150)
def test_product_matches_pairwise_loop(a, b):
    assert_same_product(a * b, reference_product(a, b))


@given(_operands(), st.sampled_from([Fraction(0), Fraction(1), Fraction(-5, 6), Fraction(7)]))
@settings(max_examples=40)
def test_product_with_zero_and_constants(a, value):
    k = SymbolicExpr.constant(value)
    assert_same_product(a * k, reference_product(a, k))
    assert_same_product(k * a, reference_product(k, a))
    assert_same_product(a * SymbolicExpr.zero(), SymbolicExpr.zero())


@given(_operands(), st.integers(min_value=0, max_value=9))
@settings(max_examples=40, deadline=None)
def test_power_matches_repeated_products(a, n):
    want = SymbolicExpr.constant(1)
    for _ in range(n):
        want = reference_product(want, a)
    assert_same_product(a ** n, want)


def test_exponents_fill_their_bit_fields():
    # 7 and 15 are the largest exponents 3- and 4-bit fields hold, 8 the first
    # that needs a wider one
    for n in (7, 8, 15, 16):
        x = c(1) + s(2) / 3 - fs(0, 1)
        want = SymbolicExpr.constant(1)
        for _ in range(n):
            want = reference_product(want, x)
        assert_same_product(x ** n, want)


def test_product_over_many_symbols():
    # a few hundred symbols pack into keys of about a thousand bits; each
    # monomial decodes from its own few fields
    a = sum((Fraction(j, 6) * c(j) for j in range(1, 301)), SymbolicExpr.zero())
    b = s() - fs(0, 0, 1) / 5 + 3 * fs(2)
    assert_same_product(a * b, reference_product(a, b))
    square = (c(300) - fs(2) / 4) ** 2
    assert_same_product(a * b * square, reference_product(reference_product(a, b), square))


_symbols = st.one_of(
    st.builds(lambda j: ("c", j), st.integers(1, 1000)),
    st.tuples(st.sampled_from(["s", "fs"]),
              st.lists(st.integers(0, 12), max_size=4).map(canon_index)),
)


@given(st.lists(_symbols, min_size=1, max_size=300, unique=True), st.integers(1, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_packing_of_round_trips_monomials(symbols, factors, data):
    # one term per symbol; then monomials joining symbols whose fields lie far
    # apart, each at the largest exponent its field holds
    terms = {((sym, data.draw(st.integers(1, 40))),): Fraction(1) for sym in symbols}
    packing = packing_of([terms], factors)
    for mono in terms:
        assert packing.decode(packing.encode(mono)) == mono
    top = (1 << packing.stride) - 1
    for _ in range(3):
        picks = data.draw(st.lists(st.sampled_from(symbols), unique=True, max_size=8))
        (mono,) = SymbolicExpr({tuple((sym, top) for sym in picks): 1}).terms
        assert packing.decode(packing.encode(mono)) == mono


# -- sify against the retired product-based push --------------------------------


def split_monomial(mono: Monomial):
    """(c exponent vector, ((index, exp) for fs), ((index, exp) for s))."""
    fs_part = tuple((payload, e) for (kind, payload), e in mono if kind == "fs")
    s_part = tuple((payload, e) for (kind, payload), e in mono if kind == "s")
    return c_exponents(mono), fs_part, s_part


def map_monomials(expr, fn) -> SymbolicExpr:
    """Linear extension of a map monomial -> SymbolicExpr (the retired method)."""
    acc: dict[Monomial, Fraction] = {}
    for mono, coeff in expr.terms.items():
        for m, c in fn(mono).terms.items():
            acc[m] = acc.get(m, 0) + c * coeff
    return SymbolicExpr(acc)


def reference_sify(expr: SymbolicExpr) -> SymbolicExpr:
    """Formal pushforward of a source-side expression.

    Each monomial c^K * prod fs_I^e maps to s_K * prod s_I^e: the c-part is
    pushed to its Landweber-Novikov symbol (the empty c-part becomes s_0, the
    pushforward of 1) and every pullback factor loses its pullback by the
    projection formula.
    """
    if expr.side == "target":
        raise ValueError("expression is already on the target side")

    def push(mono: Monomial) -> SymbolicExpr:
        K, fs_part, s_part = split_monomial(mono)
        if s_part:
            raise ValueError("source expression contains target symbols")
        out = s(*K)
        for I, e in fs_part:
            out = out * s(*I) ** e
        return out

    return map_monomials(expr, push)


# small indices, so that monomials meet under the push: c1*fs_0 and fs_1
# both go to s_0*s_1, c2*fs_1 and c1*fs_01 to s_1*s_01
_source_symbols = st.one_of(
    st.integers(min_value=1, max_value=3).map(lambda j: ("c", j)),
    st.lists(st.integers(min_value=0, max_value=2), max_size=2).map(
        lambda I: ("fs", canon_index(I))
    ),
)


@st.composite
def _source_expressions(draw):
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        mono = draw(st.lists(st.tuples(_source_symbols, st.integers(1, 3)), max_size=3))
        coeff = Fraction(draw(st.integers(min_value=-4, max_value=4)),
                         draw(st.integers(min_value=1, max_value=3)))
        for m, v in SymbolicExpr({tuple(mono): coeff}).terms.items():
            terms[m] = terms.get(m, 0) + v
    return SymbolicExpr(terms)


@given(_source_expressions())
@example(c(1) * fs() + fs(1))
@example(c(1) * fs() - fs(1))  # the two terms cancel
@example(c(2) * fs(1) + 2 * c(1) * fs(0, 1) - fs(1) * fs(0, 1) / 3)
@example(SymbolicExpr.constant(Fraction(-2, 3)))
@settings(max_examples=200)
def test_sify_matches_the_product_based_push(expr):
    got, want = sify(expr), reference_sify(expr)
    assert render_expr(got) == render_expr(want)
    assert list(got.terms.items()) == list(want.terms.items())  # same term order too


def test_sify_collisions_add_up():
    assert sify(c(1) * fs() + fs(1)) == 2 * s() * s(1)
    assert sify(c(1) * fs() - fs(1)).is_zero()


# -- the render order against the retired dense key ------------------------------


def dense_sort_key(mono: Monomial):
    s_count = 0
    s_weight = 0
    s_seq = []
    c_deg = 0
    for (kind, payload), e in mono:
        if kind in ("s", "fs"):
            s_count += e
            s_weight += index_c_degree(payload) * e
            s_seq.extend([_index_order(payload)] * e)
        else:
            c_deg += payload * e
    c_vec = c_exponents(mono)
    return (
        -s_count,
        -s_weight,
        tuple(sorted(s_seq)),
        -c_deg,
        (len(c_vec), tuple(-e for e in c_vec)),
        mono,
    )


# many c-parts of one degree and top index, with a few s and fs factors beside
_chern_heavy_monomials = st.tuples(
    st.lists(st.tuples(st.integers(min_value=1, max_value=5).map(lambda j: ("c", j)),
                       st.integers(min_value=1, max_value=4)), max_size=4),
    st.sampled_from([[], [(("s", ()), 1)], [(("fs", (1,)), 2)], [(("fs", ()), 1)]]),
).map(lambda parts: parts[0] + parts[1])


@given(st.lists(_chern_heavy_monomials, max_size=40))
@settings(max_examples=300)
def test_sparse_render_key_orders_like_the_dense_one(monos):
    monos = list({next(iter(SymbolicExpr({tuple(m): 1}).terms)) for m in monos})
    assert sorted(monos, key=_monomial_sort_key) == sorted(monos, key=dense_sort_key)


# s and fs factors of a few small indices, so monomials share runs of one index
_index_heavy_monomials = st.lists(
    st.tuples(st.tuples(st.sampled_from(["s", "fs"]),
                        st.sampled_from([(), (1,), (0, 1), (2,), (1, 1)])),
              st.integers(min_value=1, max_value=5)), max_size=4)


@given(st.lists(_index_heavy_monomials, max_size=40))
@settings(max_examples=300)
def test_run_length_render_key_orders_like_the_dense_one(monos):
    monos = list({next(iter(SymbolicExpr({tuple(m): 1}).terms)) for m in monos})
    assert sorted(monos, key=_monomial_sort_key) == sorted(monos, key=dense_sort_key)


def test_huge_exponents_render_at_once():
    # the render key holds one entry per index, not one per unit of exponent
    text = "s_01^4*s_1^999999999 + s_01^3*s_1^1000000000"
    assert render_expr(parse_expr(text)) == text


class TestFloatScalars:
    """Floats are refused by every operator and constructor: nothing is inexact."""

    @pytest.mark.parametrize("op", [
        lambda x: x * 0.5, lambda x: 0.5 * x, lambda x: x + 0.1, lambda x: 0.1 + x,
        lambda x: x - 0.1, lambda x: 0.1 - x, lambda x: x / 0.5,
    ], ids=["mul", "rmul", "add", "radd", "sub", "rsub", "truediv"])
    def test_operator_refuses_a_float(self, op):
        with pytest.raises(TypeError, match="float"):
            op(c(1))

    @pytest.mark.parametrize("build", [
        lambda: SymbolicExpr({(): 0.5}), lambda: SymbolicExpr({((("c", 1), 1),): 0.5}),
        lambda: SymbolicExpr.constant(0.5),
    ], ids=["constant-term", "c1", "constant"])
    def test_constructor_refuses_a_float(self, build):
        with pytest.raises(TypeError, match="float"):
            build()


# -- sums on integer numerators against the retired Fraction route ---------------


def ref_add(p, q):
    """The retired sum: one Fraction add per shared monomial."""
    terms = dict(p.terms)
    for mono, x in q.terms.items():
        if x := x + terms.get(mono, 0):
            terms[mono] = x
        else:
            del terms[mono]
    return SymbolicExpr(terms)


def ref_neg(p):
    return SymbolicExpr({m: -x for m, x in p.terms.items()})


def ref_scale(p, value):
    return SymbolicExpr({m: x * value for m, x in p.terms.items()} if value else {})


def assert_canonical(e):
    """_ints is (D > 0, numerators coprime to D, none of them zero), so == and
    hash, which read _ints, agree with the expression rebuilt from its terms."""
    den, nums = e._ints
    assert den > 0 and gcd(den, *nums.values()) == 1 and all(nums.values())
    assert all(type(x) is Fraction for x in e.terms.values())
    rebuilt = SymbolicExpr(e.terms)
    assert e == rebuilt and hash(e) == hash(rebuilt)


@given(_operands(), _operands(), st.fractions(min_value=-5, max_value=5, max_denominator=6),
       st.lists(_operands(), max_size=3))
@settings(max_examples=150, deadline=None)
def test_sums_match_the_fraction_route(p, q, x, more):
    three = SymbolicExpr.constant(3)
    cases = [
        (p + q, ref_add(p, q)),
        (p - q, ref_add(p, ref_neg(q))),
        (-p, ref_neg(p)),
        (x * p, ref_scale(p, x)),
        (p * x, ref_scale(p, x)),
        (p + 3, ref_add(p, three)),
        (3 - p, ref_add(three, ref_neg(p))),
        (sum([p, *more]), reduce(ref_add, more, p)),
    ]
    if x:
        cases.append((p / x, ref_scale(p, 1 / x)))
    for got, want in cases:
        assert got.terms == want.terms
        assert got == want and hash(got) == hash(want)
        assert_canonical(got)


@given(_operands(), _operands(), st.integers(0, 4))
@settings(max_examples=80, deadline=None)
def test_products_and_powers_are_canonical(p, q, n):
    for e in (p, q, p * q, q * p, p ** n, (p - p) * q):
        assert_canonical(e)


@given(st.lists(st.tuples(_monomials, st.fractions(min_value=-4, max_value=4,
                                                   max_denominator=6)), max_size=6))
@settings(max_examples=80)
def test_constructor_merges_to_the_canonical_form(pairs):
    # monomials written in any order, with repeated symbols, meet on one key
    terms = {}
    for mono, x in pairs:
        mono = tuple(mono) + tuple(mono)[:1]  # a repeated symbol
        terms[mono[::-1]] = terms.get(mono[::-1], 0) + x
    assert_canonical(SymbolicExpr(terms))


@pytest.mark.parametrize("text", [
    "1/2*c1 + 1/2*c1", "3/4*c2 - 3/4*c2", "2/3*fs_0 + 4/3*fs_0 - fs_1", "1/6 + 1/3", "0",
])
def test_parse_is_canonical_with_cancelling_terms(text):
    assert_canonical(parse_expr(text))


@pytest.mark.parametrize("expr", [
    c(1) * fs() - fs(1),  # the two terms meet and cancel
    c(1) * fs() / 2 + fs(1) / 2,  # they meet, and 1/2 + 1/2 leaves the denominator
    c(2) * fs(1) / 3 + 2 * c(1) * fs(0, 1) / 3 - fs(1) * fs(0, 1) / 3,
    SymbolicExpr.zero(),
])
def test_push_is_canonical_with_cancelling_terms(expr):
    assert_canonical(sify(expr))
    assert_canonical(_push(expr, "fs"))


def test_engine_outputs_are_canonical():
    db = default_db()
    for spec, kappa in [("A0,A0,A0", 1), ("A0,A1", 1), ("A1,A1,A1", -1), ("A0,A0,A0,A0", 1)]:
        t = multi_type(spec, kappa, db)
        for side, expand in (("target", expand_target), ("source", expand_source)):
            known = expand(t, db)
            assert_canonical(known)
            assert_canonical(extract_residual(t, known, side, db.copy()))
    for kappa, k in [(-1, 2), (0, 3), (1, 4)]:
        assert_canonical(thom_porteous(kappa, k))
    solution = {(2,): Fraction(1, 2), (0, 1): Fraction(3, 2)}
    assert_canonical(SolveResult(status="unique", solution=solution).residual())


def test_equal_scalars_and_constants_collapse_in_a_set():
    assert SymbolicExpr.constant(3) == 3
    assert len({SymbolicExpr.constant(3), 3}) == 1
    assert len({SymbolicExpr.zero(), 0, c(-1)}) == 1
    assert len({SymbolicExpr.constant(Fraction(-5, 6)), Fraction(-5, 6)}) == 1
    assert len({c(0), 1, Fraction(1), parse_expr("1/2 + 1/2")}) == 1
    assert len({c(1), s(), fs(), c(1) * 1}) == 3


MALFORMED_MONOMIALS = [
    (((("c", 1), -1),), "negative exponent"),
    (((("q", 1), 1),), "unknown symbol kind 'q'"),
    (((("c", 0), 1),), r"c-symbols need index >= 1 \(c0 is the constant 1\)"),
]


@pytest.mark.parametrize("mono,message", MALFORMED_MONOMIALS)
def test_malformed_monomials_are_refused(mono, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SymbolicExpr({mono: 1})


@pytest.mark.parametrize("mono,message", MALFORMED_MONOMIALS)
def test_a_zero_coefficient_does_not_skip_the_monomial_check(mono, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SymbolicExpr({mono: 0})


def test_negative_power_is_refused():
    with pytest.raises(ValueError, match=r"^negative powers of symbolic expressions$"):
        (c(1) + 1) ** -1
