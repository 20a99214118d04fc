import gc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpcalc.algebra import (
    GradedClass,
    Packing,
    RingError,
    graded_component,
    integrate_top,
    invert_unit,
    make_ring,
    multiply,
    parse_class,
    render_class,
    _mul_packed,
)
from tpcalc.chow import chern_of_roots
from tpcalc.maps import get_model, model_names

P2 = make_ring([("h", 1, 2)])
P2xP3 = make_ring([("h", 1, 2), ("H", 1, 3)])
MIXED = make_ring([("x", 1, 2), ("y", 2, 2)])  # a degree-2 generator


def cls(ring, text):
    return parse_class(ring, text)


class TestMakeRing:
    def test_p2(self):
        assert P2.top_degree == 2
        assert P2.bounds == (2,)

    def test_product(self):
        assert P2xP3.top_degree == 5
        assert P2xP3.names == ("h", "H")

    def test_duplicate_name(self):
        with pytest.raises(RingError):
            make_ring([("h", 1, 2), ("h", 1, 1)])

    def test_bad_degree(self):
        with pytest.raises(RingError):
            make_ring([("h", 0, 2)])
        with pytest.raises(RingError):
            make_ring([("h", 1, 0)])

    def test_listing_monomials_leaves_no_cycle(self):
        # reference counting alone frees a ring whose monomials were listed
        gc.collect()
        gc.disable()
        try:
            ring = make_ring([("a", 1, 3), ("b", 2, 2)])
            assert list(ring.monomials_of_degree(3)) == [(1, 1), (3, 0)]
            del ring
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestMultiply:
    def test_square_of_unit(self):
        one_h = cls(P2, "1 + h")
        assert one_h * one_h == cls(P2, "1 + 2*h + h^2")

    def test_truncation(self):
        h = P2.gen("h")
        assert h**2 * h == P2.zero()

    def test_kunneth_product(self):
        # (1+h+H)(1-h) = 1 + H - h^2 - h*H
        left = cls(P2xP3, "1 + h + H")
        right = cls(P2xP3, "1 - h")
        assert left * right == cls(P2xP3, "1 + H - h^2 - h*H")

    def test_ring_mismatch(self):
        with pytest.raises(RingError):
            multiply(P2.one(), P2xP3.one())


class TestInvertUnit:
    def test_geometric_series(self):
        assert invert_unit(cls(P2, "1 + h")) == cls(P2, "1 - h + h^2")

    def test_p1(self):
        P1 = make_ring([("p", 1, 1)])
        assert invert_unit(cls(P1, "1 + 2*p")) == cls(P1, "1 - 2*p")

    def test_not_a_unit(self):
        with pytest.raises(RingError):
            invert_unit(P2.gen("h"))


class TestGradedComponent:
    def test_binomial(self):
        p = cls(P2, "1 + 2*h") ** 4
        assert graded_component(p, 1) == cls(P2, "8*h")

    def test_quotient(self):
        p = cls(P2, "1 + 2*h") ** 4 * invert_unit(cls(P2, "1 + h") ** 3)
        assert graded_component(p, 2) == cls(P2, "6*h^2")

    def test_out_of_range_is_zero(self):
        p = cls(P2, "1 + 2*h") ** 4
        assert graded_component(p, 5) == P2.zero()


class TestIntegrateTop:
    def test_point_class(self):
        assert integrate_top(P2, P2.gen("h") ** 2) == 1

    def test_product_point(self):
        top = P2xP3.gen("h") ** 2 * P2xP3.gen("H") ** 3
        assert integrate_top(P2xP3, top) == 1

    def test_wrong_degree(self):
        assert integrate_top(P2, P2.gen("h")) == 0


class TestRendering:
    def test_examples(self):
        assert render_class(cls(P2, "1 + 5*h + 6*h^2")) == "1 + 5*h + 6*h^2"
        assert render_class(P2.zero()) == "0"
        assert render_class(cls(P2xP3, "1 + H - h^2 - h*H")) == "1 + H - h^2 - h*H"

    def test_fraction_coefficients(self):
        p = GradedClass(P2, {(1,): Fraction(3, 2)})
        assert render_class(p) == "3/2*h"
        assert parse_class(P2, "3/2*h") == p

    def test_degree_two_generator(self):
        p = cls(MIXED, "y + x^2")
        # both terms have total degree 2; lex on exponents orders x^2 first
        assert render_class(p) == "x^2 + y"


# -- property tests ----------------------------------------------------------


def classes_of(ring):
    monos = [m for d in range(ring.top_degree + 1)
             for m in ring.monomials_of_degree(d)]
    coeff = st.fractions(
        min_value=-5, max_value=5, max_denominator=6
    )
    return st.fixed_dictionaries({}, optional={m: coeff for m in monos}).map(
        lambda terms: GradedClass(ring, terms)
    )


@given(classes_of(P2xP3), classes_of(P2xP3), classes_of(P2xP3))
@settings(max_examples=60)
def test_ring_axioms(p, q, r):
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(classes_of(MIXED), classes_of(MIXED))
@settings(max_examples=40)
def test_ring_axioms_weighted(p, q):
    assert p * q == q * p
    assert (p + q) * (p - q) == p * p - q * q


@given(classes_of(P2xP3))
@settings(max_examples=40)
def test_inverse_property(p):
    unit = p + 1 if p.constant_term() != -1 else p + 2
    assert unit * invert_unit(unit) == P2xP3.one()


@given(classes_of(P2xP3))
@settings(max_examples=40)
def test_component_decomposition(p):
    total = P2xP3.zero()
    for d in range(P2xP3.top_degree + 1):
        total = total + graded_component(p, d)
    assert total == p
    pieces = {d: graded_component(p, d) for d in range(P2xP3.top_degree + 1)}
    assert p.components() == {d: x for d, x in pieces.items() if not x.is_zero()}


@given(classes_of(P2xP3))
@settings(max_examples=40)
def test_render_parse_round_trip(p):
    assert parse_class(P2xP3, render_class(p)) == p


def test_all_arithmetic_exact():
    # 1/3 * 3 must be exactly 1, not approximately
    third = GradedClass(P2, {(0,): Fraction(1, 3)})
    assert (third * 3) == P2.one()
    assert isinstance(integrate_top(P2, P2.gen("h") ** 2), Fraction)


# -- the packed integer kernel against the pairwise Fraction loops it replaced --


def ref_mul(p, q):
    """The pairwise loop: one Fraction product per term pair, tuple sums."""
    bounds = p.ring.bounds
    acc = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            prod = tuple(a + b for a, b in zip(m1, m2))
            if any(e > b for e, b in zip(prod, bounds)):
                continue
            acc[prod] = acc.get(prod, Fraction(0)) + c1 * c2
    return GradedClass(p.ring, acc)


def ref_invert(p):
    """Degreewise recursion q_d = -(1/c0) sum_i p_i q_(d-i) through ref_mul."""
    ring = p.ring
    c0 = p.constant_term()
    if c0 == 0:
        raise RingError("not a unit: zero constant term")
    parts = [GradedClass(ring, {m: c for m, c in p.terms.items()
                                if ring.monomial_degree(m) == d})
             for d in range(ring.top_degree + 1)]
    q = [GradedClass(ring, {(0,) * len(ring.gens): 1 / c0})]
    total = dict(q[0].terms)
    for d in range(1, ring.top_degree + 1):
        s = {}
        for i in range(1, d + 1):
            for m, c in ref_mul(parts[i], q[d - i]).terms.items():
                s[m] = s.get(m, 0) + c
        q.append(GradedClass(ring, {m: -c / c0 for m, c in s.items()}))
        total.update(q[d].terms)
    return GradedClass(ring, total)


def ref_pow(p, n):
    base = ref_invert(p) if n < 0 else p
    result = GradedClass(p.ring, {(0,) * len(p.ring.gens): 1})
    for _ in range(abs(n)):
        result = ref_mul(result, base)
    return result


def same(got, want):
    assert got.terms == want.terms
    assert all(type(c) is Fraction for c in got.terms.values())
    assert render_class(got) == render_class(want)


@st.composite
def ring_with_classes(draw, count=3):
    """A ring of 1-4 factors, some of degree 2, and `count` sparse classes in it
    with mixed-denominator coefficients (the first with a nonzero constant).
    At most one bound is 7, which fills a 3-bit field with no bias, or 8, the
    first bound that needs 4 bits."""
    gens = draw(st.lists(st.tuples(st.sampled_from([1, 1, 2]), st.integers(1, 4)),
                         min_size=1, max_size=4))
    large = draw(st.sampled_from([None, 7, 8]))
    if large:
        i = draw(st.integers(0, len(gens) - 1))
        gens[i] = (gens[i][0], large)
    ring = make_ring([(f"g{i}", d, b) for i, (d, b) in enumerate(gens)])
    monos = [m for d in range(ring.top_degree + 1) for m in ring.monomials_of_degree(d)]
    coeff = st.fractions(min_value=-7, max_value=7, max_denominator=12)
    classes = []
    for j in range(count):
        terms = draw(st.dictionaries(st.sampled_from(monos), coeff, max_size=10))
        if j == 0:
            terms[(0,) * len(gens)] = draw(coeff.filter(bool))
        classes.append(GradedClass(ring, terms))
    return ring, classes


@given(ring_with_classes())
@settings(max_examples=150, deadline=None)
def test_mul_matches_pairwise_loop(case):
    _, (p, q, r) = case
    same(p * q, ref_mul(p, q))
    same(q * q, ref_mul(q, q))
    # the product's cached integer form feeds the next product
    same((p * q) * r, ref_mul(ref_mul(p, q), r))
    scalar = GradedClass(p.ring, {(0,) * len(p.ring.gens): Fraction(-3, 4)})
    same(p * Fraction(-3, 4), ref_mul(p, scalar))
    same(p * scalar, ref_mul(p, scalar))


@given(ring_with_classes())
@settings(max_examples=150, deadline=None)
def test_invert_matches_degreewise_reference(case):
    _, (unit, q, _) = case
    same(unit.invert(), ref_invert(unit))
    product = unit * (q + 1)  # inverted from the integer form its product cached
    if product.constant_term():
        same(product.invert(), ref_invert(product))
    if not q.constant_term():
        with pytest.raises(RingError):
            q.invert()


@given(ring_with_classes(count=1), st.integers(-3, 5))
@settings(max_examples=100, deadline=None)
def test_pow_matches_reference(case, n):
    _, (unit,) = case
    same(unit ** n, ref_pow(unit, n))


def test_dense_square_and_inverse_match_reference():
    ring = make_ring([("a", 1, 3), ("b", 1, 3), ("c", 2, 2)])
    monos = [m for d in range(ring.top_degree + 1) for m in ring.monomials_of_degree(d)]
    p = GradedClass(ring, {m: Fraction(i % 7 - 3, 1 + i % 5) for i, m in enumerate(monos)})
    p = p + (1 - p.constant_term())
    same(p * p, ref_mul(p, p))
    same(p.invert(), ref_invert(p))
    same(p * p.invert(), ring.one())


@given(st.lists(st.integers(1, 9), min_size=1, max_size=5), st.data())
@settings(max_examples=100)
def test_bounded_keys_decode_to_their_exponents(bounds, data):
    packing = make_ring([(f"g{i}", 1, b) for i, b in enumerate(bounds)])._packing
    mono = tuple(data.draw(st.integers(0, b)) for b in bounds)
    key = packing.encode(mono)
    # field i at bit i * stride, then the total degree in the field above the last
    width, top_shift, top = max(bounds).bit_length(), len(bounds) * packing.stride, sum(bounds)
    assert packing.stride == width + 1
    assert key == sum(e << i * packing.stride for i, e in enumerate(mono)) + (sum(mono) << top_shift)
    assert packing.guard == (sum(1 << i * packing.stride + width for i in range(len(bounds)))
                             + (1 << top_shift + top.bit_length()))
    assert packing.bias == (sum((2 ** width - 1 - b) << i * packing.stride
                                for i, b in enumerate(bounds))
                            + (2 ** top.bit_length() - 1 - top << top_shift))
    assert packing.decode(key) == mono


@given(ring_with_classes(count=1))
@settings(max_examples=60, deadline=None)
def test_the_degree_field_holds_the_weighted_degree(case):
    ring, _ = case  # some generators of degree 2
    packing = ring._packing
    for d in range(ring.top_degree + 1):
        for m in ring.monomials_of_degree(d):
            assert packing.degree(packing.encode(m)) == ring.monomial_degree(m) == d
    for i, name in enumerate(ring.names):
        (key,) = ring.gen(name)._ints[1]
        assert ring.gen(name).terms == {packing.decode(key): 1}
        assert key == packing.encode(tuple(int(i == j) for j in range(len(ring.gens))))
        assert packing.degree(key) == ring.degrees[i]


@given(ring_with_classes(), st.data())
@settings(max_examples=150, deadline=None)
def test_a_capped_product_is_the_product_cut_at_the_cap(case, data):
    ring, (p, q, r) = case
    packing = ring._packing
    cap = data.draw(st.integers(0, ring.top_degree))
    capped = packing.capped(cap)
    assert (capped.stride, capped.guard, capped.cap) == (packing.stride, packing.guard, cap)
    assert packing.cap == ring.top_degree  # the view leaves the ring's packing as it was
    for left, right in ((p, q), (q, r), (p * q, r), (r, r)):
        pairs = [(left._ints[1].items(), right._ints[1].items())]
        full = _mul_packed(pairs, packing)
        assert _mul_packed(pairs, capped) == {k: n for k, n in full.items()
                                              if packing.degree(k) <= cap}
        assert _mul_packed(pairs, capped.capped(ring.top_degree)) == full


@given(st.integers(1, 12), st.dictionaries(st.integers(0, 300), st.integers(1, 4095)))
@settings(max_examples=100)
def test_unbounded_keys_decode_to_their_fields(width, exponents):
    # fields far apart, as the symbols of one expansion are
    packing = Packing(width, symbols=range(301))
    pairs = tuple(sorted((i, e % (1 << width) or 1) for i, e in exponents.items()))
    key = packing.encode(pairs)
    assert key == sum(e << i * width for i, e in pairs)
    assert packing.decode(key) == pairs
    assert packing.bias == packing.guard == 0


def test_an_unbounded_packing_encodes_what_it_cannot_hold_as_none():
    packing = Packing(3, symbols=("a", "b"))
    assert packing.encode((("a", 7), ("b", 1))) == 7 | 1 << 3
    assert packing.encode((("a", 8),)) is None  # past the 3-bit field
    assert packing.encode((("a", 1), ("c", 1))) is None  # not one of its symbols
    assert packing.encode((("b", 10 ** 50),)) is None


def test_the_constant_monomial_packs_to_zero():
    # the {0: 1} seeds of the expansions and invert's constant term rely on it
    for bounds in [(), (1,), (3, 2), (8, 1, 15)]:
        packing = make_ring([(f"g{i}", 1, b) for i, b in enumerate(bounds)])._packing
        assert packing.encode((0,) * len(bounds)) == 0
        assert packing.decode(0) == (0,) * len(bounds)
    unbounded = Packing(3, symbols=("a", "b"))
    assert unbounded.encode(()) == 0 and unbounded.decode(0) == ()


@pytest.mark.parametrize("bounds", [(7,), (8,), (7, 3, 1), (3, 8, 7), (1, 15, 16)])
def test_truncation_keeps_each_bound_and_drops_one_more(bounds):
    ring = make_ring([(f"g{i}", 1, b) for i, b in enumerate(bounds)])
    for i, n in enumerate(bounds):
        def mono(e, rest):  # g_i^e times every other generator at `rest` or 0
            return GradedClass(ring, {tuple(e if j == i else rest * b
                                            for j, b in enumerate(bounds)): 1})
        for a in range(n + 1):  # the other fields full, so a carry would show
            assert mono(a, 1) * mono(n - a, 0) == mono(n, 1)
            assert (mono(a, 1) * mono(n + 1 - a, 0)).is_zero()


def test_equal_rings_share_the_layout():
    a, b = make_ring([("x", 1, 3), ("y", 2, 1)]), make_ring([("x", 1, 3), ("y", 2, 1)])
    p, q = parse_class(a, "1 + x - 1/2*y"), parse_class(b, "2 - x^2 + 3/5*x*y")
    same(p * q, ref_mul(p, q))
    same(q * p, ref_mul(q, p))


class TestPublicConstructorChecks:
    def test_wrong_arity(self):
        with pytest.raises(RingError):
            GradedClass(P2xP3, {(1,): 1})
        with pytest.raises(RingError):
            GradedClass(P2, {(0, 0): 1})

    def test_negative_exponent(self):
        with pytest.raises(RingError):
            GradedClass(P2xP3, {(1, -1): 1})

    def test_truncates_and_merges(self):
        p = GradedClass(P2, {(3,): 5, (1,): Fraction(1, 2), (0,): 0})
        assert p.terms == {(1,): Fraction(1, 2)}
        assert all(type(c) is Fraction for c in p.terms.values())


# -- products stay packed until their terms are read ------------------------------


def eager_components(p):
    """The retired split: one terms dict per degree, through the checking constructor."""
    parts = {}
    for m, c in p.terms.items():
        parts.setdefault(p.ring.monomial_degree(m), {})[m] = c
    return {d: GradedClass(p.ring, parts[d]) for d in sorted(parts)}


@given(ring_with_classes())
@settings(max_examples=150, deadline=None)
def test_lazy_product_reads_like_the_eager_reference(case):
    _, (p, q, _) = case
    want = ref_mul(p, q)  # its terms built eagerly by the constructor
    got = p * q
    assert got == want and hash(got) == hash(want)
    pieces = got.components()
    assert got._terms is None  # ==, hash and components ran on the packed form
    reference = eager_components(want)
    assert list(pieces) == list(reference)
    for d, piece in pieces.items():
        assert piece == reference[d] and hash(piece) == hash(reference[d])
        same(piece, reference[d])
    assert str(got) == str(want)
    same(got, want)
    for d in range(p.ring.top_degree + 2):  # graded_component splits the packed form too
        same(graded_component(got, d), reference.get(d, p.ring.zero()))


class TestFloatScalars:
    """Floats are refused by every operator and constructor: nothing is inexact."""

    h = P2.gen("h")

    @pytest.mark.parametrize("op", [
        lambda h: h * 0.5, lambda h: 0.5 * h, lambda h: h + 0.1, lambda h: 0.1 + h,
        lambda h: h - 0.1, lambda h: 0.1 - h, lambda h: h / 0.5,
    ], ids=["mul", "rmul", "add", "radd", "sub", "rsub", "truediv"])
    def test_operator_refuses_a_float(self, op):
        with pytest.raises(TypeError, match="float"):
            op(self.h)

    def test_constructor_refuses_a_float(self):
        with pytest.raises(TypeError, match="float"):
            GradedClass(P2, {(1,): 0.1})

    def test_int_and_fraction_scalars_still_work(self):
        assert self.h * Fraction(1, 2) + 1 == GradedClass(P2, {(0,): 1, (1,): Fraction(1, 2)})
        assert self.h / 2 == Fraction(1, 2) * self.h


# -- sums on integer numerators against the retired Fraction route ---------------


def ref_add(p, q):
    """The retired sum: one Fraction add per shared monomial."""
    terms = dict(p.terms)
    for mono, x in q.terms.items():
        if x := x + terms.get(mono, 0):
            terms[mono] = x
        else:
            del terms[mono]
    return GradedClass(p.ring, terms)


def ref_neg(p):
    return GradedClass(p.ring, {m: -x for m, x in p.terms.items()})


def ref_scale(p, value):
    return GradedClass(p.ring, {m: x * value for m, x in p.terms.items()} if value else {})


def assert_canonical(c):
    """_ints is (D > 0, numerators coprime to D), so == and hash, which compare
    _ints, agree with the class rebuilt from its terms."""
    den, nums = c._ints
    assert den > 0 and gcd(den, *nums.values()) == 1
    rebuilt = GradedClass(c.ring, c.terms)
    assert c == rebuilt and hash(c) == hash(rebuilt)


@given(ring_with_classes(), st.integers(-5, 5),
       st.fractions(min_value=-5, max_value=5, max_denominator=6))
@settings(max_examples=150, deadline=None)
def test_sums_match_the_fraction_route(case, n, f):
    ring, (p, q, r) = case
    three = GradedClass(ring, {(0,) * len(ring.gens): 3})
    cases = [
        (p + q, ref_add(p, q)),
        (p - q, ref_add(p, ref_neg(q))),
        (-p, ref_neg(p)),
        (p + 3, ref_add(p, three)),
        (3 - p, ref_add(three, ref_neg(p))),
        (sum([p, q, r]), ref_add(ref_add(p, q), r)),
    ]
    for x in (n, f):
        cases += [(x * p, ref_scale(p, x)), (p * x, ref_scale(p, x))]
        if x:
            cases.append((p / x, ref_scale(p, 1 / Fraction(x))))
    for got, want in cases:
        assert_canonical(got)
        same(got, want)


@given(ring_with_classes())
@settings(max_examples=100, deadline=None)
def test_products_inverses_and_components_are_canonical(case):
    _, (unit, q, r) = case
    assert_canonical(q * r)
    assert_canonical(unit.invert())
    assert_canonical((-unit).invert())
    for piece in (unit * q).components().values():
        assert_canonical(piece)


def test_inverse_of_a_negative_constant_term_has_a_positive_denominator():
    # a = -2 and the top degree 2: the common denominator a^3 = -8 flips sign
    p = GradedClass(P2, {(0,): -2, (1,): 1})
    assert_canonical(p.invert())
    same(p.invert(), ref_invert(p))
    same(p.invert(), parse_class(P2, "-1/2 - 1/4*h - 1/8*h^2"))


@pytest.mark.parametrize("name", [name.replace("<d>", "4") for name in model_names()])
def test_model_classes_are_canonical(name):
    f = get_model(name)
    X = f.source
    inverse = chern_of_roots(X.ambient, [(D, -a) for D, a in X.tangent_roots])
    for c in (X.tangent_total, inverse, f.quotient_chern(),
              f.pushforward(f.chern(1)), f.landweber_novikov((1,))):
        assert_canonical(c)


def test_equal_scalars_and_constants_collapse_in_a_set():
    # a class whose only monomial is the constant one hashes as its number
    assert P2.one() * 3 == 3
    assert len({P2.one() * 3, 3}) == 1 and len({3, P2xP3.one() * 3}) == 1
    assert P2.one() * 3 != P2xP3.one() * 3  # equal to one number, but in two rings
    assert len({P2.zero(), 0, P2.gen("h") - P2.gen("h")}) == 1
    assert len({P2.one() / 2, Fraction(1, 2), parse_class(P2, "1/4 + 1/4")}) == 1
    assert len({P2.gen("h"), P2.gen("h") + 0, P2.one(), 1}) == 2


def test_ring_refusals_and_lookups():
    with pytest.raises(RingError, match=r"^bad generator name '1h'$"):
        make_ring([("1h", 1, 2)])
    ring = make_ring([("h", 1, 2), ("H", 1, 1)])
    with pytest.raises(RingError, match=r"^no generator named 'z'$"):
        ring.gen("z")
    assert hash(ring) == hash(make_ring([("h", 1, 2), ("H", 1, 1)]))
    assert len({ring, make_ring([("h", 1, 2), ("H", 1, 1)])}) == 1
    p = parse_class(ring, "3/2*h^2*H - h")
    assert p.coefficient((2, 1)) == Fraction(3, 2)
    assert p.coefficient([1, 0]) == -1
    assert p.coefficient((0, 1)) == 0
    with pytest.raises(RingError, match=r"^class does not live in the given ring$"):
        integrate_top(make_ring([("h", 1, 2)]), p)
