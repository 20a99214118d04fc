import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpcalc.algebra import GradedClass, integrate_top, parse_class, render_class
from tpcalc.chow import ModelError, integrate_on, product_projective
from tpcalc.maps import (
    LNIndex,
    get_model,
    linear_projection_model,
    projection_from_product,
    rational_curve_model,
)
from tpcalc.verify import PROPERTY_MODELS, projection_formula_holds


class TestLNIndex:
    def test_canonical(self):
        assert LNIndex((1, 0, 0)) == (1,)
        assert str(LNIndex(())) == "0"
        assert str(LNIndex((0, 1))) == "01"

    def test_degree(self):
        assert LNIndex(()).degree(kappa=1) == 1
        assert LNIndex((0, 1)).degree(kappa=-1) == 1
        assert LNIndex((2, 1)).degree(kappa=-1) == 3


class TestVeronese:
    def setup_method(self):
        self.f = get_model("veronese-p3")
        self.src = self.f.source.ambient
        self.tgt = self.f.target_ring

    def test_kappa(self):
        assert self.f.kappa == 1

    def test_degree(self):
        assert self.f.pushforward(self.src.one()) == 4 * self.tgt.gen("h")

    def test_pullback(self):
        assert self.f.pullback(self.tgt.gen("h")) == 2 * self.src.gen("h")

    def test_pushforward_of_hyperplane_section(self):
        # the image of a line on the Veronese is a conic in P^3
        assert self.f.pushforward(self.src.gen("h")) == 2 * self.tgt.gen("h") ** 2

    def test_quotient_chern(self):
        assert render_class(self.f.quotient_chern()) == "1 + 5*h + 6*h^2"

    def test_ln_classes(self):
        assert self.f.landweber_novikov(()) == 4 * self.tgt.gen("h")
        assert self.f.landweber_novikov((1,)) == 10 * self.tgt.gen("h") ** 2


class TestScroll:
    def test_degree_four(self):
        f = get_model("scroll-q-p3")
        assert f.pushforward(f.source.ambient.one()) == 4 * f.target_ring.gen("h")

    def test_chern(self):
        f = get_model("scroll-q-p3")
        c = f.quotient_chern()
        ring = f.source.ambient
        assert c == parse_class(ring, "1 + 2*a + 6*b + 4*a*b")


class TestRationalCurve:
    def test_construction(self):
        f = rational_curve_model(4)
        assert f.kappa == 1
        assert f.kind == "rational-curve"

    def test_low_degree_rejected(self):
        with pytest.raises(ModelError):
            rational_curve_model(0)

    def test_line(self):
        f = rational_curve_model(1)
        ring = f.source.ambient
        assert f.quotient_chern() == parse_class(ring, "1 + p")

    def test_pushforwards(self):
        f = rational_curve_model(3)
        src, tgt = f.source.ambient, f.target_ring
        assert f.pushforward(src.one()) == 3 * tgt.gen("h")
        assert f.pushforward(src.gen("p")) == tgt.gen("h") ** 2
        assert f.pullback(tgt.gen("h")) == 3 * src.gen("p")

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_quotient_chern_general_degree(self, d):
        f = rational_curve_model(d)
        ring = f.source.ambient
        expected = ring.one() + (3 * d - 2) * ring.gen("p")
        assert f.quotient_chern() == expected
        assert f.landweber_novikov((1,)) == (3 * d - 2) * f.target_ring.gen("h") ** 2


class TestIdentityLikeProjection:
    def test_trivial_linear_projection(self):
        p2 = product_projective([2])
        f = linear_projection_model(p2, p2.ambient.gen("h"), 2)
        assert f.kappa == 0
        assert f.pushforward(p2.ambient.one()) == f.target_ring.one()
        assert f.quotient_chern() == p2.ambient.one()

    def test_embedding_class_must_be_degree_one(self):
        p2 = product_projective([2])
        with pytest.raises(ModelError):
            linear_projection_model(p2, p2.ambient.gen("h") ** 2, 3)


class TestProductProjection:
    def test_degenerate_full_space(self):
        amb = product_projective([2, 3])
        f = projection_from_product(amb, (1,))
        src = amb.ambient
        alpha = src.gen("h") ** 2 * src.gen("H")
        assert f.pushforward(alpha) == f.target_ring.gen("H")

    def test_target_must_be_proper_subset(self):
        amb = product_projective([2, 3])
        with pytest.raises(ModelError):
            projection_from_product(amb, (0, 1))
        with pytest.raises(ModelError):
            projection_from_product(amb, ())

    @pytest.mark.parametrize("factors", [(1, 1), (0, 0), (2, 0, 2)])
    def test_repeated_factor_is_refused(self, factors):
        amb = product_projective([2, 1, 1])
        with pytest.raises(ModelError, match="repeated target factor"):
            projection_from_product(amb, factors)
        with pytest.raises(ModelError, match="repeated target factor"):
            get_model(f"product [2,1,1] -> [{','.join(map(str, factors))}]")

    def test_web3_shape(self):
        f = get_model("web3:4")
        assert f.kappa == -1
        assert f.source.dimension == 4
        assert f.target_ring.top_degree == 3

    def test_dual_surface_shape(self):
        f = get_model("dual-surface:3")
        assert f.kappa == -1
        assert f.source.dimension == 4

    @pytest.mark.parametrize("d", range(2, 9))
    def test_discriminant_pipeline(self, d):
        """f_*(c_1^2 - c_2) = 3(d-1)^2 H for the pencil model."""
        f = get_model(f"pencil:{d}")
        value = f.pushforward(f.chern(1) ** 2 - f.chern(2))
        expected = 3 * (d - 1) ** 2 * f.target_ring.gen("H")
        assert value == expected

    def test_pencil_chern_classes(self):
        f = get_model("pencil:5")
        ring = f.source.ambient
        assert f.chern(1) == parse_class(ring, "2*h + H")  # (d-3)h + H at d=5
        assert f.chern(2) == parse_class(ring, "-9*h^2 - 3*h*H")


class TestProjectionFormula:
    @pytest.mark.parametrize("name", PROPERTY_MODELS)
    def test_holds_exactly(self, name):
        assert projection_formula_holds(get_model(name), pairs=100)


class TestDegreeShift:
    @pytest.mark.parametrize("name", PROPERTY_MODELS)
    def test_pushforward_shifts_by_kappa(self, name):
        f = get_model(name)
        src = f.source.ambient
        for d in range(src.top_degree + 1):
            for mono in src.monomials_of_degree(d):
                image = f.pushforward(GradedClass(src, {mono: 1}))
                assert image.is_homogeneous(d + f.kappa)

    @pytest.mark.parametrize("name", PROPERTY_MODELS)
    def test_pullback_preserves_codimension(self, name):
        f = get_model(name)
        tgt = f.target_ring
        for d in range(tgt.top_degree + 1):
            for mono in tgt.monomials_of_degree(d):
                beta = GradedClass(tgt, {mono: 1})
                assert f.pullback(beta).is_homogeneous(d)


class TestLNHomogeneity:
    @pytest.mark.parametrize("name", PROPERTY_MODELS)
    def test_ln_degree(self, name):
        f = get_model(name)
        for I in [(), (1,), (0, 1), (2,), (1, 1), (0, 0, 1)]:
            cls = f.landweber_novikov(I)
            assert cls.is_homogeneous(LNIndex(I).degree(f.kappa))

    @pytest.mark.parametrize("name", PROPERTY_MODELS)
    def test_chern_constant_term(self, name):
        f = get_model(name)
        assert f.quotient_chern().constant_term() == 1


class TestModelRegistry:
    def test_unknown_model(self):
        with pytest.raises(ModelError):
            get_model("grassmannian")

    def test_bad_parameter(self):
        with pytest.raises(ModelError):
            get_model("ratcurve:x")
        with pytest.raises(ModelError):
            get_model("ratcurve:0")

    def test_description_model_matches_named(self):
        described = get_model("product [2,1] ci [(3,1)] -> [1]")
        named = get_model("pencil:3")
        assert described.kappa == named.kappa == -1
        for I in [(), (2,), (0, 1)]:
            assert described.landweber_novikov(I) == named.landweber_novikov(I)

    def test_description_needs_arrow(self):
        with pytest.raises(ModelError):
            get_model("product [2,1] ci [(3,1)]")


# -- the two map formulas the single model replaced, kept as references ------
#
# A factor projection pulls a target monomial back to the ambient monomial
# with the same exponents on the target factors, and pushes alpha forward by
# keeping the terms of alpha * [X] that sit at the top of every fiber factor.
# A linear projection to P^t with f^*(h) = e pulls h^k back to e^k and pushes
# the degree-c part of alpha to (int_X alpha_c e^(dim X - c)) h^(c + kappa).


def _factor_positions(f):
    return [f.source.ambient.index(name) for name in f.target_ring.names]


def reference_pullback(f, beta):
    ambient = f.source.ambient
    if f.kind == "product-projection":
        terms = {}
        for mono, coeff in beta.terms.items():
            amb = [0] * len(ambient.gens)
            for pos, e in zip(_factor_positions(f), mono):
                amb[pos] = e
            terms[tuple(amb)] = coeff
        return GradedClass(ambient, terms)
    out = ambient.zero()
    for mono, coeff in beta.terms.items():
        out = out + coeff * f.hyperplanes[0] ** mono[0]
    return out


def reference_pushforward(f, alpha):
    ring, ambient = f.target_ring, f.source.ambient
    if f.kind == "product-projection":
        beta = alpha * f.source.fundamental
        targets = _factor_positions(f)
        fibers = [i for i in range(len(ambient.gens)) if i not in targets]
        terms = {}
        for mono, coeff in beta.terms.items():
            if all(mono[i] == ambient.bounds[i] for i in fibers):
                tgt = tuple(mono[i] for i in targets)
                terms[tgt] = terms.get(tgt, Fraction(0)) + coeff
        return GradedClass(ring, terms)
    n, t, e = f.source.dimension, ring.bounds[0], f.hyperplanes[0]
    h = ring.gen(ring.names[0])
    out = ring.zero()
    for cdeg, piece in alpha.components().items():
        if cdeg <= n and 0 <= cdeg + f.kappa <= t:
            out = out + integrate_on(f.source, piece * e ** (n - cdeg)) * h ** (cdeg + f.kappa)
    return out


def reference_quotient_chern(f):
    ring = f.target_ring
    tangent = ring.one()
    for name, dim in zip(ring.names, ring.bounds):
        tangent = tangent * (ring.one() + ring.gen(name)) ** (dim + 1)
    return reference_pullback(f, tangent) * f.source.tangent_total.invert()


def reference_landweber_novikov(f, I):
    c = reference_quotient_chern(f)
    prod = f.source.ambient.one()
    for j, e in enumerate(I, start=1):
        prod = prod * c.graded_component(j) ** e
    return reference_pushforward(f, prod)


def seeded_descriptions(seed, count, target_size):
    """Factor projections of random complete intersections, in the
    'product [...] ci [...] -> [...]' grammar, onto target_size factors."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        k = rng.randint(target_size + 1, 3)
        dims = [rng.randint(1, 3) for _ in range(k)]
        vectors = [[rng.randint(0, 3) for _ in range(k)]
                   for _ in range(rng.randint(0, min(2, sum(dims) - 1)))]
        if not all(any(v) for v in vectors):
            continue
        desc = f"product {dims}"
        if vectors:
            desc += " ci [" + ",".join(str(tuple(v)) for v in vectors) + "]"
        out.append(f"{desc} -> {sorted(rng.sample(range(k), target_size))}")
    return out


MODEL_NAMES = (["veronese-p3", "scroll-q-p3"]
               + [f"{m}:{d}" for m in ("ratcurve", "pencil", "web3", "dual-surface")
                  for d in (1, 2, 4)]
               + seeded_descriptions(7, 8, 1) + seeded_descriptions(8, 8, 2))
LN_INDICES = [(), (1,), (2,), (0, 1), (3,), (1, 1), (0, 0, 1), (4,), (2, 1),
              (0, 2), (1, 0, 1), (0, 0, 0, 1)]


@functools.lru_cache(maxsize=None)
def _model(name):
    return get_model(name)


def classes_in(ring):
    monos = [m for d in range(ring.top_degree + 1) for m in ring.monomials_of_degree(d)]
    coeff = st.fractions(min_value=-7, max_value=7, max_denominator=12)
    return st.dictionaries(st.sampled_from(monos), coeff, max_size=8).map(
        lambda terms: GradedClass(ring, terms))


@st.composite
def model_with_classes(draw):
    f = _model(draw(st.sampled_from(MODEL_NAMES)))
    return f, draw(classes_in(f.source.ambient)), draw(classes_in(f.target_ring))


def test_descriptions_cover_both_target_sizes():
    sizes = {len(_model(name).target_ring.gens) for name in MODEL_NAMES}
    assert sizes == {1, 2}


@given(model_with_classes())
@settings(max_examples=200, deadline=None)
def test_pullback_and_pushforward_match_references(case):
    f, alpha, beta = case
    assert f.pullback(beta) == reference_pullback(f, beta)
    assert f.pushforward(alpha) == reference_pushforward(f, alpha)
    assert f.pushforward(alpha * f.pullback(beta)) == f.pushforward(alpha) * beta


@given(st.sampled_from(MODEL_NAMES), st.sampled_from(LN_INDICES))
@settings(max_examples=100, deadline=None)
def test_chern_and_ln_classes_match_references(name, I):
    f = get_model(name)  # fresh, so the lazy tables fill in a random order
    assert f.landweber_novikov(I) == reference_landweber_novikov(f, I)
    assert f.quotient_chern() == reference_quotient_chern(f)


@given(model_with_classes())
@settings(max_examples=100, deadline=None)
def test_integrate_on_pairs_without_the_product(case):
    f, alpha, _ = case
    X = f.source
    assert integrate_on(X, alpha) == integrate_top(X.ambient, alpha * X.fundamental)
