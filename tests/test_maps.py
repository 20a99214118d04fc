import functools
import operator
import random
import re
from fractions import Fraction
from functools import reduce
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpcalc.algebra import (GradedClass, _integrate_product, integrate_top, make_ring,
                            parse_class, render_class)
from tpcalc import chow, maps
from tpcalc.chow import (ModelError, VarietyModel, chern_of_roots, complete_intersection,
                         integrate_on, parse_variety, product_projective)
from tpcalc.interp import assemble_system, chern_monomials_of_degree
from tpcalc.maps import (
    _PARAMETRIC_MODELS,
    LNIndex,
    ProductTargetMap,
    get_model,
    linear_projection_model,
    model_names,
    projection_from_product,
    rational_curve_model,
)
from tpcalc.symbolic import SymbolicExpr, c, c_exponents, fs, parse_expr, symbol_degree
from tpcalc.tpcore import count_points, default_db, evaluate, expand_target, multi_type
from tpcalc.verify import PROPERTY_MODELS, nested_triple_point_class, projection_formula_holds


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
        assert projection_formula_holds(get_model(name))

    def test_fails_on_a_pushforward_that_is_off(self, monkeypatch):
        f = get_model("veronese-p3")
        push = f.pushforward  # f_*(alpha) + 1 breaks f_*(alpha f^* beta) = f_*(alpha) beta
        monkeypatch.setattr(f, "pushforward", lambda alpha: push(alpha) + f.target_ring.one())
        assert not projection_formula_holds(f)


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
        with pytest.raises(ModelError, match="needs parameter >= 1"):
            get_model("ratcurve:0")
        # int() would read each as 4; <d> is [0-9]+, as elsewhere in the model grammar
        for name in ("pencil:+4", "pencil:0_4", "pencil:\u0664", "pencil: 4"):
            with pytest.raises(ModelError, match="^bad parameter in model name"):
                get_model(name)

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


# The variety builders before they dropped `invert`: c(TX) as c(T_ambient)
# times the inverse of prod (1 + L_j), and [X] as the separate product of the L_j.


def reference_tangent(X):
    ring = X.ambient
    tangent = ring.one()
    for name, dim in zip(ring.names, X.factor_dims):
        tangent = tangent * (ring.one() + ring.gen(name)) ** (dim + 1)
    for L in X.divisors:
        tangent = tangent * (ring.one() + L).invert()
    return tangent


def reference_fundamental(X):
    fundamental = X.ambient.one()
    for L in X.divisors:
        fundamental = fundamental * L
    return fundamental


def reference_quotient_chern(f):
    return reference_pullback(f, reference_tangent(f.target)) * reference_tangent(f.source).invert()


def reference_c_monomial(f, I):
    """c^I as a product of powers of the c_j."""
    prod = f.source.ambient.one()
    for j, e in enumerate(I, start=1):
        prod = prod * f.chern(j) ** e
    return prod


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


SHIPPED_NAMES = (["veronese-p3", "scroll-q-p3"]
                 + [f"{m}:{d}" for m in ("ratcurve", "pencil", "web3", "dual-surface")
                    for d in (1, 2, 4)])
MODEL_NAMES = SHIPPED_NAMES + seeded_descriptions(7, 8, 1) + seeded_descriptions(8, 8, 2)
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


ROOT = Path(__file__).resolve().parent.parent
DOCUMENTED = sorted({
    desc for doc in ("README.md", "tests/golden_cli.txt", "tests/golden_expansions.txt",
                     "perfbench/README.md", "perfbench/workloads.py")
    for desc in re.findall(r"[\"'](product \[[^\]]*\](?: ci \[[^\]]*\])? -> \[[^\]]*\])[\"']",
                           (ROOT / doc).read_text(encoding="utf-8"))})  # quoted, as a --model


def test_documented_and_generated_descriptions_parse():
    assert "product [2,3] ci [(4,1)] -> [1]" in DOCUMENTED
    shapes = ["product [2,1] ci [(3,1)] -> [1]",  # the CLI's own example
              "product [1,2,2,3] ci [(1,2,1,3),(3,1,1,2)] -> [0,1]"]  # perfbench's generator
    shapes += [desc.format(d=3) for desc in _PARAMETRIC_MODELS.values() if isinstance(desc, str)]
    seeded = MODEL_NAMES[len(SHIPPED_NAMES):]  # seeded_descriptions writes str(list), str(tuple)
    for desc in DOCUMENTED + shapes + seeded:
        assert get_model(desc).kind == "product-projection"


def test_descriptions_cover_both_target_sizes():
    sizes = {len(_model(name).target_ring.gens) for name in MODEL_NAMES}
    assert sizes == {1, 2}


@given(model_with_classes())
@settings(max_examples=200, deadline=None)
def test_pullback_and_pushforward_match_references(case):
    f, alpha, beta = case
    assert f.pullback(beta) == reference_pullback(f, beta)
    assert f.pullback(beta).terms == fraction_pullback(f, beta).terms
    assert f.pushforward(alpha) == reference_pushforward(f, alpha)
    assert f.pushforward(alpha * f.pullback(beta)) == f.pushforward(alpha) * beta


@given(st.sampled_from(MODEL_NAMES), st.sampled_from(LN_INDICES))
@settings(max_examples=100, deadline=None)
def test_chern_and_ln_classes_match_references(name, I):
    f = get_model(name)  # fresh, so the lazy tables fill in a random order
    assert f.landweber_novikov(I) == reference_landweber_novikov(f, I)
    assert f.quotient_chern() == reference_quotient_chern(f)


# -- the c^I and s_I tables on integer numerators, queried in any order ----------


def fractional_models():
    """Maps with denominators above 1.  In c(f), from a divisor with a Fraction
    coefficient: a surface h/2 in P^3 mapped to P^3 by h, and one cut by a/2 + b
    from P^2 x P^2 projected to its second factor.  In the duals [X] f^*(top/m),
    from a hyperplane class with Fraction coefficients on P^1 x P^1.  Each linear
    map's target is as large as the source's ambient ring, so f^* of the
    target's truncated classes agrees with the pulled-back roots there, which
    the reference c(f) needs."""
    P3 = product_projective([3])
    X = VarietyModel(P3.ambient, [Fraction(1, 2) * P3.ambient.gen("h")])
    P22 = product_projective([2, 2], names=("a", "b"))
    a, b = P22.ambient.gen("a"), P22.ambient.gen("b")
    Y = VarietyModel(P22.ambient, [Fraction(1, 2) * a + b])
    Z = product_projective([1, 1], names=("a", "b"))
    e = Fraction(3, 2) * Z.ambient.gen("a") + Fraction(2, 5) * Z.ambient.gen("b")
    return {"half-divisor-linear": linear_projection_model(X, X.ambient.gen("h"), 3),
            "half-divisor-projection": projection_from_product(Y, [1]),
            "fractional-hyperplane": linear_projection_model(Z, e, 3)}


TABLE_MODELS = ["veronese-p3", "scroll-q-p3", "ratcurve:4", "pencil:2", "web3:2",
                "dual-surface:2", *seeded_descriptions(7, 2, 1), *seeded_descriptions(8, 2, 2),
                *fractional_models()]
FRACTIONAL_NAMES = set(fractional_models())


def table_model(name):
    return fractional_models()[name] if name in FRACTIONAL_NAMES else get_model(name)


warm_table_model = functools.lru_cache(maxsize=None)(table_model)  # warmer with each example


def test_fractional_models_have_denominators_above_1():
    models = fractional_models()
    for name in ("half-divisor-linear", "half-divisor-projection"):
        assert models[name].quotient_chern()._ints[0] > 1 and models[name].chern(1)._ints[0] > 1
    f = models["fractional-hyperplane"]
    assert product_image(f, (1,), cycle=True)._ints[0] > 1  # a dual [X] f^*(h)
    assert all(g.quotient_chern() == reference_quotient_chern(g) for g in models.values())


def class_product_evaluate(expr, f):
    """evaluate from the reference classes: c_j the degree-j part of the retired
    quotient Chern class, s_I the retired LN class, fs_I its retired pullback,
    each raised with ** and multiplied with *, the monomials added one class at a
    time; a scalar lands on the source side."""
    ring = f.target_ring if expr.side == "target" else f.source.ambient
    total = ring.zero()
    for mono, coeff in expr.terms.items():
        if sum(symbol_degree(sym, f.kappa) * e for sym, e in mono) > ring.top_degree:
            continue
        value = ring.one()
        for (kind, payload), e in mono:
            if kind == "c":
                factor = reference_quotient_chern(f).graded_component(payload)
            else:
                factor = reference_landweber_novikov(f, payload)
                factor = factor if kind == "s" else reference_pullback(f, factor)
            value = value * factor ** e
        total = total + coeff * value
    return total


@st.composite
def table_queries(draw):
    """1-6 queries of chern_monomial, landweber_novikov and evaluate, in a random
    order; an expression is a sum of up to 4 monomials of one side."""
    symbols = {"target": st.tuples(st.just("s"), st.sampled_from(LN_INDICES)),
               "source": st.one_of(st.tuples(st.just("c"), st.integers(1, 4)),
                                   st.tuples(st.just("fs"), st.sampled_from(LN_INDICES)))}
    coeff = st.fractions(min_value=-7, max_value=7, max_denominator=12)
    queries = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["chern_monomial", "landweber_novikov", "evaluate"]))
        if kind == "evaluate":
            factor = st.tuples(symbols[draw(st.sampled_from(sorted(symbols)))], st.integers(1, 3))
            mono = st.lists(factor, min_size=1, max_size=3).map(tuple)
            queries.append((kind, SymbolicExpr(draw(st.dictionaries(mono, coeff, min_size=1,
                                                                     max_size=4)))))
        else:
            queries.append((kind, LNIndex(draw(st.sampled_from(LN_INDICES)))))
    return queries


@given(st.sampled_from(TABLE_MODELS), st.booleans(), table_queries())
@settings(max_examples=150, deadline=None)
def test_integer_tables_answer_in_any_order(name, fresh, queries):
    f = table_model(name) if fresh else warm_table_model(name)
    for kind, arg in queries:
        if kind == "chern_monomial":
            got, want = f.chern_monomial(arg), reference_c_monomial(f, arg)
        elif kind == "landweber_novikov":
            got, want = f.landweber_novikov(arg), reference_landweber_novikov(f, arg)
        else:
            got, want = evaluate(arg, f), class_product_evaluate(arg, f)
        assert got == want
        den, nums = got._ints  # canonical: D > 0, in lowest terms, no zero numerator
        assert den > 0 and gcd(den, *nums.values()) == 1 and all(nums.values())


@st.composite
def projection_descriptions(draw):
    """A random 'product [...] ci [...] -> [...]' factor projection."""
    k = draw(st.integers(2, 4))
    dims = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    vector = st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any)
    vectors = draw(st.lists(vector, max_size=min(3, sum(dims) - 1)))
    target = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=k - 1, unique=True))
    desc = f"product {dims}"
    if vectors:
        desc += " ci [" + ",".join(str(tuple(v)) for v in vectors) + "]"
    return f"{desc} -> {sorted(target)}"


def assert_model_matches_retired_routes(f, I):
    for X in (f.source, f.target):
        assert X.tangent_total == reference_tangent(X)
        assert X.fundamental == reference_fundamental(X)
        inverse = chern_of_roots(X.ambient, [(D, -a) for D, a in X.tangent_roots])
        assert inverse * X.tangent_total == X.ambient.one()
    assert f.quotient_chern() == reference_quotient_chern(f)
    assert f.chern_monomial(LNIndex(I)) == reference_c_monomial(f, I)


@given(st.sampled_from(MODEL_NAMES), st.sampled_from(LN_INDICES))
@settings(max_examples=100, deadline=None)
def test_shipped_models_match_the_retired_routes(name, I):
    assert_model_matches_retired_routes(get_model(name), I)


@given(projection_descriptions(), st.sampled_from(LN_INDICES))
@settings(max_examples=100, deadline=None)
def test_random_projections_match_the_retired_routes(desc, I):
    assert_model_matches_retired_routes(get_model(desc), I)


def assert_chern_is_the_full_class(name):
    """c_j of a fresh model against the degree-j part of another's full class:
    built under a cap that stays at most dim X while no higher c_j is read, so
    the full class is left unbuilt, then rebuilt above dim X, and zero above the
    ambient top."""
    f, full = get_model(name), get_model(name).quotient_chern()
    dim, top = f.source.dimension, f.source.ambient.top_degree
    for j in range(-1, dim + 1):
        assert f.chern(j) == full.graded_component(j)
    assert f._cap <= dim
    assert all(j <= f._cap and part.is_homogeneous(j) for j, part in f._chern.items())
    for j in range(dim + 1, top + 2):
        assert f.chern(j) == full.graded_component(j)


@pytest.mark.parametrize("name", [name.replace("<d>", "4") for name in model_names()])
def test_chern_of_every_named_model_is_the_full_class_at_every_degree(name):
    assert_chern_is_the_full_class(name)


@given(projection_descriptions())
@settings(max_examples=60, deadline=None)
def test_chern_of_random_projections_is_the_full_class_at_every_degree(desc):
    assert_chern_is_the_full_class(desc)


CI_256 = ("product [3,3,3,3] ci [(1,2,1,1),(1,2,2,3),(1,1,2,3),(1,1,2,3),(1,2,3,3),(3,3,1,1),"
          "(2,1,2,2),(2,3,2,3),(2,3,3,1),(1,3,2,1)] -> [3]")  # the model of CI's timed count


def test_a_count_builds_c_f_only_up_to_dim_x():
    f = get_model(CI_256)
    assert (prod(n + 1 for n in f.source.ambient.bounds), f.source.dimension) == (256, 2)
    assert count_points(f, multi_type("A0,A0,A0", f.kappa), default_db()) == 69579681570678777882
    assert f._cap == f.source.dimension  # the cap only grows, so it never passed dim X
    assert f._chern and all(j <= f._cap and part.is_homogeneous(j)
                            for j, part in f._chern.items())


def counted_builds(monkeypatch):
    """The argument lists of every `chern_of_roots` call `tpcalc.maps` makes from now on."""
    calls, build = [], maps.chern_of_roots
    monkeypatch.setattr(maps, "chern_of_roots", lambda *args: calls.append(args) or build(*args))
    return calls


@pytest.mark.parametrize("name, spec, count", [
    (CI_256, "A0,A0,A0", 69579681570678777882),
    ("dual-surface:4", "A1,A1,A1", 3200),
    ("web3:4", "A1,A1,A1", 675),
])
def test_a_count_builds_c_f_once(monkeypatch, name, spec, count):
    f = get_model(name)
    calls = counted_builds(monkeypatch)
    assert count_points(f, multi_type(spec, f.kappa), default_db()) == count
    assert [cap for _ring, _roots, cap in calls] == [f.source.dimension]


def test_an_interpolation_system_builds_c_f_once_per_model(monkeypatch):
    t, db = multi_type("A1,A1,A1", -1), default_db().copy()
    db.remove(t.key, -1)
    models = [get_model("dual-surface:3"), get_model("web3:4")]
    calls = counted_builds(monkeypatch)
    system = assemble_system(t, db, [(str(n), f, 0) for n, f in enumerate(models)])
    assert len(system.rows) == 2 and len(system.unknowns) > 1
    assert [cap for _ring, _roots, cap in calls] == [f.source.dimension for f in models]


@pytest.mark.parametrize("name, read", [
    ("dual-surface:4", lambda f: evaluate(parse_expr("c1 + c2 + c3 + c4"), f)),
    ("dual-surface:4", lambda f: evaluate(parse_expr("c4 + c3 + c2 + c1"), f)),
    ("veronese-p3", nested_triple_point_class),
], ids=["c_j-increasing", "c_j-decreasing", "nested-triple-point"])
def test_c_f_is_built_once_whatever_order_the_c_j_come_in(monkeypatch, name, read):
    f = get_model(name)
    calls = counted_builds(monkeypatch)
    got = read(f)
    assert len(calls) == 1
    assert got == read(get_model(name))


def test_a_linear_projection_below_dim_x_is_refused():
    X = parse_variety("product [2,2] ci [(1,2)]")  # dim 3
    e = Fraction(3, 2) * X.ambient.gen("h") + Fraction(2, 5) * X.ambient.gen("H")
    with pytest.raises(ModelError, match="dimension 3 to P\\^2 is not a morphism"):
        linear_projection_model(X, e, 2)
    assert linear_projection_model(X, e, 3).kappa == 0
    for name in ["veronese-p3", "scroll-q-p3"] + [f"ratcurve:{d}" for d in range(1, 6)]:
        f = get_model(name)
        assert f.kappa == 1 and f.landweber_novikov(()) == f.pushforward(f.source.ambient.one())


def reference_cf(f):
    """c(f) from the uncapped `chern_of_roots`, over the target's roots pulled back
    by the reference, the route `MapModel.chern` left for the hyperplane classes."""
    roots = [(reference_pullback(f, D), a) for D, a in f.target.tangent_roots]
    roots += [(D, -a) for D, a in f.source.tangent_roots]
    return chern_of_roots(f.source.ambient, roots)


@st.composite
def cap_reads(draw, f):
    """Every c_j from j = -1 to one above the ambient top, in a random order,
    with up to 6 reads of the total class and of LN classes put in between."""
    reads = draw(st.permutations(range(-1, f.source.ambient.top_degree + 2)))
    others = st.one_of(st.just("total"), st.sampled_from(LN_INDICES).map(LNIndex))
    for other in draw(st.lists(others, max_size=6)):
        reads.insert(draw(st.integers(0, len(reads))), other)
    return reads


@given(st.one_of(st.sampled_from(SHIPPED_NAMES + sorted(FRACTIONAL_NAMES)),
                 projection_descriptions()), st.data())
@settings(max_examples=150, deadline=None)
def test_one_growing_cap_reads_c_f_in_any_order(name, data):
    f = table_model(name)
    full, top = reference_cf(f), f.source.ambient.top_degree
    parts = full.components()
    for read in data.draw(cap_reads(f)):
        cap = f._cap
        if read == "total":
            assert f.quotient_chern() == full
        elif isinstance(read, LNIndex):
            assert f.landweber_novikov(read) == reference_landweber_novikov(f, read)
            if read and 0 <= read.degree(f.kappa) <= f.target_ring.top_degree:
                assert f._cap >= f.source.dimension  # an s_I builds c(f) up to dim X
        else:
            assert f.chern(read) == parts.get(read, f.source.ambient.zero())
            if not 0 < read <= top:
                assert f._cap == cap  # c_0 = 1 and a zero below 0 or above the top build nothing
        assert cap <= f._cap <= top and set(f._chern) <= set(range(f._cap + 1))


@given(st.one_of(st.sampled_from(SHIPPED_NAMES + sorted(FRACTIONAL_NAMES)),
                 projection_descriptions()))
@settings(max_examples=60, deadline=None)
def test_c_f_is_the_reference_at_every_cap(name):
    """A fresh model's first read of c_j builds c(f) at cap j (at the top above
    dim X), from the hyperplane classes: the reference's parts up to that cap."""
    parts = reference_cf(table_model(name)).components()
    for j in range(1, table_model(name).source.ambient.top_degree + 1):
        f = table_model(name)
        f.chern(j)
        assert f._total == sum((part for d, part in parts.items() if d <= f._cap),
                               f.source.ambient.zero())


DIVISORS_200 = ("product [2047,1] ci [" + ",".join(f"({i},1)" for i in range(1, 201))
                + "] -> [1]")  # CI's c(f) timing model: dim X = 1848, kappa = -1847


@pytest.mark.parametrize("name, I", [
    (DIVISORS_200, (1,)), (DIVISORS_200, (0, 1)), (DIVISORS_200, (3, 0, 2)),
    ("product [3,3] ci [(1,0)] -> [0]", (1,)),  # kappa = -2, so s_1 has degree -1
    ("veronese-p3", (3,)), ("veronese-p3", (0, 0, 1)),  # degree 4 on P^3
], ids=["200-divisors-s_1", "200-divisors-s_01", "200-divisors-s_302", "kappa-2-s_1",
        "veronese-s_3", "veronese-s_001"])
def test_an_s_i_outside_the_target_degrees_is_zero_with_nothing_built(monkeypatch, name, I):
    f = get_model(name)
    assert not 0 <= LNIndex(I).degree(f.kappa) <= f.target_ring.top_degree
    calls = counted_builds(monkeypatch)
    assert f.landweber_novikov(I).is_zero() and calls == [] and f._c_ints == {(): (1, {0: 1})}
    assert f.landweber_novikov(I) == get_model(name).pushforward(get_model(name).chern_monomial(I))


def product_image(f, m, cycle=False):
    """f^*(m), or [X] f^*(m) for a cycle, as a product of powers of the hyperplane
    classes with GradedClass products, not through the model's tables."""
    start = f.source.fundamental if cycle else f.source.ambient.one()
    return reduce(operator.mul, [H ** e for H, e in zip(f.hyperplanes, m)], start)


def fraction_pushforward(f, alpha):
    """The retired Fraction route: one Fraction integral of alpha against each
    dual [X] f^*(top/m), its numerators rebuilt by the class constructor."""
    ambient, ring, top = f.source.ambient, f.target_ring, f.target_ring.top_monomial
    terms = {}
    for d in {ambient.monomial_degree(m) for m in alpha.terms}:
        for m in ring.monomials_of_degree(d + f.kappa):
            dual = product_image(f, tuple(b - e for b, e in zip(top, m)), cycle=True)
            if x := _integrate_product(ambient, alpha, dual):
                terms[m] = x
    return GradedClass(ring, terms)


def fractional_hyperplane_models():
    """Maps whose duals [X] f^*(top/m) have denominators other than 1."""
    X = parse_variety("product [2,2] ci [(1,2)]")
    a, b = X.ambient.gen("h"), X.ambient.gen("H")
    return [linear_projection_model(X, Fraction(3, 2) * a + Fraction(2, 5) * b, 3),
            ProductTargetMap(X, product_projective([1, 1]), [a / 3, a + Fraction(1, 4) * b], "x")]


@st.composite
def fractional_model_with_classes(draw):
    f = draw(st.sampled_from(fractional_hyperplane_models()))
    return f, draw(classes_in(f.source.ambient)), None


@given(st.one_of(model_with_classes(), fractional_model_with_classes()))
@settings(max_examples=200, deadline=None)
def test_pushforward_pairs_on_integers_as_the_fraction_route_did(case):
    f, alpha, _ = case
    for a in (alpha, alpha * f.source.ambient.gen(f.source.ambient.names[0]) / 7):
        got = f.pushforward(a)
        assert got == fraction_pushforward(f, a)
        assert got.terms == fraction_pushforward(f, a).terms
        den, nums = got._ints  # canonical: D > 0, in lowest terms, no zero numerator
        assert den > 0 and gcd(den, *nums.values()) == 1 and all(nums.values())


def test_a_variety_is_its_ring_and_its_divisors():
    for desc in ("product [2,1]", "product [2,3] ci [(4,1)]", "product [3,3] ci [(3,0),(1,1)]",
                 "product [1,3] ci [(1,0),(1,0)]"):  # the last [X] is h^2 = 0
        X = parse_variety(desc)
        Y = VarietyModel(X.ambient, X.divisors)
        assert Y.factor_dims == X.ambient.bounds
        assert Y.dimension == X.ambient.top_degree - len(X.divisors)
        assert Y.fundamental == reference_fundamental(X)
        assert Y.fundamental.is_zero() == desc.endswith("(1,0)]")
        assert Y.tangent_total == reference_tangent(X)
    with pytest.raises(TypeError):
        VarietyModel(X.ambient, X.factor_dims, X.divisors, X.dimension, X.tangent_total,
                     X.fundamental)
    for old in ("tangent_total", "factor_dims", "dimension", "fundamental"):
        with pytest.raises(TypeError):
            VarietyModel(X.ambient, X.divisors, **{old: getattr(X, old)})
    with pytest.raises(ModelError, match="degree-1 generators"):
        VarietyModel(make_ring([("h", 1, 2), ("q", 2, 1)]))


def reference_divisor(ring, vector):
    """The retired route from a multidegree vector: its length checked, then the
    validating class constructor on exponent tuples."""
    if len(vector) != len(ring.gens):
        raise ModelError("multidegree vector has wrong length")
    return GradedClass(ring, {tuple(int(i == j) for j in range(len(vector))): x
                              for i, x in enumerate(vector)})


@st.composite
def multidegree_vectors(draw):
    """A bare product of 1 to 3 factors and an integer vector for it: most of the
    right length, with entries in [-2, 3] (so zero and negative vectors come
    up), some one entry short or long."""
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    length = draw(st.sampled_from([len(dims)] * 4 + [len(dims) - 1, len(dims) + 1]))
    return product_projective(dims), draw(st.lists(st.integers(-2, 3), min_size=length,
                                                   max_size=length))


@given(multidegree_vectors())
@settings(max_examples=200, deadline=None)
def test_a_vector_divisor_is_the_class_the_validating_constructor_built(case):
    X, vector = case
    ring = X.ambient
    got = outcome(lambda: complete_intersection(X, [vector]))
    want = outcome(lambda: VarietyModel(ring, [reference_divisor(ring, vector)]))
    if got[0] == "built":
        assert want[0] == "built" and got[1].divisors == want[1].divisors
    else:
        assert got == want
    if len(vector) != len(ring.gens):
        assert got == ("refused", "multidegree vector has wrong length")
    elif not any(vector):
        assert got == ("refused", "divisor classes must be homogeneous of degree 1")
    elif min(vector) < 0:
        assert got == ("refused", "divisor classes need non-negative multidegree entries")
    elif ring.top_degree == 1:
        assert got == ("refused", "too many divisors: dimension would drop to zero or below")
    else:
        (L,) = got[1].divisors
        assert L._ints == (1, {k: x for k, x in zip(ring._gen_keys, vector) if x})


@st.composite
def divisor_lists(draw):
    """A product of 1 to 3 factors and fewer divisors than its dimension, each a
    nonzero sum of generators with weights 0 to 2 or of denominator 2 to 5, so
    that [X] is often zero (h^2 on P^1) and carries a denominator."""
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    ring = product_projective(dims).ambient
    weight = st.one_of(st.integers(0, 2), st.builds(Fraction, st.integers(1, 9),
                                                    st.integers(2, 5)))
    divisor = st.lists(weight, min_size=len(dims), max_size=len(dims)).filter(any).map(
        lambda ws: sum((w * ring.gen(n) for n, w in zip(ring.names, ws)), ring.zero()))
    return ring, draw(st.lists(divisor, max_size=ring.top_degree - 1))


@given(divisor_lists())
@settings(max_examples=200, deadline=None)
def test_the_fundamental_class_is_the_product_of_the_divisors(case):
    ring, divisors = case
    X = VarietyModel(ring, divisors)
    assert X.fundamental == reference_fundamental(X)
    den, nums = X.fundamental._ints  # canonical: D > 0, in lowest terms, no zero numerator
    assert den > 0 and gcd(den, *nums.values()) == 1 and all(nums.values())
    assert [D for D, _ in X.tangent_roots[:len(ring.gens)]] == [ring.gen(n) for n in ring.names]


@pytest.mark.parametrize("value", [2.5, 2.0, Fraction(5, 2)])
@pytest.mark.parametrize("build, as_before", [
    (lambda x: make_ring([("h", 1, x)]), lambda ring: ring.bounds == (2,)),
    (lambda x: make_ring([("h", x, 1)]), lambda ring: ring.degrees == (2,)),
    (lambda x: product_projective([x, 1]), lambda X: X.factor_dims == (2, 1)),
    (lambda x: complete_intersection(product_projective([2, 1]), [(x, 1)]),
     lambda X: X.divisors == (parse_class(X.ambient, "2*h + H"),)),
    (lambda x: projection_from_product(product_projective([1, 2, 3]), [x]),
     lambda f: f.target_ring.names == ("h3",) and f.kappa == 3 - 6),
], ids=["ring-bound", "ring-degree", "product", "ci-vector", "projection-factor"])
def test_model_constructors_refuse_a_non_integer(build, as_before, value):
    with pytest.raises(TypeError):
        build(value)
    assert as_before(build(2))


@st.composite
def candidate_divisors(draw):
    """A bare product of 1 to 3 factors, a candidate class L and whether L is an
    effective degree-1 class of its ring: a sum of the monomials of degree 0, 1
    or 2 with coefficients in [-2, 3], the zero class, or a generator of
    another ring."""
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    X = product_projective(dims)
    ring = X.ambient
    kind = draw(st.sampled_from(["sum", "sum", "sum", "zero", "other ring"]))
    if kind == "zero":
        return X, ring.zero(), False
    if kind == "other ring":
        other = make_ring([(n, 1, b + 1) for n, b in zip(ring.names, ring.bounds)])
        return X, other.gen(draw(st.sampled_from(other.names))), False
    degree = draw(st.integers(0, 2))
    monomials = list(ring.monomials_of_degree(degree))
    coeffs = draw(st.lists(st.integers(-2, 3), min_size=len(monomials),
                           max_size=len(monomials)))
    effective = degree == 1 and any(coeffs) and min(coeffs) >= 0
    return X, GradedClass(ring, dict(zip(monomials, coeffs))), effective


def outcome(build):
    """What build() gives: ('built', model) or ('refused', message)."""
    try:
        return "built", build()
    except ModelError as err:
        return "refused", str(err)


@given(candidate_divisors(), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_one_rule_admits_divisors_and_hyperplanes(case, t):
    """VarietyModel and complete_intersection admit the same divisors, and
    ProductTargetMap and linear_projection_model the same hyperplane classes:
    exactly the effective degree-1 classes of the source's ring."""
    X, L, effective = case
    ring = X.ambient
    direct = outcome(lambda: VarietyModel(ring, [L]))
    via_ci = outcome(lambda: complete_intersection(X, [L]))
    assert direct[0] == via_ci[0] == ("built" if effective and ring.top_degree > 1
                                      else "refused")
    if direct[0] == "built":
        assert direct[1].fundamental == via_ci[1].fundamental == L
        assert direct[1].tangent_total == via_ci[1].tangent_total
    else:
        assert direct[1] == via_ci[1]
    Y = product_projective([t])
    direct = outcome(lambda: ProductTargetMap(X, Y, [L], "linear-projection"))
    via_lp = outcome(lambda: linear_projection_model(X, L, t))
    assert direct[0] == ("built" if effective else "refused")
    if t < X.dimension:  # no morphism, whatever L is
        assert via_lp == ("refused", f"a linear projection of a variety of dimension "
                                     f"{X.dimension} to P^{t} is not a morphism")
        return
    assert via_lp[0] == direct[0]
    if direct[0] == "built":
        assert direct[1].kappa == via_lp[1].kappa == t - ring.top_degree
        assert direct[1].quotient_chern() == via_lp[1].quotient_chern()
        assert direct[1].pushforward(ring.one()) == via_lp[1].pushforward(ring.one())
    else:
        assert direct[1] == via_lp[1]


@pytest.mark.parametrize("factors, size", [
    ([("a", 1, 4095)], 4096),
    ([("a", 1, 63), ("b", 1, 63)], 4096),
    ([("a", 1, 4096)], 4097),
    ([("a", 1, 16), ("b", 1, 240)], 4097),
])
def test_variety_model_admits_rings_up_to_the_limit(factors, size):
    ring = make_ring(factors)
    assert chow.MAX_RING_SIZE == 4096
    if size <= chow.MAX_RING_SIZE:
        assert VarietyModel(ring).factor_dims == ring.bounds
    else:
        with pytest.raises(ModelError, match=f"ring of {size} monomials exceeds MAX_RING_SIZE"):
            VarietyModel(ring)


P2xP1 = make_ring([("h", 1, 2), ("H", 1, 1)])


@pytest.mark.parametrize("build, message", [
    (lambda: VarietyModel(P2xP1, [P2xP1.gen("h") ** 2]), "homogeneous of degree 1"),
    (lambda: VarietyModel(P2xP1, [P2xP1.gen("h")] * 3 + [P2xP1.gen("H")]), "too many divisors"),
    (lambda: VarietyModel(P2xP1, [-P2xP1.gen("h")]), "non-negative multidegree"),
    (lambda: VarietyModel(make_ring([("a", 1, 5000), ("b", 1, 5000)])),
     "ring of 25010001 monomials"),
    (lambda: VarietyModel(make_ring([("a", 1, 10 ** 2200), ("b", 1, 10 ** 2200)])),
     re.escape("ring of more than 10^4300 monomials")),  # a size too long to print
    (lambda: ProductTargetMap(product_projective([2]), product_projective([3]),
                              [make_ring([("h", 1, 2)]).gen("h") ** 2], "x"),
     "homogeneous of degree 1"),
    (lambda: ProductTargetMap(product_projective([2]), product_projective([1, 1]),
                              [make_ring([("h", 1, 2)]).gen("h")], "x"),
     "one hyperplane class per target generator"),
    (lambda: ProductTargetMap(product_projective([2, 1]), parse_variety("product [3] ci [(1,)]"),
                              [P2xP1.gen("h")], "x"),
     "bare product"),
])
def test_ill_formed_models_are_refused_at_construction(build, message):
    with pytest.raises(ModelError, match=message):
        build()


@st.composite
def rings_and_roots(draw):
    """A ring of 1 to 3 factors and (D, a) pairs, D a sum of generators with
    positive weights, some of denominator 2 to 5, and a in [-6, 6], with some D
    repeated or given the opposite exponent."""
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    ring = make_ring([(f"g{i}", 1, d) for i, d in enumerate(dims)])
    weight = st.one_of(st.just(1), st.builds(Fraction, st.integers(1, 9), st.integers(2, 5)))
    divisor = st.lists(st.tuples(st.sampled_from(ring.names), weight), min_size=1,
                       max_size=3).map(lambda pairs: sum((w * ring.gen(n) for n, w in pairs),
                                                         ring.zero()))
    exponent = st.integers(-6, 6)
    roots = draw(st.lists(st.tuples(divisor, exponent), min_size=1, max_size=4))
    echoes = draw(st.lists(st.tuples(st.sampled_from(roots), st.booleans(), exponent),
                           max_size=3))
    roots += [(D, -a if opposite else b) for (D, a), opposite, b in echoes]
    return ring, draw(st.permutations(roots))


@given(rings_and_roots())
@settings(max_examples=200, deadline=None)
def test_chern_of_roots_matches_powers(case):
    ring, roots = case
    expected = reduce(operator.mul, [(ring.one() + D) ** a for D, a in roots], ring.one())
    got = chern_of_roots(ring, roots)
    assert got == expected
    assert got.terms == fraction_chern_of_roots(ring, roots).terms


@given(rings_and_roots(), st.data())
@settings(max_examples=200, deadline=None)
def test_a_capped_chern_of_roots_is_the_full_class_up_to_the_cap(case, data):
    ring, roots = case
    cap = data.draw(st.integers(0, ring.top_degree))
    full = chern_of_roots(ring, roots).components()
    assert chern_of_roots(ring, roots, cap).components() == {
        d: part for d, part in full.items() if d <= cap}
    assert chern_of_roots(ring, roots, ring.top_degree).components() == full


def fraction_chern_of_roots(ring, roots):
    """The retired Fraction route: each binomial series a terms dict of
    Fractions, multiplied into the total one GradedClass product at a time."""
    merged = {}
    for D, a in roots:
        merged[D] = merged.get(D, 0) + a
    total = ring.one()
    for D, a in ((D, a) for D, a in merged.items() if a):
        terms, power, coeff, e = {(0,) * len(ring.gens): Fraction(1)}, D, a, 1
        while coeff and not power.is_zero():
            terms.update((m, coeff * x) for m, x in power.terms.items())
            coeff, e = coeff * (a - e) // (e + 1), e + 1
            if coeff:
                power = power * D
        total = total * GradedClass(ring, terms)
    return total


def test_quotient_chern_matches_the_retired_product_near_the_ring_limit():
    f = get_model("product [400,1] -> [0]")  # 802 monomials, target 401
    assert f.quotient_chern() == reference_quotient_chern(f)


def test_a_long_chain_of_chern_monomials_needs_no_deep_recursion():
    f = get_model("product [1200,1] -> [1]")  # 2402 monomials; c_1^1100 is not zero
    cI = f.chern_monomial((1100,))
    assert not cI.is_zero() and cI == f.chern(1) ** 1100


def test_a_long_chain_of_pulled_back_monomials_needs_no_deep_recursion():
    f = get_model("product [1500,1] -> [0]")  # 3002 monomials
    assert f.pullback(f.target_ring.gen("h") ** 1400) == f.source.ambient.gen("h") ** 1400


@given(model_with_classes())
@settings(max_examples=100, deadline=None)
def test_integrate_on_pairs_without_the_product(case):
    f, alpha, _ = case
    X = f.source
    assert integrate_on(X, alpha) == integrate_top(X.ambient, alpha * X.fundamental)


# -- the retired evaluation routes, kept as references --------------------------
#
# Counts and interpolation equations read the top coefficient of `evaluate`'s
# class, and `evaluate` sums its monomials' classes in one terms dict.  The
# retired routes: pairing all factors but one copy of the last with that copy
# (never forming the whole class), and summing the monomials' classes one
# GradedClass addition at a time.


def reference_integrate(expr, f):
    if expr.side == "source":
        raise ValueError("only a target-side expression integrates over Y")
    ring, total = f.target_ring, Fraction(0)
    for mono, coeff in expr.terms.items():
        powers = [(f.landweber_novikov(I), e) for (_s, I), e in mono] or [(ring.one(), 1)]
        last, e = powers.pop()
        factors = [g ** k for g, k in powers + [(last, e - 1)] if k]
        rest = reduce(operator.mul, factors) if factors else ring.one()
        total += coeff * _integrate_product(ring, rest, last)
    return total


def fraction_evaluate(expr, f, side=None):
    """The retired Fraction running sum: one Fraction per term of every
    monomial's class, added into one terms dict."""
    actual = side or "source" if expr.side == "scalar" else expr.side
    ring = f.target_ring if actual == "target" else f.source.ambient
    terms = {}
    for mono, coeff in expr.terms.items():
        if sum(symbol_degree(sym, f.kappa) * e for sym, e in mono) > ring.top_degree:
            continue
        K = c_exponents(mono)
        factors = [f.chern_monomial(K)] if K else []
        for (kind, payload), e in mono:
            if kind != "c":
                ln = f.landweber_novikov(payload)
                factors.append((ln if kind == "s" else fraction_pullback(f, ln)) ** e)
        value = reduce(operator.mul, factors) if factors else ring.one()
        for m, x in value.terms.items():
            terms[m] = terms.get(m, 0) + coeff * x
    return GradedClass(ring, terms)


def fraction_pullback(f, beta):
    """The retired Fraction route of pullback: the images of beta's monomials,
    added one Fraction at a time into one terms dict."""
    terms = {}
    for mono, coeff in beta.terms.items():
        for m, x in product_image(f, mono).terms.items():
            terms[m] = terms.get(m, 0) + coeff * x
    return GradedClass(f.source.ambient, terms)


def reference_evaluate(expr, f, side=None):
    actual = expr.side
    if actual == "scalar":
        actual = side or "source"
    elif side not in (None, actual):
        raise ValueError(f"a {actual}-side expression cannot be evaluated on the {side} side")
    ring = f.target_ring if actual == "target" else f.source.ambient
    total = ring.zero()
    for mono, coeff in expr.terms.items():
        if sum(symbol_degree(sym, f.kappa) * e for sym, e in mono) > ring.top_degree:
            continue  # zero in the ring, so no index is built
        K = c_exponents(mono)  # the c-part is the model's cached c^K
        factors = [f.chern_monomial(K)] if K else []
        for (kind, payload), e in mono:
            if kind == "s":
                factors.append(f.landweber_novikov(payload) ** e)
            elif kind == "fs":
                factors.append(f.pullback(f.landweber_novikov(payload)) ** e)
        total = total + coeff * (reduce(operator.mul, factors) if factors else ring.one())
    return total


@st.composite
def model_with_target_expression(draw):
    """A model and a sum of s-monomials, most of them completed to degree dim Y
    by one more factor (else nearly every integral would be 0)."""
    f = _model(draw(st.sampled_from(MODEL_NAMES)))
    live = [I for I in LN_INDICES if LNIndex(I).c_degree <= f.source.dimension]  # c^I != 0
    power = st.tuples(st.sampled_from(live), st.integers(1, 3))
    coeff = st.fractions(min_value=-7, max_value=7, max_denominator=12)
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        powers = draw(st.lists(power, max_size=2))
        rest = (f.target_ring.top_degree - f.kappa
                - sum((f.kappa + LNIndex(I).c_degree) * e for I, e in powers))
        if rest >= 0 and draw(st.booleans()):
            powers.append((draw(st.sampled_from(chern_monomials_of_degree(rest))), 1))
        terms[tuple((("s", I), e) for I, e in powers)] = draw(coeff)
    return f, SymbolicExpr(terms)


@given(model_with_target_expression())
@settings(max_examples=200, deadline=None)
def test_integrate_matches_the_evaluated_class(case):
    f, expr = case
    assert integrate_top(f.target_ring, evaluate(expr, f, side="target")) == \
        reference_integrate(expr, f)


@pytest.mark.parametrize("name", SHIPPED_NAMES)
def test_counts_match_the_evaluated_class(name):
    f, db = _model(name), default_db()
    counted = 0
    for spec in ("A0,A0", "A0,A0,A0", "A0,A0,A0,A0", "A1", "A0,A1", "A1,A1", "A1,A1,A1"):
        t = multi_type(spec, f.kappa) if f.kappa > 0 or "A0" not in spec else None
        if t is None or t.ell_total != f.target_ring.top_degree:
            continue
        want = reference_integrate(expand_target(t, db), f) / t.aut_order
        assert count_points(f, t, db) == want
        counted += 1
    assert counted


def test_integrate_refuses_source_symbols():
    # A count integrates over Y, so a source-side expression is refused
    # before any class is built.
    f = _model("veronese-p3")
    for expr in (c(1), fs() + 1):
        with pytest.raises(ValueError):
            integrate_top(f.target_ring, evaluate(expr, f, side="target"))


@st.composite
def model_with_expression(draw):
    """A model, an expression on one side (some monomials above the top degree)
    and the side to pass.  With two monomials drawn, their coefficients are set
    to cancel at one ring monomial their classes share, if any."""
    f = _model(draw(st.sampled_from(MODEL_NAMES)))
    kind = draw(st.sampled_from(["target", "source", "scalar"]))
    if kind == "target":
        symbol = st.tuples(st.just("s"), st.sampled_from(LN_INDICES))
    else:
        symbol = st.one_of(st.tuples(st.just("c"), st.integers(1, 4)),
                           st.tuples(st.just("fs"), st.sampled_from(LN_INDICES)))
    mono = st.lists(st.tuples(symbol, st.integers(1, 3)), max_size=0 if kind == "scalar" else 3)
    coeff = st.fractions(min_value=-7, max_value=7, max_denominator=12)
    expr = SymbolicExpr(draw(st.dictionaries(mono.map(tuple), coeff, min_size=1, max_size=6)))
    side = draw(st.sampled_from([None, "source", "target"]) if expr.side == "scalar"
                else st.sampled_from([None, expr.side]))
    on = side or ("target" if expr.side == "target" else "source")  # for each monomial alone
    if len(expr.terms) >= 2:
        m1, m2 = draw(st.permutations(list(expr.terms)))[:2]
        a = reference_evaluate(SymbolicExpr({m1: 1}), f, on).terms
        b = reference_evaluate(SymbolicExpr({m2: 1}), f, on).terms
        if shared := sorted(a.keys() & b.keys()):
            mu = draw(st.sampled_from(shared))
            x1, x2 = expr.terms[m1], expr.terms[m2]
            rest = reference_evaluate(expr, f, side).coefficient(mu) - x1 * a[mu] - x2 * b[mu]
            expr = expr + SymbolicExpr({m2: -(x1 * a[mu] + rest) / b[mu] - x2})
    return f, expr, side


@given(model_with_expression())
@settings(max_examples=300, deadline=None)
def test_evaluate_matches_the_running_sum(case):
    f, expr, side = case
    got = evaluate(expr, f, side)
    assert got == reference_evaluate(expr, f, side)
    assert got.terms == fraction_evaluate(expr, f, side).terms
    assert all(type(x) is Fraction and x for x in got.terms.values())


def test_wrong_ring_and_factor_refusals():
    f = get_model("veronese-p3")  # source P^2 and target P^3: two rings
    with pytest.raises(ModelError, match=r"^pullback argument lives in the wrong ring$"):
        f.pullback(f.source.ambient.one())
    with pytest.raises(ModelError, match=r"^pushforward argument lives in the wrong ring$"):
        f.pushforward(f.target_ring.one())
    with pytest.raises(ModelError, match=r"^target factor index out of range$"):
        projection_from_product(product_projective([2, 1]), [2])


def test_reprs_and_module_level_aliases():
    assert repr(LNIndex((0, 1, 0))) == "LNIndex((0, 1))"
    f = get_model("veronese-p3")
    assert repr(f) == "<linear-projection map, kappa=1>"
    assert repr(get_model("pencil:3")) == "<product-projection map, kappa=-1>"
    h, H = f.source.ambient.gen("h"), f.target_ring.gen("h")
    assert maps.quotient_chern(f) == f.quotient_chern()
    assert maps.landweber_novikov(f, (0, 1)) == f.landweber_novikov((0, 1))
    assert maps.pushforward(f, h) == f.pushforward(h) == 2 * H ** 2
    assert maps.pullback(f, H) == f.pullback(H) == 2 * h
