import random
import re
from fractions import Fraction

import pytest

from tpcalc import chow
from tpcalc.algebra import GradedClass, integrate_top, parse_class
from tpcalc.chow import (
    ModelError,
    complete_intersection,
    integrate_on,
    parse_variety,
    product_projective,
)


class TestProductProjective:
    def test_p2(self):
        p2 = product_projective([2])
        assert p2.dimension == 2
        assert p2.divisors == ()
        assert p2.tangent_total == parse_class(p2.ambient, "1 + 3*h + 3*h^2")

    def test_p1xp1(self):
        q = product_projective([1, 1], names=("a", "b"))
        a, b = q.ambient.gen("a"), q.ambient.gen("b")
        assert q.tangent_total == (1 + a) ** 2 * (1 + b) ** 2

    def test_p2xp3(self):
        m = product_projective([2, 3])
        assert m.ambient.top_degree == 5
        assert m.dimension == 5

    def test_empty(self):
        with pytest.raises(ModelError):
            product_projective([])

    def test_bad_dimension(self):
        with pytest.raises(ModelError):
            product_projective([0])

    def test_ring_size_limit(self, monkeypatch):
        assert chow.MAX_RING_SIZE >= 256  # the largest model in tests, demos and README
        with pytest.raises(ModelError, match="9261 monomials"):
            product_projective([20, 20, 20])
        monkeypatch.setattr(chow, "MAX_RING_SIZE", 12)
        assert product_projective([2, 3]).ambient.bounds == (2, 3)
        with pytest.raises(ModelError, match="16 monomials"):
            product_projective([3, 3])


class TestCompleteIntersection:
    def test_conic(self):
        p2 = product_projective([2])
        conic = complete_intersection(p2, [(2,)])
        assert conic.dimension == 1
        assert conic.tangent_total == parse_class(p2.ambient, "1 + h + h^2")
        # chi(P^1) = 2
        c1 = conic.tangent_total.graded_component(1)
        assert integrate_on(conic, c1) == 2

    def test_quadric_surface(self):
        p3 = product_projective([3])
        quadric = complete_intersection(p3, [(2,)])
        assert quadric.dimension == 2
        t = quadric.tangent_total
        assert t.graded_component(1) == 2 * p3.ambient.gen("h")
        assert t.graded_component(2) == 2 * p3.ambient.gen("h") ** 2
        # chi of a smooth quadric surface = 4
        assert integrate_on(quadric, t.graded_component(2)) == 4

    def test_chi_matches_product_model(self):
        q = product_projective([1, 1], names=("a", "b"))
        top = q.tangent_total.graded_component(2)
        assert integrate_on(q, top) == 4

    def test_bidegree_hypersurface(self):
        amb = product_projective([2, 1])
        d = 5
        X = complete_intersection(amb, [(d, 1)])
        ring = amb.ambient
        L = parse_class(ring, f"{d}*h + H")
        expected = amb.tangent_total * (ring.one() + L).invert()
        assert X.tangent_total == expected
        assert X.fundamental == L

    def test_divisor_class_argument(self):
        amb = product_projective([2, 1])
        L = parse_class(amb.ambient, "2*h + H")
        X = complete_intersection(amb, [L])
        assert X.fundamental == L

    def test_too_many_divisors(self):
        p2 = product_projective([2])
        with pytest.raises(ModelError):
            complete_intersection(p2, [(1,), (1,)])

    def test_wrong_degree_divisor(self):
        p2 = product_projective([2])
        with pytest.raises(ModelError):
            complete_intersection(p2, [p2.ambient.gen("h") ** 2])
        with pytest.raises(ModelError):
            complete_intersection(p2, [p2.ambient.zero()])

    def test_negative_multidegree_rejected(self):
        amb = product_projective([2, 1])
        for md in [(-3, 1), (3, -1), parse_class(amb.ambient, "-3*h + H")]:
            with pytest.raises(ModelError, match="non-negative"):
                complete_intersection(amb, [md])
        assert complete_intersection(amb, [(3, 0)]).dimension == 2

    def test_nested_ci_rejected(self):
        p3 = product_projective([3])
        X = complete_intersection(p3, [(2,)])
        with pytest.raises(ModelError):
            complete_intersection(X, [(1,)])


class TestIntegrateOn:
    def test_conic_degree(self):
        p2 = product_projective([2])
        conic = complete_intersection(p2, [(2,)])
        assert integrate_on(conic, p2.ambient.gen("h")) == 2

    def test_wrong_degree_vanishes(self):
        p2 = product_projective([2])
        conic = complete_intersection(p2, [(2,)])
        assert integrate_on(conic, p2.ambient.one()) == 0

    def test_representative_well_defined(self):
        """int_X alpha must equal the ambient integral of alpha * [X]."""
        amb = product_projective([2, 1])
        X = complete_intersection(amb, [(3, 1)])
        ring = amb.ambient
        rng = random.Random(4)
        for _ in range(25):
            terms = {}
            for d in range(ring.top_degree + 1):
                for mono in ring.monomials_of_degree(d):
                    terms[mono] = Fraction(rng.randint(-3, 3))
            alpha = GradedClass(ring, terms)
            assert integrate_on(X, alpha) == integrate_top(
                ring, alpha * X.fundamental
            )

    def test_tangent_constant_term_always_one(self):
        for dims, degs in [([2], [(2,)]), ([3], [(3,)]), ([2, 1], [(4, 1)]),
                           ([3, 3], [(3, 0), (1, 1)])]:
            amb = product_projective(dims)
            X = complete_intersection(amb, degs)
            assert X.tangent_total.constant_term() == 1


class TestDescriptionGrammar:
    def test_bare_product(self):
        X = parse_variety("product [2,3]")
        assert X.factor_dims == (2, 3)
        assert X.divisors == ()

    def test_ci(self):
        X = parse_variety("product [3,3] ci [(3,0),(1,1)]")
        assert X.dimension == 4
        assert len(X.divisors) == 2
        direct = complete_intersection(product_projective([3, 3]),
                                       [(3, 0), (1, 1)])
        assert X.fundamental == direct.fundamental
        assert X.tangent_total == direct.tangent_total

    def test_single_divisor(self):
        X = parse_variety("product [2,1] ci [(4,1)]")
        assert X.dimension == 2

    def test_bad_description(self):
        with pytest.raises(ModelError):
            parse_variety("grassmannian [2,4]")
        with pytest.raises(ModelError):
            parse_variety("product [2,1] ci []")

    @pytest.mark.parametrize("text", [
        "product [2,1] ci [(1,1) xyz]",
        "product [2,1] ci [junk(1,1)]",
        "product [3,3] ci [(3,0);(1,1)]",
        "product [2,1] ci [(1,,1)]",
        "product [2,,1]",
        "product [2 1]",
        "product [2,1,]",
        "product [2,1] ci [(1,1),]",
        "product [2,1] ci [(1,1,)]",
        "product [2,1] ci [(1 1)]",
        "product [2,1] ci [()]",
        "product [-2,1]",
        "product [\u0663,1]",
        "product [2,1] extra",
        pytest.param("product [" + "9" * 5000 + ",1]", id="a factor of 5000 digits"),
        pytest.param("product [2,1] ci [(1,-" + "0" * 4300 + "1)]", id="an entry of 4301 digits"),
    ])
    def test_unreadable_text_is_refused_by_name(self, text):
        with pytest.raises(ModelError, match="cannot parse variety description " + re.escape(repr(text))):
            parse_variety(text)

    def test_whitespace_between_tokens(self):
        X = parse_variety("  product[ 3 , 3 ]ci[ ( 3 , 0 ) ,( 1,1 ) ]  ")
        assert X.fundamental == parse_variety("product [3,3] ci [(3,0),(1,1)]").fundamental

    def test_a_one_entry_vector_may_end_in_a_comma(self):
        """(5,) is Python's repr of a 1-tuple, so generators that write str(tuple(v))
        are read on one factor too; only a one-entry vector takes the comma."""
        X = parse_variety("product [3] ci [(2,)]")
        assert X.fundamental == parse_variety("product [3] ci [(2)]").fundamental
        assert X.fundamental == 2 * X.ambient.gen("h")
        with pytest.raises(ModelError, match="cannot parse"):
            parse_variety("product [3,1] ci [(2,1,)]")


def test_shape_refusals_and_repr():
    with pytest.raises(ModelError, match=r"^one generator name per projective factor$"):
        product_projective([2, 1], names=("h",))
    P2xP1 = product_projective([2, 1])
    with pytest.raises(ModelError, match=r"^multidegree vector has wrong length$"):
        complete_intersection(P2xP1, [(1, 2, 3)])
    assert repr(P2xP1) == "<P2xP1>"
    assert repr(complete_intersection(P2xP1, [(3, 1)])) == "<CI of 1 divisors in P2xP1>"
