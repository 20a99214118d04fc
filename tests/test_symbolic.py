from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpcalc.symbolic import (
    SymbolicExpr,
    c,
    c_exponents,
    c_monomial,
    canon_index,
    fs,
    parse_expr,
    render_expr,
    s,
    sify,
)


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
