import random
from fractions import Fraction
from math import comb, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpcalc.oracle import (
    CurveParam,
    OracleError,
    divided_difference,
    double_point_degree,
    double_point_resultant,
    parse_poly,
    poly,
    poly_content_free,
    poly_deg,
    poly_derivative,
    poly_mul,
    poly_str,
    resultant,
)
from tpcalc.verify import engine_double_point_degree

from poly_reference import (
    poly_add,
    poly_div_exact,
    poly_divmod,
    poly_gcd,
    poly_neg,
    poly_sub,
)


def upoly(*rows):
    """Build a u-polynomial from t-coefficient lists, low u-degree first."""
    return tuple(poly(r) for r in rows)


class TestPolyBasics:
    def test_divmod(self):
        q, r = poly_divmod(poly([2, 0, 1]), poly([1, 1]))  # (t^2+2)/(t+1)
        assert q == poly([-1, 1])
        assert r == poly([3])

    def test_div_exact(self):
        p = poly_mul(poly([1, 2]), poly([-3, 1, 1]))
        assert poly_div_exact(p, poly([1, 2])) == poly([-3, 1, 1])
        with pytest.raises(OracleError):
            poly_div_exact(poly([1, 1]), poly([0, 1]))

    def test_gcd(self):
        a = poly_mul(poly([1, 1]), poly([2, 1]))
        b = poly_mul(poly([1, 1]), poly([5, 1]))
        assert poly_gcd(a, b) == poly([1, 1])
        assert poly_gcd((2, 2), (0, 3, 3)) == poly([1, 1])  # ints taken over Q

    def test_integers_stay_integers(self):
        p = poly_mul((1, 2), (-3, 1, 1))
        assert p == (-3, -5, 3, 2) and all(type(x) is int for x in p)
        q = poly_div_exact(p, (1, 2))
        assert q == (-3, 1, 1) and all(type(x) is int for x in q)
        assert poly_div_exact((0, 6), (3,)) == (0, 2)
        assert poly_divmod((2, 4), (3,)) == ((0, 1), (2, 1))  # floor steps over Z

    def test_inexact_integer_division(self):
        with pytest.raises(OracleError, match="inexact polynomial division"):
            poly_div_exact((2, 4), (3,))  # a coefficient not divisible
        with pytest.raises(OracleError, match="inexact polynomial division"):
            poly_div_exact((1, 0, 1), (1, 1))  # a nonzero remainder

    def test_parse_and_render(self):
        p = parse_poly("t^3 - 2*t + 1/2")
        assert p == poly([Fraction(1, 2), -2, 0, 1])
        assert poly_str(p) == "t^3 - 2*t + 1/2"


_coefficients = st.one_of(
    st.just(0), st.fractions(min_value=-9, max_value=9, max_denominator=4)
)


@given(st.lists(_coefficients, max_size=10).map(poly))
@settings(max_examples=80)
def test_poly_round_trip(p):
    assert parse_poly(poly_str(p)) == p
    assert poly_str(()) == "0"


class TestDividedDifference:
    def test_linear(self):
        assert divided_difference(poly([0, 1])) == upoly([1])

    def test_square(self):
        # (t^2 - u^2)/(t - u) = t + u
        assert divided_difference(poly([0, 0, 1])) == upoly([0, 1], [1])

    def test_cube(self):
        # t^2 + t u + u^2
        assert divided_difference(poly([0, 0, 0, 1])) == upoly(
            [0, 0, 1], [0, 1], [1]
        )

    def test_constant(self):
        assert divided_difference(poly([7])) == ()


class TestResultant:
    def test_linear_evaluation(self):
        # Res_u(u + t, t^2 + t u + u^2) = value at u = -t, namely t^2
        P = upoly([0, 1], [1])
        Q = upoly([0, 0, 1], [0, 1], [1])
        assert resultant(P, Q) == poly([0, 0, 1])

    def test_evaluation_property(self):
        # Res_u(u - a, q(u)) = q(a) with a = t
        rng = random.Random(3)
        for _ in range(20):
            q_coeffs = [rng.randint(-5, 5) for _ in range(4)]
            if q_coeffs[-1] == 0:
                q_coeffs[-1] = 1
            P = upoly([0, -1], [1])  # u - t
            Q = tuple(poly([a]) for a in q_coeffs)
            assert resultant(P, Q) == poly(q_coeffs)  # q evaluated at u = t

    def test_constant_first_argument(self):
        assert resultant(upoly([1]), upoly([1, 1], [2], [1])) == poly([1])

    def test_multiplicative(self):
        rng = random.Random(9)
        for _ in range(15):
            def rand_upoly(deg):
                rows = [[rng.randint(-3, 3)] for _ in range(deg)]
                rows.append([rng.choice([1, 2, -1])])
                return tuple(poly(r) for r in rows)

            p = rand_upoly(rng.randint(1, 2))
            q = rand_upoly(rng.randint(1, 2))
            r = rand_upoly(rng.randint(1, 2))
            qr = _upoly_mul(q, r)
            lhs = resultant(p, qr)
            rhs = poly_mul(resultant(p, q), resultant(p, r))
            assert lhs == rhs

    def test_both_zero(self):
        with pytest.raises(OracleError):
            resultant((), ())


# -- the retired Fraction elimination, kept as the reference ----------------------


def _fraction_bareiss_det(M):
    """Fraction-free determinant of a matrix of polynomials over Q[t]."""
    n = len(M)
    if n == 0:
        return (Fraction(1),)
    sign = 1
    prev = (Fraction(1),)
    M = [row[:] for row in M]
    for k in range(n - 1):
        if not M[k][k]:
            swap = next((i for i in range(k + 1, n) if M[i][k]), None)
            if swap is None:
                return ()
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = poly_sub(poly_mul(M[i][j], M[k][k]), poly_mul(M[i][k], M[k][j]))
                M[i][j] = poly_div_exact(num, prev) if num else ()
            M[i][k] = ()
        prev = M[k][k]
    det = M[n - 1][n - 1]
    return det if sign == 1 else poly_neg(det)


def _fraction_resultant(p, q):
    """The Sylvester determinant with Fraction entries throughout."""
    p, q = list(p), list(q)
    for f in (p, q):
        while f and not f[-1]:
            f.pop()
    if not p and not q:
        raise OracleError("resultant of two zero polynomials")
    if not p or not q:
        return ()
    m, n = len(p) - 1, len(q) - 1
    if m == 0 and n == 0:
        return (Fraction(1),)
    size = m + n
    matrix = []
    for i in range(n):
        row = [()] * size
        for k in range(m + 1):
            row[i + k] = p[m - k]
        matrix.append(row)
    for i in range(m):
        row = [()] * size
        for k in range(n + 1):
            row[i + k] = q[n - k]
        matrix.append(row)
    return _fraction_bareiss_det(matrix)


# zero is drawn often, so leading and inner coefficients vanish, pivots hit
# zero and some determinants are zero; denominators up to 6 mix across rows
_q_coeff = st.one_of(st.just(0), st.just(0),
                     st.fractions(min_value=-7, max_value=7, max_denominator=6))
_t_poly = st.lists(_q_coeff, max_size=6).map(poly)  # t-degree up to 5
_u_poly = st.lists(_t_poly, max_size=6).map(tuple)  # u-degree up to 5
_nonzero_t = st.builds(lambda low, top: poly(low + [top]), st.lists(_q_coeff, max_size=2),
                       st.fractions(min_value=-7, max_value=7, max_denominator=6).filter(bool))


def _u_factor(min_degree):
    """u-degree min_degree to 2, a nonzero leading coefficient, t-degree up to 2."""
    return st.builds(lambda low, top: tuple(low) + (top,),
                     st.lists(_t_poly.map(lambda p: p[:3]), min_size=min_degree, max_size=2),
                     _nonzero_t)


class TestAgainstFractionElimination:
    @given(_u_poly, _u_poly)
    @settings(max_examples=150, deadline=None)
    def test_random_u_polynomials(self, p, q):
        if not any(p) and not any(q):
            with pytest.raises(OracleError):
                resultant(p, q)
            return
        got = resultant(p, q)
        assert got == _fraction_resultant(p, q)
        assert all(type(x) is Fraction for x in got)

    @given(_u_factor(0), _u_factor(0), _u_factor(1))
    @settings(max_examples=40, deadline=None)
    def test_common_factor_gives_zero(self, a, b, c):
        p, q = _upoly_mul(a, c), _upoly_mul(b, c)
        assert resultant(p, q) == _fraction_resultant(p, q) == ()

    def test_zero_pivot_swaps_rows(self):
        # Res(u^2 + 2u + 2, u^3/2) = 2^3 * (1/2)^2; a pivot vanishes on the way
        p = upoly([2], [2], [1])
        q = upoly([0], [0], [0], [Fraction(1, 2)])
        assert resultant(p, q) == _fraction_resultant(p, q) == poly([2])

    def test_seeded_curves(self):
        rng = random.Random(7)
        for d in (3, 4, 5, 6, 7, 5, 6, 7):
            x = [rng.randint(-5, 5) for _ in range(d)] + [rng.choice([-3, -1, 2, 5])]
            y = [rng.randint(-5, 5) for _ in range(d)] + [rng.choice([-2, 1, 4])]
            for scale in (lambda a: a, lambda a: Fraction(a, rng.randint(1, 9))):
                curve = CurveParam(poly(map(scale, x)), poly(map(scale, y)))
                P = divided_difference(curve.x)
                Q = divided_difference(curve.y)
                want = poly_content_free(_fraction_resultant(P, Q))
                assert double_point_resultant(curve) == want


# -- the retired elimination over Z[t], kept as the reference ---------------------


def _poly_bareiss_det(M):
    """Fraction-free determinant of a matrix of polynomials over Z[t]."""
    n = len(M)
    sign = 1
    prev = (1,)
    for k in range(n - 1):
        if not M[k][k]:
            swap = next((i for i in range(k + 1, n) if M[i][k]), None)
            if swap is None:
                return ()
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = poly_sub(poly_mul(M[i][j], M[k][k]), poly_mul(M[i][k], M[k][j]))
                M[i][j] = poly_div_exact(num, prev) if num else ()
            M[i][k] = ()
        prev = M[k][k]
    det = M[n - 1][n - 1]
    return det if sign == 1 else poly_neg(det)


def _poly_resultant(p, q):
    """The Sylvester determinant of p and q scaled to Z[t], eliminated over Z[t]."""
    p, q = list(p), list(q)
    for f in (p, q):
        while f and not f[-1]:
            f.pop()
    if not p and not q:
        raise OracleError("resultant of two zero polynomials")
    if not p or not q:
        return ()
    m, n = len(p) - 1, len(q) - 1
    if m == 0 and n == 0:
        return (Fraction(1),)
    cp, cq = (lcm(*(Fraction(x).denominator for a in f for x in a)) for f in (p, q))
    p, q = ([tuple(int(x * c) for x in a) for a in f] for f, c in ((p, cp), (q, cq)))
    matrix = [[()] * i + p[::-1] + [()] * (n - 1 - i) for i in range(n)]
    matrix += [[()] * i + q[::-1] + [()] * (m - 1 - i) for i in range(m)]
    scale = cp**n * cq**m
    return tuple(Fraction(x, scale) for x in _poly_bareiss_det(matrix))


def _int_poly(coeffs):
    """An integer Poly: a tuple of ints without trailing zeros."""
    while coeffs and not coeffs[-1]:
        coeffs = coeffs[:-1]
    return tuple(coeffs)


# integer coefficients from one digit to thirteen, zero drawn often, so that
# pivots vanish, rows swap and determinants are zero
_z_coeff = st.one_of(st.just(0), st.just(0), st.integers(-9, 9),
                     st.integers(-10**12, 10**12))
_int_u_poly = st.lists(st.lists(_z_coeff, max_size=6).map(_int_poly), max_size=6).map(tuple)
_any_u_poly = st.one_of(_int_u_poly, _u_poly)


class TestAgainstPolyElimination:
    @given(_any_u_poly, _any_u_poly)
    @settings(max_examples=200, deadline=None)
    def test_random_u_polynomials(self, p, q):
        if not any(p) and not any(q):
            with pytest.raises(OracleError):
                resultant(p, q)
            return
        got = resultant(p, q)
        assert got == _poly_resultant(p, q)
        assert all(type(x) is Fraction for x in got)

    @pytest.mark.parametrize("big", [1, 2, 7, 2**20, 2**20 - 1, 10**9])
    def test_coefficient_at_the_bound(self, big):
        # Res((-big) t^j, q) = (-big)^n t^(jn) for q of u-degree n: the one
        # coefficient equals the bound, positive for even n, negative for odd
        for j in range(3):
            for n in range(1, 5):
                q = tuple((k + 1,) for k in range(n)) + ((0, 3),)
                want = (0,) * (j * n) + ((-big) ** n,)
                assert resultant(((0,) * j + (-big,),), q) == want

    @pytest.mark.parametrize("a, b", [(1, 1), (2, 3), (9999, 1), (1, 9999), (2**31, 2**31 + 1)])
    def test_alternating_signs(self, a, b):
        # Res(a - b t, q) = (a - b t)^n: coefficients alternate in sign
        for n in range(1, 7):
            q = ((1,),) * n + ((-1, 2),)
            want = tuple(comb(n, k) * a ** (n - k) * (-b) ** k for k in range(n + 1))
            assert resultant((poly([a, -b]),), q) == want

    def test_degree_10_curve_four_digit_coefficients(self):
        rng = random.Random(10)
        x = [rng.randint(-9999, 9999) for _ in range(10)] + [9973]
        y = [rng.randint(-9999, 9999) for _ in range(10)] + [-8761]
        P, Q = divided_difference(poly(x)), divided_difference(poly(y))
        got = resultant(P, Q)
        assert len(got) > 1 and got == _poly_resultant(P, Q)


def _upoly_mul(a, b):
    out = [poly([]) for _ in range(len(a) + len(b) - 1)]
    for i, pa in enumerate(a):
        for j, pb in enumerate(b):
            out[i + j] = poly_add(out[i + j], poly_mul(pa, pb))
    return tuple(out)


class TestCurves:
    def test_smooth_conic(self):
        assert double_point_degree(CurveParam.parse("t, t^2")) == 0

    def test_cuspidal_cubic(self):
        curve = CurveParam.parse("t^2, t^3")
        assert not curve.is_immersive()
        assert double_point_degree(curve) == 2

    def test_nodal_cubic(self):
        curve = CurveParam.parse("t^2 - 1, t^3 - t")
        assert curve.is_immersive()
        assert double_point_degree(curve) == 2

    def test_line(self):
        assert double_point_degree(CurveParam.parse("t, 2*t + 1")) == 0

    def test_non_birational(self):
        with pytest.raises(OracleError, match="non-birational"):
            double_point_degree(CurveParam.parse("t^2, t^4"))

    def test_both_constant_rejected(self):
        with pytest.raises(OracleError):
            CurveParam(poly([1]), poly([2]))

    def test_resultant_content_free(self):
        res = double_point_resultant(CurveParam.parse("2*t^2, 2*t^3"))
        assert res[-1] > 0
        assert all(x.denominator == 1 for x in res)


# -- immersion by the resultant against the retired gcd route ---------------------


def _gcd_is_immersive(curve):
    """The retired test: x' and y' have a constant gcd over Q[t]."""
    return poly_deg(poly_gcd(poly_derivative(curve.x), poly_derivative(curve.y))) < 1


@pytest.mark.parametrize("text, immersive", [
    ("3, t", True), ("3, t^2", False), ("t, t^5", True), ("t^2, t^3", False),
    ("t^2 - 1, t^3 - t", True),
])
def test_immersion_edge_cases(text, immersive):
    curve = CurveParam.parse(text)
    assert curve.is_immersive() is _gcd_is_immersive(curve) is immersive


@given(_coefficients, st.lists(_coefficients, max_size=4), st.lists(_coefficients, max_size=4))
@settings(max_examples=150, deadline=None)
def test_shared_critical_point_is_not_immersive(a, g, h):
    # x = (t - a)^2 g and y = (t - a)^3 h: x' and y' both vanish at t = a
    square = poly([a * a, -2 * a, 1])
    x = poly_mul(square, poly(g))
    y = poly_mul(poly_mul(poly([-a, 1]), square), poly(h))
    if poly_deg(x) < 1 and poly_deg(y) < 1:
        return
    curve = CurveParam(x, y)
    assert curve.is_immersive() is _gcd_is_immersive(curve) is False


def _random_immersive_curve(rng, d):
    while True:
        x = [rng.randint(-4, 4) for _ in range(d + 1)]
        y = [rng.randint(-4, 4) for _ in range(d + 1)]
        if x[d] == 0 or y[d] == 0:
            continue
        if x[d] * y[d - 1] == x[d - 1] * y[d]:
            continue  # branch at infinity degenerates
        curve = CurveParam(poly(x), poly(y))
        if not curve.is_immersive():
            continue
        try:
            double_point_resultant(curve)
        except OracleError:
            continue
        return curve


class TestOracleAgreement:
    def test_engine_prediction_formula(self):
        for d in range(1, 8):
            assert engine_double_point_degree(d) == (d - 1) * (d - 2)

    def test_random_curves_match_engine(self):
        rng = random.Random(20240815)
        for trial in range(25):
            d = 3 + trial % 4
            curve = _random_immersive_curve(rng, d)
            assert double_point_degree(curve) == engine_double_point_degree(d)
