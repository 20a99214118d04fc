"""Brute-force double-point counting for parametrized plane curves.

Independent of the expansion engine: for a curve t -> (x(t), y(t)) the
divided differences (x(t)-x(u))/(t-u) and (y(t)-y(u))/(t-u) vanish exactly
on parameter pairs hitting the same image point, so the degree in t of their
resultant in u counts double points with multiplicity -- each node twice,
each cusp-like branch with its local multiplicity (twice the delta
invariant of the affine image).

The resultant is the Sylvester determinant. Each row's denominators are
cleared first, and the Kronecker substitution t = 2^B makes every entry one
integer. Since ||f*g||_1 <= ||f||_1 * ||g||_1, the product over the rows of
their entries' summed coefficient 1-norms bounds the determinant's coefficients;
B is its bit length plus 2. Bareiss elimination over Z (`_bareiss`, which
`interp.solve_exact` runs too) gives the determinant at t = 2^B, whose
balanced base-2^B digits are its coefficients in t. The scale is divided
back out once.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm

from .grammar import parse_sum, render_sum

Poly = tuple  # coefficient i (int or Fraction) belongs to t^i; () is zero
UPoly = tuple[Poly, ...]  # coefficient j (a Poly in t) belongs to u^j


class OracleError(ValueError):
    pass


# -- univariate polynomials ----------------------------------------------------


def _trim(out: list) -> tuple:
    """Drop trailing zeros: 0, Fraction(0) or the zero polynomial ()."""
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def poly(coeffs: Sequence) -> Poly:
    return _trim([Fraction(x) for x in coeffs])


def poly_deg(p: Poly) -> int:
    return len(p) - 1  # -1 for the zero polynomial


# no caller in tpcalc; tests/poly_reference.py and tests/test_oracle.py use it as
# their reference product, and perfbench's tracer counts its calls by name
def poly_mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ()
    out = [p[0] * 0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _trim(out)


def poly_derivative(p: Poly) -> Poly:
    return poly([i * p[i] for i in range(1, len(p))])


def poly_content_free(p: Poly) -> Poly:
    """Divide out the numeric content; leading coefficient made positive."""
    if not p:
        return ()
    scale = Fraction(lcm(*(x.denominator for x in p)), gcd(*(x.numerator for x in p)))
    if p[-1] < 0:
        scale = -scale
    return tuple(x * scale for x in p)


def poly_str(p: Poly) -> str:
    return render_sum(
        (p[i], [("t", i)] if i else []) for i in range(len(p) - 1, -1, -1) if p[i]
    )


def parse_poly(text: str, var: str = "t", max_degree: int | None = None) -> Poly:
    """Parse e.g. 't^3 - 2*t + 1/2' into a Poly of degree at most max_degree."""
    coeffs: dict[int, Fraction] = {}
    for coeff, factors in parse_sum(text, OracleError):
        power = 0
        for name, e in factors:
            if name != var:
                raise OracleError(f"unknown variable {name!r} (expected {var!r})")
            power += e
        coeffs[power] = coeffs.get(power, Fraction(0)) + coeff
    top = max((k for k, v in coeffs.items() if v), default=0)
    if max_degree is not None and top > max_degree:
        raise OracleError(f"degree {top} is above the limit of {max_degree}")
    return poly([coeffs.get(k, 0) for k in range(top + 1)])


# -- resultants ----------------------------------------------------------------


def _bareiss(M: list[list[int]], ncols: int) -> tuple[list[int], int]:
    """Fraction-free forward elimination of the integer rows M in place, pivots in
    the first ncols columns (Bareiss): a row below a pivot becomes (pivot * row -
    lead * pivot row) // previous pivot.  Returns the pivot columns and swap sign."""
    pivots, sign, prev, m = [], 1, 1, len(M)
    for col in range(ncols):
        r = len(pivots)
        swap = r if r < m and M[r][col] else next((i for i in range(r + 1, m) if M[i][col]), None)
        if swap is None:
            continue
        M[r], M[swap], sign = M[swap], M[r], sign if swap == r else -sign
        pivot, row = M[r][col], M[r][col + 1:]
        for i in range(r + 1, m):
            lead = M[i][col]
            M[i][col + 1:] = [(a * pivot - lead * b) // prev for a, b in zip(M[i][col + 1:], row)]
        pivots.append(col)
        prev = pivot
    return pivots, sign


def _digits(value: int, bits: int) -> Poly:
    """value's balanced base-2^bits digits, lowest first: p with p(2^bits) = value."""
    half, mask, out = 1 << bits - 1, (1 << bits) - 1, []
    while value:
        out.append(((value + half) & mask) - half)
        value = (value - out[-1]) >> bits
    return tuple(out)


def _integral(p: UPoly) -> tuple[int, UPoly]:
    """(c, c*p) with c the least c > 0 making every coefficient an integer."""
    c = lcm(*(x.denominator for a in p for x in a))
    return c, tuple(tuple(x.numerator * (c // x.denominator) for x in a) for a in p)


def resultant(p: UPoly | Sequence[Poly], q: UPoly | Sequence[Poly]) -> Poly:
    """Sylvester resultant in u of two polynomials with Q[t] coefficients.

    With this layout Res(u - a, q) = q(a) and Res(p, q*r) = Res(p,q)*Res(p,r).
    The rows are made integral by Res(c*p, q) = c^deg(q) * Res(p, q), and
    t = 2^bits makes every entry one integer: `_bareiss` runs over Z.
    """
    p, q = _trim(list(p)), _trim(list(q))
    if not p and not q:
        raise OracleError("resultant of two zero polynomials")
    if not p or not q:
        return ()
    m, n = len(p) - 1, len(q) - 1  # the u-degrees
    if m == 0 and n == 0:
        return (Fraction(1),)
    (cp, p), (cq, q) = _integral(p), _integral(q)
    # the module docstring's bound: n rows hold p's coefficients, m rows q's
    norm_p, norm_q = (sum(abs(x) for a in f for x in a) for f in (p, q))
    bits = (norm_p**n * norm_q**m).bit_length() + 2
    P, Q = ([sum(c << bits * i for i, c in enumerate(a)) for a in f[::-1]] for f in (p, q))
    # n shifted rows of p's coefficients above m of q's, highest u-degree first
    matrix = [[0] * i + P + [0] * (n - 1 - i) for i in range(n)]
    matrix += [[0] * i + Q + [0] * (m - 1 - i) for i in range(m)]
    pivots, sign = _bareiss(matrix, m + n)
    det, scale = sign * matrix[-1][-1] if len(pivots) == m + n else 0, cp**n * cq**m
    return tuple(Fraction(x, scale) for x in _digits(det, bits))


# -- parametrized curves ---------------------------------------------------------


class CurveParam(namedtuple("CurveParam", "x y")):
    """An affine chart of a map P^1 -> P^2, t -> (x(t), y(t)); an (x, y) tuple."""

    __slots__ = ()

    def __new__(cls, x: Poly, y: Poly):
        if poly_deg(x) < 1 and poly_deg(y) < 1:
            raise OracleError("x and y must not both be constant")
        return super().__new__(cls, x, y)

    @property
    def degree(self) -> int:
        return max(poly_deg(self.x), poly_deg(self.y), 1)

    @staticmethod
    def parse(text: str, max_degree: int | None = None) -> "CurveParam":
        """Parse 'x(t), y(t)', e.g. 't^2, t^3'; no degree above max_degree."""
        pieces = text.split(",")
        if len(pieces) != 2:
            raise OracleError("curve must be given as 'x(t), y(t)'")
        return CurveParam(*(parse_poly(p, max_degree=max_degree) for p in pieces))

    def is_immersive(self) -> bool:
        """Whether x' and y' have no common root, that is a nonzero resultant
        (Cox, Little and O'Shea, *Ideals, Varieties, and Algorithms*, ch. 3);
        with one of them 0, whether the other is a nonzero constant."""
        dx, dy = poly_derivative(self.x), poly_derivative(self.y)
        if not dx or not dy:
            return poly_deg(dx or dy) == 0
        return bool(resultant([poly([a]) for a in dx], [poly([b]) for b in dy]))


def divided_difference(p: Poly) -> UPoly:
    """(p(t) - p(u)) / (t - u) as a polynomial in u over Q[t].

    The u^j coefficient is sum_{k > j} p_k t^(k-1-j); no division needed.
    """
    n = poly_deg(p)
    cols = []
    for j in range(max(n, 0)):
        cols.append(poly([p[k] if k < len(p) else 0 for k in range(j + 1, n + 1)]))
    return _trim(cols)


def double_point_resultant(curve: CurveParam) -> Poly:
    """Content-free resultant of the two divided differences."""
    P = divided_difference(curve.x)
    Q = divided_difference(curve.y)
    if len(P) <= 1 and len(Q) <= 1:
        # affine-linear in both coordinates: injective, no double points
        return (Fraction(1),)
    if not P or not Q:
        raise OracleError("non-birational parametrization: resultant vanishes")
    res = resultant(P, Q)
    if not res:
        raise OracleError("non-birational parametrization: resultant vanishes")
    return poly_content_free(res)


def double_point_degree(curve: CurveParam) -> int:
    """Twice the delta invariant of the affine image.

    For an immersive birational parametrization with nodal image and regular
    point at infinity this equals (d-1)(d-2).
    """
    return poly_deg(double_point_resultant(curve))
