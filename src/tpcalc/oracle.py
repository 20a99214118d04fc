"""Brute-force double-point counting for parametrized plane curves.

Independent of the expansion engine: for a curve t -> (x(t), y(t)) the
divided differences (x(t)-x(u))/(t-u) and (y(t)-y(u))/(t-u) vanish exactly
on parameter pairs hitting the same image point, so the degree in t of their
resultant in u counts double points with multiplicity -- each node twice,
each cusp-like branch with its local multiplicity (twice the delta
invariant of the affine image).

The resultant is the Sylvester determinant. Each row's denominators are
cleared first, so the determinant is evaluated fraction-free (Bareiss) over
Z[t], every division an exact integer one, and the scale divided back out once.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Sequence

from .grammar import parse_sum, render_sum

Poly = tuple  # coefficient i (int or Fraction) belongs to t^i; () is zero
UPoly = tuple[Poly, ...]  # coefficient j (a Poly in t) belongs to u^j


class OracleError(ValueError):
    pass


# -- univariate polynomials ----------------------------------------------------
# The arithmetic keeps the coefficient type: ints in, ints out; Fractions in,
# Fractions out.


def _trim(out: list) -> tuple:
    """Drop trailing zeros: 0, Fraction(0) or the zero polynomial ()."""
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def poly(coeffs: Sequence) -> Poly:
    return _trim([Fraction(x) for x in coeffs])


def poly_deg(p: Poly) -> int:
    return len(p) - 1  # -1 for the zero polynomial


def poly_add(p: Poly, q: Poly) -> Poly:
    if len(p) < len(q):
        p, q = q, p
    return _trim([a + b for a, b in zip(p, q)] + list(p[len(q):]))


def poly_neg(p: Poly) -> Poly:
    return tuple(-x for x in p)


def poly_sub(p: Poly, q: Poly) -> Poly:
    return poly_add(p, poly_neg(q))


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


def _quotient(a, b):
    """a / b over Q; over Z the floor, so a step that is not exact leaves its
    residue in poly_divmod's remainder."""
    return a // b if isinstance(a, int) and isinstance(b, int) else a / b


def poly_divmod(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    n, lead = len(q), q[-1]
    quo = [lead * 0] * max(len(p) - n + 1, 0)
    for shift in range(len(p) - n, -1, -1):
        if rem[shift + n - 1]:
            factor = quo[shift] = _quotient(rem[shift + n - 1], lead)
            for i, b in enumerate(q):
                rem[shift + i] -= factor * b
    return _trim(quo), _trim(rem)


def poly_div_exact(p: Poly, q: Poly) -> Poly:
    """p / q, which for two integer polys must divide over Z[t]."""
    quo, rem = poly_divmod(p, q)
    if rem:
        raise OracleError("inexact polynomial division")
    return quo


def poly_gcd(p: Poly, q: Poly) -> Poly:
    a, b = poly(p), poly(q)  # over Q[t]
    while b:
        a, b = b, poly_divmod(a, b)[1]
    if not a:
        return ()
    return poly_mul(a, ((Fraction(1) / a[-1]),))  # monic


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


def _bareiss_det(M: list[list[Poly]]) -> Poly:
    """Fraction-free determinant of a matrix of polynomials over Z[t]."""
    n = len(M)
    sign = 1
    prev: Poly = (1,)
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


def _integral(p: UPoly) -> tuple[int, UPoly]:
    """(c, c*p) with c the least c > 0 making every coefficient an integer."""
    c = lcm(*(x.denominator for a in p for x in a))
    return c, tuple(tuple(x.numerator * (c // x.denominator) for x in a) for a in p)


def resultant(p: UPoly | Sequence[Poly], q: UPoly | Sequence[Poly]) -> Poly:
    """Sylvester resultant in u of two polynomials with Q[t] coefficients.

    With this layout Res(u - a, q) = q(a) and Res(p, q*r) = Res(p,q)*Res(p,r).
    The rows are made integral by Res(c*p, q) = c^deg(q) * Res(p, q), so the
    elimination runs over Z[t].
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
    # n shifted rows of p's coefficients above m of q's, highest u-degree first
    matrix = [[()] * i + list(p[::-1]) + [()] * (n - 1 - i) for i in range(n)]
    matrix += [[()] * i + list(q[::-1]) + [()] * (m - 1 - i) for i in range(m)]
    scale = cp**n * cq**m
    return tuple(Fraction(x, scale) for x in _bareiss_det(matrix))


# -- parametrized curves ---------------------------------------------------------


class CurveParam(NamedTuple("CurveParam", [("x", Poly), ("y", Poly)])):
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
        g = poly_gcd(poly_derivative(self.x), poly_derivative(self.y))
        return poly_deg(g) < 1


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
    if not P and not Q:
        raise OracleError("degenerate curve: both coordinates constant")
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
