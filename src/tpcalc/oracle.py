"""Brute-force double-point counting for parametrized plane curves.

Independent of the expansion engine: for a curve t -> (x(t), y(t)) the
divided differences (x(t)-x(u))/(t-u) and (y(t)-y(u))/(t-u) vanish exactly
on parameter pairs hitting the same image point, so the degree in t of their
resultant in u counts double points with multiplicity -- each node twice,
each cusp-like branch with its local multiplicity (twice the delta
invariant of the affine image).

The resultant is the Sylvester determinant, evaluated fraction-free
(Bareiss) over exact rational polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from .grammar import parse_sum, render_sum

Poly = tuple[Fraction, ...]  # coefficient i belongs to t^i; () is the zero poly
UPoly = tuple[Poly, ...]  # coefficient j (a Poly in t) belongs to u^j


class OracleError(ValueError):
    pass


# -- univariate polynomials over Q -------------------------------------------


def poly(coeffs: Sequence) -> Poly:
    out = [Fraction(x) for x in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_deg(p: Poly) -> int:
    return len(p) - 1  # -1 for the zero polynomial


def poly_add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return poly(
        [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)]
    )


def poly_neg(p: Poly) -> Poly:
    return tuple(-x for x in p)


def poly_sub(p: Poly, q: Poly) -> Poly:
    return poly_add(p, poly_neg(q))


def poly_mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly(out)


def poly_divmod(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quo = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    lead = q[-1]
    while len(rem) >= len(q) and any(x != 0 for x in rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) < len(q):
            break
        factor = rem[-1] / lead
        shift = len(rem) - len(q)
        quo[shift] = factor
        for i, b in enumerate(q):
            rem[shift + i] -= factor * b
        rem.pop()
    return poly(quo), poly(rem)


def poly_div_exact(p: Poly, q: Poly) -> Poly:
    quo, rem = poly_divmod(p, q)
    if rem:
        raise OracleError("inexact polynomial division")
    return quo


def poly_gcd(p: Poly, q: Poly) -> Poly:
    a, b = p, q
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
    num = 0
    den = 1
    for x in p:
        num = gcd(num, x.numerator)
        den = den * x.denominator // gcd(den, x.denominator)
    scale = Fraction(den, num)
    if p[-1] < 0:
        scale = -scale
    return tuple(x * scale for x in p)


def poly_str(p: Poly, var: str = "t") -> str:
    return render_sum(
        (p[i], [(var, i)] if i else []) for i in range(len(p) - 1, -1, -1) if p[i]
    )


def parse_poly(text: str, var: str = "t") -> Poly:
    """Parse e.g. 't^3 - 2*t + 1/2' into a Poly."""
    coeffs: dict[int, Fraction] = {}
    for coeff, factors in parse_sum(text, OracleError):
        power = 0
        for name, e in factors:
            if name != var:
                raise OracleError(f"unknown variable {name!r} (expected {var!r})")
            power += e
        coeffs[power] = coeffs.get(power, Fraction(0)) + coeff
    out = [Fraction(0)] * (max(coeffs) + 1)
    for k, v in coeffs.items():
        out[k] = v
    return poly(out)


# -- resultants ----------------------------------------------------------------


def _upoly_deg(p: UPoly) -> int:
    return len(p) - 1


def _trim_upoly(p: Sequence[Poly]) -> UPoly:
    out = list(p)
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _bareiss_det(M: list[list[Poly]]) -> Poly:
    """Fraction-free determinant of a matrix of polynomials."""
    n = len(M)
    if n == 0:
        return (Fraction(1),)
    sign = 1
    prev: Poly = (Fraction(1),)
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


def resultant(p: UPoly | Sequence[Poly], q: UPoly | Sequence[Poly]) -> Poly:
    """Sylvester resultant in u of two polynomials with Q[t] coefficients.

    With this layout Res(u - a, q) = q(a) and Res(p, q*r) = Res(p,q)*Res(p,r).
    """
    p = _trim_upoly(p)
    q = _trim_upoly(q)
    if not p and not q:
        raise OracleError("resultant of two zero polynomials")
    if not p or not q:
        return ()
    m, n = _upoly_deg(p), _upoly_deg(q)
    if m == 0 and n == 0:
        return (Fraction(1),)
    size = m + n
    matrix: list[list[Poly]] = []
    for i in range(n):  # n rows of p-coefficients
        row = [()] * size
        for k in range(m + 1):
            row[i + k] = p[m - k]
        matrix.append(row)
    for i in range(m):  # m rows of q-coefficients
        row = [()] * size
        for k in range(n + 1):
            row[i + k] = q[n - k]
        matrix.append(row)
    return _bareiss_det(matrix)


# -- parametrized curves ---------------------------------------------------------


@dataclass(frozen=True)
class CurveParam:
    """An affine chart of a map P^1 -> P^2, t -> (x(t), y(t))."""

    x: Poly
    y: Poly

    def __post_init__(self):
        if poly_deg(self.x) < 1 and poly_deg(self.y) < 1:
            raise OracleError("x and y must not both be constant")

    @property
    def degree(self) -> int:
        return max(poly_deg(self.x), poly_deg(self.y), 1)

    @staticmethod
    def parse(text: str) -> "CurveParam":
        """Parse 'x(t), y(t)', e.g. 't^2, t^3'."""
        pieces = text.split(",")
        if len(pieces) != 2:
            raise OracleError("curve must be given as 'x(t), y(t)'")
        return CurveParam(parse_poly(pieces[0]), parse_poly(pieces[1]))

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
    return _trim_upoly(cols)


def double_point_resultant(curve: CurveParam) -> Poly:
    """Content-free resultant of the two divided differences."""
    P = divided_difference(curve.x)
    Q = divided_difference(curve.y)
    if not P and not Q:
        raise OracleError("degenerate curve: both coordinates constant")
    if _upoly_deg(P) <= 0 and _upoly_deg(Q) <= 0:
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
