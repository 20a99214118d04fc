"""Polynomial division and gcd over Q[t] and Z[t], retired from `tpcalc.oracle`.

The curve oracle decides immersion by a resultant and needs none of these
any more.  They are kept verbatim as the arithmetic behind the test
references: the Bareiss eliminations over Z[t] and Q[t] and the u-polynomial
product in test_oracle.py, and the retired `CurveParam.is_immersive` (a gcd)
in test_records.py.  The arithmetic keeps the coefficient type: ints in,
ints out; Fractions in, Fractions out.
"""

from __future__ import annotations

from fractions import Fraction

from tpcalc.oracle import OracleError, Poly, _trim, poly, poly_mul


def poly_add(p: Poly, q: Poly) -> Poly:
    if len(p) < len(q):
        p, q = q, p
    return _trim([a + b for a, b in zip(p, q)] + list(p[len(q):]))


def poly_neg(p: Poly) -> Poly:
    return tuple(-x for x in p)


def poly_sub(p: Poly, q: Poly) -> Poly:
    return poly_add(p, poly_neg(q))


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
