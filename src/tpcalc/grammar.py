"""The textual grammar of signed sums, shared by every parser and renderer.

Ring classes, symbolic expressions and oracle polynomials are all written
as signed sums of terms such as ``1/2*fs_0^2 - c1*c2 + 3``.  A term is a
``*``-product of factors; a factor is a rational ``p`` or ``p/q``, or a name
raised to an optional ``^n``.  A name is an identifier, optionally followed
by a parenthesised index ``(i,j,...)``, as in ``s_(10,0,1)``.  What a name
means, and in which order terms print, is left to each caller.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from fractions import Fraction

Factors = list[tuple[str, int]]  # (name, exponent) pairs in print order
MAX_DIGITS = 4300  # Python's int-to-str limit, so every coefficient read prints
_TOO_BIG = 10 ** MAX_DIGITS
Term = tuple[Fraction, Factors]

_SIGN_SPLIT_PATTERN = re.compile(r"(?<![\^*/])\s*([+-])\s*")
_FACTOR_PATTERN = re.compile(
    r"(?:(\d+)(?:/(\d+))?|([A-Za-z_][A-Za-z_0-9]*(?:\(\d+(?:,\d+)*\))?))"
    r"(?:\^(\d+))?$"
)


def render_sum(terms: Iterable[Term]) -> str:
    """Render nonzero terms in the order given; the empty sum is ``0``.

    Coefficients print as ``p/q`` with ``/1`` suppressed, and a unit
    coefficient is dropped in front of a monomial.
    """
    out = []
    for coeff, factors in terms:
        mono = "*".join(name if e == 1 else f"{name}^{e}" for name, e in factors)
        mag = abs(coeff)
        if not mono:
            body = render_number(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{render_number(mag)}*{mono}"
        if not out:
            out.append(body if coeff > 0 else f"-{body}")
        else:
            out.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(out) if out else "0"


def render_number(x: Fraction | int) -> str:
    """str(x); a ValueError past MAX_DIGITS digits, which parse_sum would not read."""
    if max(abs(x.numerator), x.denominator) >= _TOO_BIG:
        raise ValueError(f"a result has a number of more than {MAX_DIGITS} digits")
    return str(x)


def parse_sum(text: str, error: type[Exception]) -> list[Term]:
    """Split text into (coefficient, factors) terms, raising ``error`` on bad input.

    Numeric factors are multiplied into the coefficient; names are returned
    with their exponents, unmerged and in the order written.
    """
    text = text.strip()
    if not text:
        raise error("empty expression")
    pieces = _SIGN_SPLIT_PATTERN.split(text)
    # pieces alternates [term, sign, term, sign, ...]; a leading sign gives
    # an empty first chunk.
    signed = [(1, pieces[0])] if pieces[0] else []
    for i in range(1, len(pieces), 2):
        if not pieces[i + 1]:
            raise error(f"dangling sign in {text!r}")
        signed.append((1 if pieces[i] == "+" else -1, pieces[i + 1]))
    terms: list[Term] = []
    for sign, chunk in signed:
        coeff = Fraction(sign)
        factors: Factors = []
        for factor in chunk.split("*"):
            factor = factor.strip()
            m = _FACTOR_PATTERN.match(factor)
            if not m:
                raise error(f"cannot parse factor {factor!r}")
            num, den, name, power = m.groups()
            if len(factor) > MAX_DIGITS and any(len(g or "") > MAX_DIGITS
                                                for g in (num, den, power)):
                raise error(f"number of more than {MAX_DIGITS} digits in factor {factor!r}")
            e = int(power or 1)
            if name is not None:
                factors.append((name, e))
            elif den is not None and int(den) == 0:
                raise error(f"zero denominator in factor {factor!r}")
            else:
                coeff = _times_power(coeff, Fraction(int(num), int(den or 1)), e, factor, error)
        terms.append((coeff, factors))
    return terms


def _times_power(coeff: Fraction, base: Fraction, e: int, factor: str, error) -> Fraction:
    """coeff * base^e, refused with ``error`` if it has more than MAX_DIGITS digits
    above or below the line; bit lengths bound base^e before the power is taken."""
    if (max(base.numerator, base.denominator).bit_length() - 1) * e < _TOO_BIG.bit_length():
        value = coeff * base ** e
        if max(abs(value.numerator), value.denominator) < _TOO_BIG:
            return value
    raise error(f"number of more than {MAX_DIGITS} digits in factor {factor!r}")
