"""Exact reference arithmetic for the benchmark's correctness checks.

Nothing here calls tpcalc code: each check recomputes its expected value by a
route that does not share the timed code path (closed forms, the exponential
formula, a plain Fraction determinant, a small linear solve).  Library
results are read only as data, through their ``terms`` mappings or their
printed text.
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction


def chern_indices(degree: int) -> list[tuple[int, ...]]:
    """Exponent vectors I (trailing zeros trimmed) with sum j*i_j = degree."""
    out = []

    def rec(j, remaining, acc):
        if remaining == 0:
            out.append(trim(acc))
            return
        if j > remaining:
            return
        for e in range(remaining // j, -1, -1):
            rec(j + 1, remaining - j * e, acc + [e])

    rec(1, degree, [])
    return out


def trim(index) -> tuple[int, ...]:
    index = [int(i) for i in index]
    while index and index[-1] == 0:
        index.pop()
    return tuple(index)


class SymbolValues:
    """Seeded rational values for the formal symbols c_j, s_I and fs_I.

    ``fs_I`` takes the value of ``s_I``: the exponential identity treats a
    pulled-back pushforward as the same free symbol.
    """

    def __init__(self, seed):
        self.seed = seed
        self._cache: dict = {}

    def __repr__(self) -> str:
        return f"SymbolValues({self.seed!r})"

    def _draw(self, key) -> Fraction:
        if key not in self._cache:
            rng = random.Random(f"{self.seed}:{key}")
            self._cache[key] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                                        rng.randint(1, 7))
        return self._cache[key]

    def c(self, j: int) -> Fraction:
        if j < 0:
            return Fraction(0)
        if j == 0:
            return Fraction(1)
        return self._draw(("c", j))

    def s(self, index) -> Fraction:
        return self._draw(("s", trim(index)))

    def symbol(self, kind: str, payload) -> Fraction:
        return self.c(payload) if kind == "c" else self.s(payload)


def value_of_terms(terms, values: SymbolValues) -> Fraction:
    """Evaluate a tpcalc SymbolicExpr given as its ``terms`` mapping."""
    total = Fraction(0)
    for mono, coeff in terms.items():
        term = Fraction(coeff)
        for (kind, payload), e in mono:
            term *= values.symbol(kind, payload) ** e
        total += term
    return total


def c_index(mono) -> tuple[int, ...]:
    """Exponent vector of a pure Chern monomial ((('c', j), e), ...)."""
    vec: dict[int, int] = {}
    for (kind, j), e in mono:
        if kind != "c":
            raise ValueError("not a pure Chern monomial")
        vec[j] = e
    return trim(vec.get(j, 0) for j in range(1, max(vec, default=0) + 1))


def pushed_value(residual_terms, values: SymbolValues) -> Fraction:
    """Value of the formal pushforward c^I -> s_I of a residual."""
    return sum((Fraction(a) * values.s(c_index(mono))
                for mono, a in residual_terms.items()), Fraction(0))


def complete_bell(v: list[Fraction], n: int) -> list[Fraction]:
    """Y_0..Y_n with Y_{m+1} = sum_i C(m, i) Y_{m-i} v_{i+1} (v is 1-based)."""
    Y = [Fraction(1)]
    for m in range(n):
        Y.append(sum((math.comb(m, i) * Y[m - i] * v[i + 1] for i in range(m + 1)),
                     Fraction(0)))
    return Y


def pure_target_value(r: int, v: list[Fraction]) -> Fraction:
    """n_r = r! [x^r] exp(sum_k v_k x^k / k!): the target expansion of A^r."""
    return complete_bell(v, r)[r]


def pure_source_value(r: int, v: list[Fraction], w: list[Fraction]) -> Fraction:
    """The source expansion of A^r: the block holding entry 1 (size j, chosen
    in C(r-1, j-1) ways) keeps its residual w_j, the rest is Y_{r-j}(v)."""
    Y = complete_bell(v, r)
    return sum((math.comb(r - 1, j - 1) * w[j] * Y[r - j] for j in range(1, r + 1)),
               Fraction(0))


def det(matrix: list[list[Fraction]]) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    M = [[Fraction(x) for x in row] for row in matrix]
    n = len(M)
    result = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if M[i][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            M[col], M[pivot] = M[pivot], M[col]
            result = -result
        result *= M[col][col]
        for i in range(col + 1, n):
            f = M[i][col] / M[col][col]
            if f:
                M[i] = [a - f * b for a, b in zip(M[i], M[col])]
    return result


def porteous_value(kappa: int, k: int, values: SymbolValues) -> Fraction:
    """det[c_(kappa+k+j-i)] at the seeded Chern values."""
    return det([[values.c(kappa + k + j - i) for j in range(k)] for i in range(k)])


def in_affine_span(target: dict, particular: dict, kernel: list[dict]) -> bool:
    """Whether target - particular is a rational combination of kernel vectors."""
    keys = sorted(set(target) | set(particular) | {k for vec in kernel for k in vec})
    rows = [[vec.get(key, Fraction(0)) for vec in kernel]
            + [Fraction(target.get(key, 0)) - Fraction(particular.get(key, 0))]
            for key in keys]
    n = len(kernel)
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col] / rows[r][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return all(row[-1] == 0 for row in rows[r:])


# -- printed expressions -------------------------------------------------------

_FACTOR = re.compile(r"^(?:(\d+(?:/\d+)?)|c(\d+)|(s|fs)_(\d+))(?:\^(\d+))?$")


def text_value(text: str, values: SymbolValues) -> Fraction:
    """Evaluate a printed polynomial such as '1/2*fs_0^2 - c1*c2'.

    One digit per index slot, as the CLI prints it.
    """
    text = text.strip()
    if text == "0":
        return Fraction(0)
    pieces = re.split(r" ([+-]) ", text)
    signs = [1] + [1 if p == "+" else -1 for p in pieces[1::2]]
    total = Fraction(0)
    for sign, chunk in zip(signs, pieces[0::2]):
        if chunk.startswith("-"):
            sign, chunk = -sign, chunk[1:]
        term = Fraction(sign)
        for factor in chunk.split("*"):
            m = _FACTOR.match(factor)
            if not m:
                raise ValueError(f"cannot read factor {factor!r} in {text!r}")
            number, cj, kind, digits, power = m.groups()
            e = int(power or 1)
            if number is not None:
                term *= Fraction(number) ** e
            elif cj is not None:
                term *= values.c(int(cj)) ** e
            else:
                term *= values.s(int(d) for d in digits) ** e
        total += term
    return total


def poly_text(coeffs: list[int], var: str = "t") -> str:
    """Print an integer polynomial (coefficient i belongs to t^i)."""
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        a = coeffs[i]
        if a == 0:
            continue
        mono = "" if i == 0 else (var if i == 1 else f"{var}^{i}")
        body = str(abs(a)) if not mono else (mono if abs(a) == 1 else f"{abs(a)}*{mono}")
        if not parts:
            parts.append(body if a > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if a > 0 else f"- {body}")
    return " ".join(parts) or "0"
