"""Polynomials over Q in abstract Chern and pushforward symbols.

Three families of commuting symbols, with no relations imposed:

* ``c<j>``   — quotient Chern classes, degree j;
* ``s_I``    — pushed-forward Chern monomials (target side), degree
  kappa + sum(j * i_j);
* ``fs_I``   — pullbacks of the ``s_I`` to the source, same degree.

Indices I are tuples of non-negative exponents, one per Chern-class slot;
trailing zeros are trimmed and the empty index prints as ``0`` (so ``s_0``
is the pushforward of 1).  An index prints one digit per slot (``s_01``),
or delimited (``s_(10,0,1)``) when an entry exceeds 9.  Target-side expressions use ``s`` symbols only,
source-side ones use ``c`` and ``fs``; the two kinds never mix.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Union

from .algebra import _mul_packed
from .grammar import parse_sum, render_sum

Scalar = Union[int, Fraction]
Index = tuple[int, ...]
Symbol = tuple[str, object]  # ('c', j) | ('s', I) | ('fs', I)
Monomial = tuple[tuple[Symbol, int], ...]

_KIND_RANK = {"s": 0, "fs": 1, "c": 2}


def canon_index(I: Iterable[int]) -> Index:
    """Canonical Landweber-Novikov index: trailing zeros trimmed."""
    I = tuple(int(i) for i in I)
    if any(i < 0 for i in I):
        raise ValueError(f"negative entry in index {I}")
    while I and I[-1] == 0:
        I = I[:-1]
    return I


def index_c_degree(I: Index) -> int:
    """Degree of the Chern monomial c^I, i.e. sum of j*i_j."""
    return sum((j + 1) * i for j, i in enumerate(I))


def index_str(I: Index) -> str:
    """One digit per slot ("01"), or "(10,0,1)" when some entry exceeds 9."""
    if not I:
        return "0"
    if any(i > 9 for i in I):
        return "(" + ",".join(str(i) for i in I) + ")"
    return "".join(str(i) for i in I)


def _symbol_key(sym: Symbol):
    kind, payload = sym
    return (_KIND_RANK[kind], payload if kind != "c" else (payload,))


def _symbol_str(sym: Symbol) -> str:
    kind, payload = sym
    if kind == "c":
        return f"c{payload}"
    return f"{kind}_{index_str(payload)}"


def symbol_degree(sym: Symbol, kappa: int) -> int:
    kind, payload = sym
    if kind == "c":
        return payload
    return kappa + index_c_degree(payload)


class SymbolicExpr:
    """Immutable polynomial with Fraction coefficients in the free symbols."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar]):
        clean: dict[Monomial, Fraction] = {}
        for mono, coeff in terms.items():
            coeff = Fraction(coeff)
            if coeff:
                mono = _canon_monomial(mono)
                clean[mono] = clean.get(mono, 0) + coeff
        self.terms = {m: x for m, x in clean.items() if x}

    @classmethod
    def _trusted(cls, terms: dict) -> "SymbolicExpr":
        """Wrap Fraction coefficients on canonical monomials, unchecked; drops zeros."""
        self = object.__new__(cls)
        self.terms = {m: x for m, x in terms.items() if x}
        return self

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "SymbolicExpr":
        return SymbolicExpr({})

    @staticmethod
    def constant(value: Scalar) -> "SymbolicExpr":
        return SymbolicExpr({(): Fraction(value)})

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: Union["SymbolicExpr", Scalar]) -> "SymbolicExpr":
        other = _coerce(other)
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            terms[mono] = terms.get(mono, 0) + c
        return SymbolicExpr._trusted(terms)

    __radd__ = __add__

    def __neg__(self) -> "SymbolicExpr":
        return SymbolicExpr._trusted({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: Union["SymbolicExpr", Scalar]) -> "SymbolicExpr":
        return self + (-_coerce(other))

    def __rsub__(self, other: Scalar) -> "SymbolicExpr":
        return _coerce(other) - self

    def __mul__(self, other: Union["SymbolicExpr", Scalar]) -> "SymbolicExpr":
        if isinstance(other, (int, Fraction)):
            return SymbolicExpr._trusted({m: c * other for m, c in self.terms.items()})
        a, b = self.terms, other.terms
        den1, den2 = (lcm(*(x.denominator for x in terms.values())) for terms in (a, b))
        packing = Packing((a, b), 2)
        return packing.unpack(_mul_packed([(packing.pack(a, den1), packing.pack(b, den2))]),
                              den1 * den2)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "SymbolicExpr":
        return self * (Fraction(1) / Fraction(other))

    def __pow__(self, n: int) -> "SymbolicExpr":
        if n < 0:
            raise ValueError("negative powers of symbolic expressions")
        if n < 2:
            return self if n else SymbolicExpr.constant(1)
        half = self ** (n >> 1)
        return half * half * self if n & 1 else half * half

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = SymbolicExpr.constant(other)
        return isinstance(other, SymbolicExpr) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.terms.items())))

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def side(self) -> str:
        """'target' (s symbols), 'source' (c / fs symbols), or 'scalar'."""
        has_s = has_src = False
        for mono in self.terms:
            for (kind, _), _e in mono:
                if kind == "s":
                    has_s = True
                else:
                    has_src = True
        if has_s and has_src:
            raise ValueError("expression mixes target (s) and source (c, fs) symbols")
        if has_s:
            return "target"
        if has_src:
            return "source"
        return "scalar"

    def monomial_degree(self, mono: Monomial, kappa: int) -> int:
        return sum(symbol_degree(sym, kappa) * e for sym, e in mono)

    def is_homogeneous(self, degree: int, kappa: int) -> bool:
        return all(self.monomial_degree(m, kappa) == degree for m in self.terms)

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.terms.get(_canon_monomial(mono), Fraction(0))

    def map_monomials(self, fn) -> "SymbolicExpr":
        """Linear extension of a map monomial -> SymbolicExpr."""
        acc: dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            for m, c in fn(mono).terms.items():
                acc[m] = acc.get(m, 0) + c * coeff
        return SymbolicExpr._trusted(acc)

    def __repr__(self) -> str:
        return f"<{render_expr(self)}>"

    def __str__(self) -> str:
        return render_expr(self)


def _coerce(value: Union[SymbolicExpr, Scalar]) -> SymbolicExpr:
    if isinstance(value, SymbolicExpr):
        return value
    return SymbolicExpr.constant(value)


def _canon_monomial(mono) -> Monomial:
    acc: dict[Symbol, int] = {}
    for sym, e in mono:
        if e < 0:
            raise ValueError("negative exponent")
        if e == 0:
            continue
        kind, payload = sym
        if kind not in _KIND_RANK:
            raise ValueError(f"unknown symbol kind {kind!r}")
        if kind in ("s", "fs"):
            sym = (kind, canon_index(payload))
        else:
            j = int(payload)
            if j < 1:
                raise ValueError("c-symbols need index >= 1 (c0 is the constant 1)")
            sym = (kind, j)
        acc[sym] = acc.get(sym, 0) + e
    return tuple(sorted(acc.items(), key=lambda kv: _symbol_key(kv[0])))


class Packing:
    """The monomials of some term mappings as integers (Monagan and Pearce).

    Symbol i in canonical order owns bit field i, wide enough for the
    exponents of a product of `factors` terms of the mappings, so a product
    monomial is one add in ``algebra._mul_packed`` and no field overflows
    (nothing to truncate, so no guard bits).  Packed coefficients are
    integers, the Fractions times a scale that clears their denominators;
    ``unpack`` divides it back out.
    """

    def __init__(self, termsets: Iterable[Mapping[Monomial, Fraction]], factors: int):
        powers = {power for terms in termsets for mono in terms for power in mono}
        self.symbols = sorted({sym for sym, _e in powers}, key=_symbol_key)
        self.width = (factors * max((e for _sym, e in powers), default=1)).bit_length()
        self.shift = {sym: i * self.width for i, sym in enumerate(self.symbols)}

    def pack(self, terms: Mapping[Monomial, Fraction], scale: int = 1) -> list[tuple[int, int]]:
        shift = self.shift
        return [(sum(e << shift[sym] for sym, e in mono), x.numerator * (scale // x.denominator))
                for mono, x in terms.items()]

    def unpack(self, nums: Mapping[int, int], den: int = 1) -> "SymbolicExpr":
        """sum n / den * monomial(k) over nums; a key is read from its highest
        field down, one step per symbol it holds, not one per field."""
        symbols, width = self.symbols, self.width
        terms = {}
        for k, n in nums.items():
            mono = []
            while k:
                i = (k.bit_length() - 1) // width
                e = k >> i * width
                k -= e << i * width
                mono.append((symbols[i], e))
            terms[tuple(reversed(mono))] = Fraction(n, den) if den > 1 else Fraction(n)
        return SymbolicExpr._trusted(terms)


# -- symbol constructors ---------------------------------------------------


def c(j: int, exp: int = 1) -> SymbolicExpr:
    """The quotient Chern class symbol c_j; c_0 = 1 and c_{<0} = 0."""
    if j < 0:
        return SymbolicExpr.zero()
    if j == 0:
        return SymbolicExpr.constant(1)
    return SymbolicExpr({((("c", j), exp),): Fraction(1)})


def s(*I: int) -> SymbolicExpr:
    """The target-side symbol s_I (pushforward of the Chern monomial c^I)."""
    return SymbolicExpr({((("s", canon_index(I)), 1),): Fraction(1)})


def fs(*I: int) -> SymbolicExpr:
    """The source-side symbol fs_I = pullback of s_I."""
    return SymbolicExpr({((("fs", canon_index(I)), 1),): Fraction(1)})


def c_monomial(I: Index) -> SymbolicExpr:
    """c^I = c_1^{i_1} c_2^{i_2} ... as a SymbolicExpr."""
    return SymbolicExpr({tuple((("c", j), e) for j, e in enumerate(I, start=1)): 1})


def c_exponents(mono: Monomial) -> Index:
    """Exponent vector of the c-part of a monomial, canonically trimmed."""
    top = 0
    for (kind, payload), _e in mono:
        if kind == "c":
            top = max(top, payload)
    vec = [0] * top
    for (kind, payload), e in mono:
        if kind == "c":
            vec[payload - 1] = e
    return canon_index(vec)


def split_monomial(mono: Monomial):
    """(c exponent vector, ((index, exp) for fs), ((index, exp) for s))."""
    fs_part = tuple((payload, e) for (kind, payload), e in mono if kind == "fs")
    s_part = tuple((payload, e) for (kind, payload), e in mono if kind == "s")
    return c_exponents(mono), fs_part, s_part


def sify(expr: SymbolicExpr) -> SymbolicExpr:
    """Formal pushforward of a source-side expression.

    Each monomial c^K * prod fs_I^e maps to s_K * prod s_I^e: the c-part is
    pushed to its Landweber-Novikov symbol (the empty c-part becomes s_0, the
    pushforward of 1) and every pullback factor loses its pullback by the
    projection formula.
    """
    if expr.side == "target":
        raise ValueError("expression is already on the target side")

    def push(mono: Monomial) -> SymbolicExpr:
        K, fs_part, s_part = split_monomial(mono)
        if s_part:
            raise ValueError("source expression contains target symbols")
        out = s(*K)
        for I, e in fs_part:
            out = out * s(*I) ** e
        return out

    return expr.map_monomials(push)


# -- rendering --------------------------------------------------------------
#
# Deterministic monomial order tuned to the conventional way these
# polynomials are written: pushforward-heavy monomials first, then by the
# total Chern weight of their indices, then short indices before long ones;
# pure Chern monomials last, higher c_1-powers first ("c1^2 + c2").


def _index_order(I: Index):
    return (len(I), tuple(-i for i in I))


def _monomial_sort_key(mono: Monomial):
    s_count = 0
    s_weight = 0
    s_seq = []
    c_deg = 0
    for (kind, payload), e in mono:
        if kind in ("s", "fs"):
            s_count += e
            s_weight += index_c_degree(payload) * e
            s_seq.extend([_index_order(payload)] * e)
        else:
            c_deg += payload * e
    c_vec = c_exponents(mono)
    return (
        -s_count,
        -s_weight,
        tuple(sorted(s_seq)),
        -c_deg,
        (len(c_vec), tuple(-e for e in c_vec)),
        mono,
    )


def render_expr(expr: SymbolicExpr) -> str:
    return render_sum(
        (expr.terms[mono], [(_symbol_str(sym), e) for sym, e in mono])
        for mono in sorted(expr.terms, key=_monomial_sort_key)
    )


_SYMBOL_RE = re.compile(r"c(\d+)|(s|fs)_(?:(\d+)|\((\d+(?:,\d+)*)\))")


def parse_expr(text: str) -> SymbolicExpr:
    """Parse the grammar produced by render_expr (round-trips bit-exactly)."""
    terms: dict[Monomial, Fraction] = {}
    for coeff, factors in parse_sum(text, ValueError):
        mono = []
        for name, e in factors:
            m = _SYMBOL_RE.fullmatch(name)
            if not m:
                raise ValueError(f"cannot parse factor {name!r}")
            cj, kind, digits, entries = m.groups()
            if cj is not None:
                if int(cj):  # c0 is the constant 1
                    mono.append((("c", int(cj)), e))
            else:
                I = digits if digits is not None else entries.split(",")
                mono.append(((kind, canon_index(int(i) for i in I)), e))
        mono = _canon_monomial(mono)
        terms[mono] = terms.get(mono, 0) + coeff
    return SymbolicExpr._trusted(terms)
