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

`SymbolicExpr` is stored as the ring classes are (`algebra._SparseSum`),
as integer numerators over one denominator, keyed by the canonical monomial
tuple itself, and multiplies on the ring classes' packed monomials;
`packing_of` gives the symbols of a call one `algebra.Packing`, which
encodes their monomials and decodes them.
One push map, `_push`, sends c^K * prod fs_I^e to k_K * prod k_I^e, for
k = s (f_*, `sify`) or k = fs (f^* f_*).
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping
from fractions import Fraction
from operator import index

from .algebra import Packing, _mul_packed, _numerators, _SparseSum
from .grammar import Scalar, _scalar, parse_sum, render_sum

Index = tuple[int, ...]
Symbol = tuple[str, object]  # ('c', j) | ('s', I) | ('fs', I)
Monomial = tuple[tuple[Symbol, int], ...]

_KIND_RANK = {"s": 0, "fs": 1, "c": 2}


def canon_index(I: Iterable[int]) -> Index:
    """Canonical Landweber-Novikov index: trailing zeros trimmed."""
    I = tuple(map(index, I))
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


class SymbolicExpr(_SparseSum):
    """Immutable polynomial with rational coefficients in the free symbols; a
    key of `_ints` is the canonical monomial itself, () for the constant."""

    __slots__ = ()
    _ONE = ()

    def __init__(self, terms: Mapping[Monomial, Scalar]):
        clean: dict[Monomial, Scalar] = {}
        for mono, coeff in terms.items():
            coeff, mono = _scalar(coeff), _canon_monomial(mono)
            clean[mono] = clean[mono] + coeff if mono in clean else coeff
        self.ring, self._ints, self._terms = None, _numerators(clean), None

    @classmethod
    def _from_packed(cls, packing: Packing, den: int, nums: dict[int, int]) -> "SymbolicExpr":
        """sum n / den over nonzero {packed monomial of `packing`: n}."""
        decode = packing.decode
        return cls._from_ints(None, den, {decode(k): n for k, n in nums.items()})

    def _monomials(self) -> Iterable[Monomial]:
        return self._ints[1]

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "SymbolicExpr":
        return SymbolicExpr({})

    @staticmethod
    def constant(value: Scalar) -> "SymbolicExpr":
        return SymbolicExpr({(): value})

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other: SymbolicExpr | Scalar) -> SymbolicExpr:
        if isinstance(other, (int, Fraction)):
            return self._times(other)
        (den1, a), (den2, b) = self._ints, self._coerce(other)._ints
        packing = packing_of((a, b), 2)
        return SymbolicExpr._from_packed(
            packing, den1 * den2,
            _mul_packed([(packing.pack(a).items(), packing.pack(b).items())], packing))

    def invert(self):
        raise ValueError("negative powers of symbolic expressions")

    # -- structure -----------------------------------------------------------

    @property
    def side(self) -> str:
        """'target' (s symbols), 'source' (c / fs symbols), or 'scalar'."""
        has_s = has_src = False
        for mono in self._ints[1]:
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

    def _degrees(self, kappa: int) -> list[int]:
        """Each monomial's degree, in `_ints` order, each distinct symbol's once."""
        monos = self._ints[1]
        deg = {sym: symbol_degree(sym, kappa) for sym in {sym for m in monos for sym, _e in m}}
        return [sum(deg[sym] * e for sym, e in m) for m in monos]

    def is_homogeneous(self, degree: int, kappa: int) -> bool:
        return all(d == degree for d in self._degrees(kappa))

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.terms.get(_canon_monomial(mono), Fraction(0))

    def __str__(self) -> str:
        return render_expr(self)


def _canon_monomial(mono) -> Monomial:
    acc: dict[Symbol, int] = {}
    for sym, e in mono:
        if (e := index(e)) < 0:
            raise ValueError("negative exponent")
        if e == 0:
            continue
        kind, payload = sym
        if kind not in _KIND_RANK:
            raise ValueError(f"unknown symbol kind {kind!r}")
        if kind in ("s", "fs"):
            sym = (kind, canon_index(payload))
        else:
            j = index(payload)
            if j < 1:
                raise ValueError("c-symbols need index >= 1 (c0 is the constant 1)")
            sym = (kind, j)
        acc[sym] = acc.get(sym, 0) + e
    return tuple(sorted(acc.items(), key=lambda kv: _symbol_key(kv[0])))


def packing_of(termsets: Iterable[Mapping[Monomial, object]], factors: int) -> Packing:
    """The packing of the mappings' monomial keys: symbol i in canonical order
    owns field i, wide enough for a product of `factors` of their terms."""
    powers = {power for terms in termsets for mono in terms for power in mono}
    symbols = sorted({sym for sym, _e in powers}, key=_symbol_key)
    return Packing((factors * max((e for _sym, e in powers), default=1)).bit_length(),
                   symbols=symbols)


# -- symbol constructors ---------------------------------------------------


def c(j: int) -> SymbolicExpr:
    """The quotient Chern class symbol c_j; c_0 = 1 and c_{<0} = 0."""
    if (j := index(j)) < 0:
        return SymbolicExpr.zero()
    if j == 0:
        return SymbolicExpr.constant(1)
    return SymbolicExpr({((("c", j), 1),): Fraction(1)})


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
    """Exponent vector of the c-part of a canonical monomial (c_j by increasing j)."""
    vec = []
    for (kind, j), e in mono:
        if kind == "c":
            vec += [0] * (j - 1 - len(vec)) + [e]
    return tuple(vec)


def _push(expr: SymbolicExpr, kind: str) -> SymbolicExpr:
    """The formal push map c^K * prod fs_I^e -> k_K * prod k_I^e, for k = s
    (f_*: the c-part goes to its Landweber-Novikov symbol and every pullback
    factor leaves by the projection formula) or k = fs (f^* f_*).  The empty
    c-part goes to k_0, the push of 1; monomials that meet add up."""
    den, nums = expr._ints
    acc: dict[Monomial, int] = {}
    for mono, n in nums.items():
        powers = {(kind, c_exponents(mono)): 1}
        for (sym_kind, I), e in mono:
            if sym_kind == "fs":
                powers[kind, I] = powers.get((kind, I), 0) + e
        mono = tuple(sorted(powers.items()) if len(powers) > 1 else powers.items())  # index order
        acc[mono] = acc[mono] + n if mono in acc else n
    return SymbolicExpr._from_ints(None, den, {m: n for m, n in acc.items() if n})


def sify(expr: SymbolicExpr) -> SymbolicExpr:
    """Formal pushforward of a source-side expression: c^K * prod fs_I^e
    maps to s_K * prod s_I^e (see `_push`)."""
    if expr.side == "target":
        raise ValueError("expression is already on the target side")
    return _push(expr, "s")


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
    s_runs = {}  # index order -> exponent: the sorted index sequence, run-length coded
    c_deg = 0
    c_part = []  # (j, -e) by increasing j: the c-exponent vector, sparse
    for (kind, payload), e in mono:
        if kind in ("s", "fs"):
            s_count += e
            s_weight += index_c_degree(payload) * e
            order = _index_order(payload)
            s_runs[order] = s_runs.get(order, 0) + e
        else:
            c_deg += payload * e
            c_part.append((payload, -e))
    return (
        -s_count,
        -s_weight,
        # ordered as the sequences, of equal length here: a longer run is smaller
        tuple(sorted((order, -e) for order, e in s_runs.items())),
        -c_deg,
        (c_part[-1][0] if c_part else 0, c_part),
        mono,
    )


def render_expr(expr: SymbolicExpr) -> str:
    names = {sym: _symbol_str(sym) for sym in {sym for mono in expr.terms for sym, _e in mono}}
    return render_sum(
        (expr.terms[mono], [(names[sym], e) for sym, e in mono])
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
    return SymbolicExpr._from_ints(None, *_numerators(terms))
