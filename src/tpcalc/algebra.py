"""Truncated multigraded polynomial rings over the rationals.

A ring is Q[g_1,...,g_k] modulo the relations g_i^(n_i+1) = 0, with each
generator carrying a positive degree.  This is exactly the intersection ring
of a product of projective spaces, which is all the substrate the rest of the
package needs.  Coefficients are exact rationals; a float raises TypeError.
A `GradedClass` is stored one way, as packed integer numerators over one
denominator, and builds its `fractions.Fraction` terms on first read; its
sums and scalar multiples run on those numerators in `_combine`.  `GradedClass`
and `symbolic.SymbolicExpr` share the operators `_SparseSum` builds from a
sum and a product, and both multiply in one product loop, `_mul_packed`, on
monomials in one packed-integer layout, `Packing`, which encodes and decodes
its own monomials: a ring bounds its fields (so the loop truncates) and reads
exponent tuples, the symbolic kernel sizes them per call (so nothing
overflows) and reads symbol tuples.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .grammar import parse_sum, render_sum

Scalar = Union[int, Fraction]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*$")


class RingError(ValueError):
    """Raised for malformed ring specs or cross-ring operations."""


class Packing:
    """Monomials as integers, one bit field per variable, so a product of two
    monomials is one integer add (Monagan and Pearce, *Sparse polynomial
    multiplication*).  Field i starts at bit i * stride and has `width` bits.
    With bounds n_i < 2^width a guard bit tops each field, and `_mul_packed`
    adds 2^width - 1 - n_i to field i (`bias`), so a guard bit is set exactly
    when an exponent passes n_i: truncation is one ``& guard`` test.

    A packing carries its codec: `encode` maps a monomial to its key and
    `decode` a key back, the constant monomial to and from 0.  A bounded
    packing reads a ring's exponent tuples by fixed shifts, memoised; an
    unbounded one reads tuples of (symbol, exponent) pairs, symbol i of
    `symbols` in field i, from the highest field down, one step per symbol
    a key holds."""

    __slots__ = ("stride", "bias", "guard", "encode", "decode")

    def __init__(self, width: int, bounds: tuple[int, ...] = (), symbols: Sequence = ()):
        self.stride = stride = width + 1 if bounds else width
        self.bias = sum(((1 << width) - 1 - b) << i * stride for i, b in enumerate(bounds))
        self.guard = sum(1 << i * stride + width for i in range(len(bounds)))
        if bounds:
            shifts, mask, memo = range(0, len(bounds) * stride, stride), (1 << width) - 1, {}

            def decode(key: int) -> tuple[int, ...]:
                mono = memo.get(key)
                if mono is None:
                    mono = memo[key] = tuple(key >> s & mask for s in shifts)
                return mono

            self.encode = lambda mono: sum(e << s for e, s in zip(mono, shifts))
        else:
            shift = {sym: i * stride for i, sym in enumerate(symbols)}

            def decode(key: int) -> tuple:
                pairs = []
                while key:
                    i = (key.bit_length() - 1) // stride
                    e = key >> i * stride
                    key -= e << i * stride
                    pairs.append((symbols[i], e))
                return tuple(pairs[::-1])

            self.encode = lambda mono: sum(e << shift[sym] for sym, e in mono)
        self.decode = decode

    def pack(self, terms: Mapping, scale: int) -> dict[int, int]:
        """{key: scale * x} over Fraction terms x; `scale` clears every denominator."""
        encode = self.encode
        return {encode(m): x.numerator * (scale // x.denominator) for m, x in terms.items()}

    def unpack(self, nums: Iterable[tuple[int, int]], den: int) -> dict:
        """{monomial: n / den} over (key, integer numerator) pairs."""
        decode = self.decode
        return {decode(k): Fraction(n, den) if den != 1 else Fraction(n) for k, n in nums}


class RingSpec:
    """An ordered list of (name, degree, nilpotency bound) generators.

    A monomial is a tuple of exponents in generator order; it is in normal
    form iff every exponent e_i <= n_i.  The top class is the monomial
    (n_1, ..., n_k) of degree ``top_degree``.  `_packing` gives generator i
    field i, bounded by n_i, and reads keys back as exponent tuples.
    """

    __slots__ = ("gens", "names", "degrees", "bounds", "top_degree", "_index", "_packing")

    def __init__(self, gens: Iterable[tuple[str, int, int]]):
        gens = tuple((str(n), int(d), int(b)) for (n, d, b) in gens)
        names = tuple(g[0] for g in gens)
        if len(set(names)) != len(names):
            raise RingError("duplicate generator name")
        for name, deg, bound in gens:
            if not _NAME_RE.match(name):
                raise RingError(f"bad generator name {name!r}")
            if deg < 1:
                raise RingError(f"generator {name}: degree must be >= 1")
            if bound < 1:
                raise RingError(f"generator {name}: nilpotency bound must be >= 1")
        self.gens = gens
        self.names = names
        self.degrees = tuple(g[1] for g in gens)
        self.bounds = tuple(g[2] for g in gens)
        self.top_degree = sum(d * b for (_, d, b) in gens)
        self._index = {name: i for i, name in enumerate(names)}
        self._packing = Packing(max(self.bounds, default=0).bit_length(), self.bounds)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise RingError(f"no generator named {name!r}") from None

    def monomial_degree(self, mono: tuple[int, ...]) -> int:
        return sum(e * d for e, d in zip(mono, self.degrees))

    @property
    def top_monomial(self) -> tuple[int, ...]:
        return self.bounds

    def zero(self) -> "GradedClass":
        return GradedClass._from_ints(self, 1, {})

    def one(self) -> "GradedClass":
        return GradedClass._from_ints(self, 1, {0: 1})  # the constant monomial packs to 0

    def gen(self, name: str) -> "GradedClass":
        key = 1 << self.index(name) * self._packing.stride  # exponent 1 in the name's field
        return GradedClass._from_ints(self, 1, {key: 1})

    def monomials_of_degree(self, d: int) -> Iterator[tuple[int, ...]]:
        """All normal-form monomials of total degree d, lex order."""
        return _monomials(self.degrees, self.bounds, d)

    def __eq__(self, other) -> bool:
        return isinstance(other, RingSpec) and self.gens == other.gens

    def __hash__(self) -> int:
        return hash(self.gens)

    def __repr__(self) -> str:
        gens = ", ".join(f"({n},{d},{b})" for n, d, b in self.gens)
        return f"RingSpec[{gens}]"


def _monomials(degrees: tuple[int, ...], bounds: tuple[int, ...], d: int, i: int = 0,
               prefix: tuple[int, ...] = ()) -> Iterator[tuple[int, ...]]:
    """prefix + every (e_i, e_i+1, ...) with e_j <= bounds[j] and sum e_j*degrees[j] = d."""
    if i == len(degrees):
        if d == 0:
            yield prefix
        return
    step = degrees[i]
    for e in range(min(bounds[i], d // step) + 1):
        yield from _monomials(degrees, bounds, d - e * step, i + 1, prefix + (e,))


def make_ring(spec: Iterable[tuple[str, int, int]]) -> RingSpec:
    """Build the ring Q[g_i]/(g_i^(n_i+1)) from (name, degree, nilpotency) triples."""
    return RingSpec(spec)


def _scalar(value) -> Fraction:
    """An int or Fraction as a Fraction; a float, or anything else, raises TypeError."""
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(f"coefficients are int or Fraction, not {type(value).__name__}")


class _SparseSum:
    """A finite sum of monomials, `terms`: monomial -> nonzero Fraction.

    A subclass gives `+`, unary `-`, `__mul__` (by a scalar or a sum of its
    own kind), `_coerce`, which lifts a scalar (through `_scalar`) or checks
    an operand, and `invert`, which a negative power calls.
    """

    __slots__ = ()

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __rsub__(self, other: Scalar):
        return self._coerce(other) - self

    def __rmul__(self, other: Scalar):
        return self * other

    def __truediv__(self, other: Scalar):
        return self * (1 / _scalar(other))

    def __pow__(self, n: int):
        if n < 0:
            return self.invert() ** -n
        if n < 2:
            return self if n else self._coerce(1)
        half = self ** (n >> 1)
        return half * half * self if n & 1 else half * half

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self) -> str:
        return f"<{self}>"


class GradedClass(_SparseSum):
    """An element of a RingSpec: a finite sum of monomials with rational coefficients.

    Immutable after construction.  Monomials that violate a nilpotency bound
    are dropped (that is the ring's truncation), zero coefficients are never
    stored.  A class holds ``_ints`` = (D, {packed monomial: integer
    numerator}) in lowest terms with D > 0 (see Packing), on which sums,
    products, inverses, components, integrals, ``==`` and ``hash`` run;
    `terms` is built from them on first read.
    """

    __slots__ = ("ring", "_ints", "_terms", "_hash")

    def __init__(self, ring: RingSpec, terms: Mapping[tuple[int, ...], Scalar]):
        clean: dict[tuple[int, ...], Fraction] = {}
        for mono, coeff in terms.items():
            mono = tuple(mono)
            if len(mono) != len(ring.gens):
                raise RingError(f"monomial {mono} has wrong arity for {ring!r}")
            if any(e < 0 for e in mono):
                raise RingError(f"negative exponent in {mono}")
            coeff = _scalar(coeff)
            if all(e <= b for e, b in zip(mono, ring.bounds)):  # else truncated away
                clean[mono] = clean.get(mono, 0) + coeff
        built = GradedClass._from_terms(ring, {m: c for m, c in clean.items() if c})
        self.ring, self._ints, self._terms, self._hash = ring, built._ints, built._terms, None

    @classmethod
    def _from_terms(cls, ring: RingSpec, terms: dict) -> "GradedClass":
        """Nonzero Fractions on normal-form tuples, unchecked, over the lcm of
        their denominators, which leaves the numerators coprime to it; the terms
        stay as the cache."""
        self, den = object.__new__(cls), lcm(*(c.denominator for c in terms.values()))
        self.ring, self._ints, self._terms, self._hash = (
            ring, (den, ring._packing.pack(terms, den)), terms, None)
        return self

    @classmethod
    def _from_ints(cls, ring: RingSpec, den: int, nums: dict[int, int]) -> "GradedClass":
        """sum n / den over nonzero {packed monomial: n}, brought to lowest terms
        with a positive denominator, terms unbuilt."""
        g = gcd(den, *nums.values())
        g = g if den > 0 else -g
        self = object.__new__(cls)
        self.ring, self._terms, self._hash = ring, None, None
        self._ints = (den // g, {k: n // g for k, n in nums.items()} if g != 1 else nums)
        return self

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        if self._terms is None:
            den, nums = self._ints
            self._terms = self.ring._packing.unpack(nums.items(), den)
        return self._terms

    def _coerce(self, value: Union["GradedClass", Scalar]) -> "GradedClass":
        if isinstance(value, GradedClass):
            if self.ring != value.ring:
                raise RingError("operands live in different rings")
            return value
        return _combine(self.ring, [(_scalar(value), self.ring.one())])

    def __add__(self, other: Union["GradedClass", Scalar]) -> "GradedClass":
        return _combine(self.ring, [(1, self), (1, self._coerce(other))])

    __radd__ = __add__

    def __neg__(self) -> "GradedClass":
        return _combine(self.ring, [(-1, self)])

    def __mul__(self, other: Union["GradedClass", Scalar]) -> "GradedClass":
        if isinstance(other, (int, Fraction)):
            return _combine(self.ring, [(other, self)])
        ring = self._coerce(other).ring  # RingError across rings
        (den1, left), (den2, right) = self._ints, other._ints
        return GradedClass._from_ints(
            ring, den1 * den2, _mul_packed([(left.items(), right.items())], ring._packing))

    # -- structure -------------------------------------------------------

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.ring.gens), Fraction(0))

    def coefficient(self, mono: tuple[int, ...]) -> Fraction:
        return self.terms.get(tuple(mono), Fraction(0))

    def graded_component(self, d: int) -> "GradedClass":
        """The sum of terms of total degree exactly d (zero if none)."""
        return self.components().get(d, self.ring.zero())

    def components(self) -> dict[int, "GradedClass"]:
        """Decomposition into homogeneous pieces, keyed by degree, split on the packed form."""
        ring, (den, nums), parts = self.ring, self._ints, {}
        deg, decode = ring.monomial_degree, ring._packing.decode
        for k, n in nums.items():
            parts.setdefault(deg(decode(k)), {})[k] = n
        return {d: GradedClass._from_ints(ring, den, parts[d]) for d in sorted(parts)}

    def is_homogeneous(self, d: int) -> bool:
        return all(self.ring.monomial_degree(m) == d for m in self.terms)

    def invert(self) -> "GradedClass":
        """Multiplicative inverse of a unit, by degreewise recursion.

        For self = P/D, P integral with constant term a != 0 (else RingError),
        the integral Q_d = a^(d+1) (1/P)_d obey Q_0 = 1 and Q_d =
        -sum_{i=1..d} a^(i-1) P_i Q_(d-i); the inverse is sum_d D Q_d / a^(d+1),
        summed over the one denominator a^(T+1), T the top degree.
        """
        ring, packing, top = self.ring, self.ring._packing, self.ring.top_degree
        den, nums = self._ints
        a = nums.get(0)  # the constant monomial packs to 0
        if a is None:
            raise RingError("not a unit: zero constant term")
        parts: dict[int, list[tuple[int, int]]] = {}  # i -> -a^(i-1) P_i
        for k, n in nums.items():
            if k:
                i = ring.monomial_degree(packing.decode(k))
                parts.setdefault(i, []).append((k, -n * a ** (i - 1)))
        q: list[dict[int, int]] = [{0: 1}]
        total = {0: den * a ** top}
        for d in range(1, top + 1):
            acc = _mul_packed([(part, q[d - i].items()) for i, part in parts.items() if i <= d],
                              packing)
            q.append(acc)
            scale = den * a ** (top - d)
            total.update((k, scale * n) for k, n in acc.items())
        return GradedClass._from_ints(ring, a ** (top + 1), total)

    # -- equality / rendering ---------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        return (isinstance(other, GradedClass) and self.ring == other.ring
                and self._ints == other._ints)

    def __hash__(self) -> int:
        if self._hash is None:
            den, nums = self._ints
            self._hash = hash((self.ring, den, frozenset(nums.items())))
        return self._hash

    def __str__(self) -> str:
        return render_class(self)


def _mul_packed(products, packing: Packing) -> dict[int, int]:
    """The sum of left * right over (left, right) pairs of (key, integer) term
    lists of a packing, with no zeros; a bounded packing truncates.  A `right`
    must be re-iterable."""
    bias, guard = packing.bias, packing.guard
    acc: dict[int, int] = {}
    get = acc.get
    for left, right in products:
        for k1, n1 in left:
            k1 += bias
            for k2, n2 in right:
                k = k1 + k2
                if not k & guard:
                    acc[k] = get(k, 0) + n1 * n2
    return {k - bias: n for k, n in acc.items() if n}


def multiply(p: GradedClass, q: GradedClass) -> GradedClass:
    return p * q


def invert_unit(p: GradedClass) -> GradedClass:
    return p.invert()


def graded_component(p: GradedClass, d: int) -> GradedClass:
    return p.graded_component(d)


def integrate_top(ring: RingSpec, p: GradedClass) -> Fraction:
    """Coefficient of the fundamental top monomial prod g_i^(n_i), the integral of p * 1."""
    return _integrate_product(ring, p, ring.one())


def _integrate_product(ring: RingSpec, p: GradedClass, q: GradedClass) -> Fraction:
    """integrate_top(ring, p * q) without forming the product: each term of p
    pairs with the term of q at the complementary monomial top/m."""
    if p.ring != ring or q.ring != ring:
        raise RingError("class does not live in the given ring")
    (den1, left), (den2, right), top = p._ints, q._ints, ring._packing.encode(ring.bounds)
    return Fraction(sum(n * right.get(top - k, 0) for k, n in left.items()), den1 * den2)


def _combine(ring: RingSpec, pairs: Iterable[tuple[Scalar, GradedClass]]) -> GradedClass:
    """sum x * p over (scalar x, class p of ring) pairs, on integer numerators
    over one common denominator: each x, so scaled, is a constant left factor
    of `_mul_packed`.  The sum's terms are built only when read."""
    pairs = [(x, p._ints) for x, p in pairs]
    den = lcm(*(x.denominator * d for x, (d, _) in pairs))
    return GradedClass._from_ints(ring, den, _mul_packed(
        [([(0, x.numerator * (den // (x.denominator * d)))], nums.items())
         for x, (d, nums) in pairs], ring._packing))


# -- textual grammar -----------------------------------------------------
#
# Classes render as e.g. "1 + 5*h + 6*h^2" or "1 + H - h^2 - h*H": terms
# sorted by total degree then lex on exponent vectors (see grammar.py for
# the shared sign and coefficient rules).


def render_class(p: GradedClass) -> str:
    deg = p.ring.monomial_degree
    return render_sum(
        (p.terms[mono], [(name, e) for name, e in zip(p.ring.names, mono) if e])
        for mono in sorted(p.terms, key=lambda m: (deg(m), tuple(-e for e in m)))
    )


def parse_class(ring: RingSpec, text: str) -> GradedClass:
    """Parse the rendering grammar back into a GradedClass."""
    terms: dict[tuple[int, ...], Fraction] = {}
    for coeff, factors in parse_sum(text, RingError):
        expos = [0] * len(ring.gens)
        for name, e in factors:
            expos[ring.index(name)] += e
        mono = tuple(expos)
        terms[mono] = terms.get(mono, Fraction(0)) + coeff
    return GradedClass(ring, terms)
