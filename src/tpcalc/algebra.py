"""Truncated multigraded polynomial rings over the rationals.

A ring is Q[g_1,...,g_k] modulo the relations g_i^(n_i+1) = 0, with each
generator carrying a positive degree.  This is exactly the intersection ring
of a product of projective spaces, which is all the substrate the rest of the
package needs.  Coefficients are `fractions.Fraction`; nothing here ever
touches floating point.  `GradedClass` and `symbolic.SymbolicExpr` share
the sum arithmetic of `_SparseSum`, and both multiply in one product loop,
`_mul_packed`, on monomials in one packed-integer layout, `Packing`, which
encodes and decodes its own monomials: a ring bounds its fields (so the loop
truncates) and reads exponent tuples, the symbolic kernel sizes them per
call (so nothing overflows) and reads symbol tuples.
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

    def pack(self, terms: Mapping, scale: int) -> list[tuple[int, int]]:
        """[(key, scale * x)] over Fraction terms x; `scale` clears every denominator."""
        encode = self.encode
        return [(encode(m), x.numerator * (scale // x.denominator)) for m, x in terms.items()]

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
        return GradedClass._trusted(self, {})

    def one(self) -> "GradedClass":
        return GradedClass._trusted(self, {(0,) * len(self.gens): Fraction(1)})

    def gen(self, name: str) -> "GradedClass":
        mono = tuple(1 if i == self.index(name) else 0 for i in range(len(self.gens)))
        return GradedClass._trusted(self, {mono: Fraction(1)})

    def monomials_of_degree(self, d: int) -> Iterator[tuple[int, ...]]:
        """All normal-form monomials of total degree d, lex order."""

        def rec(i: int, remaining: int, prefix: tuple[int, ...]):
            if i == len(self.gens):
                if remaining == 0:
                    yield prefix
                return
            step = self.degrees[i]
            for e in range(min(self.bounds[i], remaining // step) + 1):
                yield from rec(i + 1, remaining - e * step, prefix + (e,))

        return rec(0, d, ())

    def __eq__(self, other) -> bool:
        return isinstance(other, RingSpec) and self.gens == other.gens

    def __hash__(self) -> int:
        return hash(self.gens)

    def __repr__(self) -> str:
        gens = ", ".join(f"({n},{d},{b})" for n, d, b in self.gens)
        return f"RingSpec[{gens}]"


def make_ring(spec: Iterable[tuple[str, int, int]]) -> RingSpec:
    """Build the ring Q[g_i]/(g_i^(n_i+1)) from (name, degree, nilpotency) triples."""
    return RingSpec(spec)


class _SparseSum:
    """A finite sum of monomials, `terms`: monomial -> nonzero Fraction.

    A subclass wraps a terms dict (`_like`), lifts a scalar or checks an
    operand (`_coerce`), and gives `__mul__` (a scalar goes to `_scale`) and
    `invert`, which a negative power calls.
    """

    __slots__ = ()

    def __add__(self, other):
        terms = dict(self.terms)
        for mono, x in self._coerce(other).terms.items():
            if x := x + terms.get(mono, 0):
                terms[mono] = x
            else:
                del terms[mono]
        return self._like(terms)

    __radd__ = __add__

    def __neg__(self):
        return self._like({m: -x for m, x in self.terms.items()})

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __rsub__(self, other: Scalar):
        return self._coerce(other) - self

    def _scale(self, value: Scalar):
        return self._like({m: x * value for m, x in self.terms.items()} if value else {})

    def __rmul__(self, other: Scalar):
        return self * other

    def __truediv__(self, other: Scalar):
        return self * (Fraction(1) / Fraction(other))

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
    """An element of a RingSpec: a finite sum of monomials with Fraction coefficients.

    Immutable after construction.  Monomials that violate a nilpotency bound
    are dropped (that is the ring's truncation), zero coefficients are never
    stored.  Products and inverses run on packed monomials (see Packing) and
    integer numerators over a common denominator (``_ints``, kept once built).
    """

    __slots__ = ("ring", "terms", "_hash", "_ints")

    def __init__(self, ring: RingSpec, terms: Mapping[tuple[int, ...], Scalar]):
        clean: dict[tuple[int, ...], Fraction] = {}
        for mono, coeff in terms.items():
            mono = tuple(mono)
            if len(mono) != len(ring.gens):
                raise RingError(f"monomial {mono} has wrong arity for {ring!r}")
            if any(e < 0 for e in mono):
                raise RingError(f"negative exponent in {mono}")
            coeff = Fraction(coeff)
            if all(e <= b for e, b in zip(mono, ring.bounds)):  # else truncated away
                clean[mono] = clean.get(mono, 0) + coeff
        self.ring, self.terms = ring, {m: c for m, c in clean.items() if c}
        self._hash = self._ints = None

    @classmethod
    def _trusted(cls, ring: RingSpec, terms: dict, ints=None) -> "GradedClass":
        """Wrap nonzero Fractions on normal-form tuples, unchecked."""
        self = object.__new__(cls)
        self.ring, self.terms, self._hash, self._ints = ring, terms, None, ints
        return self

    def _like(self, terms: dict) -> "GradedClass":
        return GradedClass._trusted(self.ring, terms)

    def _coerce(self, value: Union["GradedClass", Scalar]) -> "GradedClass":
        if isinstance(value, GradedClass):
            if self.ring != value.ring:
                raise RingError("operands live in different rings")
            return value
        return self.ring.one()._scale(Fraction(value))

    def _packed(self) -> tuple[int, list[tuple[int, int]]]:
        """(D, [(packed monomial, D * coefficient)]) with D the lcm of the denominators."""
        if self._ints is None:
            den = lcm(*(c.denominator for c in self.terms.values()))
            self._ints = (den, self.ring._packing.pack(self.terms, den))
        return self._ints

    def __mul__(self, other: Union["GradedClass", Scalar]) -> "GradedClass":
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        ring = self._coerce(other).ring  # RingError across rings
        (den1, left), (den2, right) = self._packed(), other._packed()
        nums = list(_mul_packed([(left, right)], ring._packing).items())
        den = den1 * den2
        g = gcd(den, *(n for _, n in nums))
        if g > 1:
            den, nums = den // g, [(k, n // g) for k, n in nums]
        return GradedClass._trusted(ring, ring._packing.unpack(nums, den), (den, nums))

    # -- structure -------------------------------------------------------

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.ring.gens), Fraction(0))

    def coefficient(self, mono: tuple[int, ...]) -> Fraction:
        return self.terms.get(tuple(mono), Fraction(0))

    def graded_component(self, d: int) -> "GradedClass":
        """The sum of terms of total degree exactly d (zero if none)."""
        deg = self.ring.monomial_degree
        return GradedClass._trusted(self.ring, {m: c for m, c in self.terms.items()
                                                if deg(m) == d})

    def components(self) -> dict[int, "GradedClass"]:
        """Decomposition into homogeneous pieces, keyed by degree."""
        deg, parts = self.ring.monomial_degree, {}
        for m, c in self.terms.items():
            parts.setdefault(deg(m), {})[m] = c
        return {d: GradedClass._trusted(self.ring, parts[d]) for d in sorted(parts)}

    def is_homogeneous(self, d: int) -> bool:
        return all(self.ring.monomial_degree(m) == d for m in self.terms)

    def invert(self) -> "GradedClass":
        """Multiplicative inverse of a unit, by degreewise recursion.

        For self = P/D, P integral with constant term a != 0 (else RingError),
        the integral Q_d = a^(d+1) (1/P)_d obey Q_0 = 1 and Q_d =
        -sum_{i=1..d} a^(i-1) P_i Q_(d-i); the inverse is sum_d D Q_d / a^(d+1).
        """
        ring, packing = self.ring, self.ring._packing
        den, nums = self._packed()
        a = dict(nums).get(0)  # the constant monomial packs to 0
        if a is None:
            raise RingError("not a unit: zero constant term")
        parts: dict[int, list[tuple[int, int]]] = {}  # i -> -a^(i-1) P_i
        for k, n in nums:
            if k:
                i = ring.monomial_degree(packing.decode(k))
                parts.setdefault(i, []).append((k, -n * a ** (i - 1)))
        q: list[dict[int, int]] = [{0: 1}]
        terms = {(0,) * len(ring.gens): Fraction(den, a)}
        for d in range(1, ring.top_degree + 1):
            acc = _mul_packed([(part, q[d - i].items()) for i, part in parts.items() if i <= d],
                              packing)
            q.append(acc)
            terms.update(packing.unpack(((k, den * n) for k, n in acc.items()), a ** (d + 1)))
        return GradedClass._trusted(ring, terms)

    # -- equality / rendering ---------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        return (
            isinstance(other, GradedClass)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ring, tuple(sorted(self.terms.items()))))
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
    """Coefficient of the fundamental top monomial prod g_i^(n_i)."""
    if p.ring != ring:
        raise RingError("class does not live in the given ring")
    return p.coefficient(ring.top_monomial)


def _integrate_product(ring: RingSpec, p: GradedClass, q: GradedClass) -> Fraction:
    """integrate_top(ring, p * q) without forming the product: each term of p
    pairs with the term of q at the complementary monomial top/m."""
    if p.ring != ring or q.ring != ring:
        raise RingError("class does not live in the given ring")
    (den1, left), (den2, right) = p._packed(), q._packed()
    right, top = dict(right), ring._packing.encode(ring.bounds)
    return Fraction(sum(n * right.get(top - k, 0) for k, n in left), den1 * den2)


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
