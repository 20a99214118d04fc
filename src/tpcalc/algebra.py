"""Truncated multigraded polynomial rings over the rationals.

A ring is Q[g_1,...,g_k] modulo the relations g_i^(n_i+1) = 0, with each
generator carrying a positive degree.  This is exactly the intersection ring
of a product of projective spaces, which is all the substrate the rest of the
package needs.  Coefficients are exact rationals; a float raises TypeError.
`_SparseSum` owns how a polynomial is stored, for `GradedClass` and
`symbolic.SymbolicExpr` alike: integer numerators on monomial keys over one
positive denominator, in lowest terms, with the `fractions.Fraction` terms
built on first read.  Sums, negation, scalar multiples, ``==`` and ``hash``
run on those numerators in the base class, through one sum, `_sum`.  Both
classes multiply in one product loop, `_mul_packed`, on monomials in one
packed-integer layout, `Packing`, which encodes and decodes its own
monomials: a ring bounds its fields and its degree (so the loop truncates)
and reads exponent tuples, the symbolic kernel sizes them per call (so
nothing overflows) and reads symbol tuples.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import mul
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

    A ring's packing (`bounds` given) tops the key with one more such field,
    the total degree sum e_i d_i for generator degrees d_i, bounded by the top
    degree, so the same test truncates by degree: `capped(cap)` is the layout
    with that field's bias set for a lower cap, and `degree` reads it.  Its
    carry needs no room: a product past the top degree sets an exponent guard.

    A packing carries its codec: `encode` maps a monomial to its key and
    `decode` a key back, the constant monomial to and from 0.  A bounded
    packing reads a ring's exponent tuples by fixed shifts, memoised, and
    ignores the degree field; an unbounded one reads tuples of (symbol,
    exponent) pairs, symbol i of `symbols` in field i, from the highest field
    down, one step per symbol a key holds, and encodes a monomial on another
    symbol or with an exponent past its field as None."""

    __slots__ = ("stride", "bias", "guard", "encode", "decode", "cap", "_shift")

    def __init__(self, width: int, bounds: tuple[int, ...] | None = None, symbols: Sequence = (),
                 degrees: tuple[int, ...] = ()):
        self.stride = stride = width if bounds is None else width + 1
        fields = []  # (shift, width, bound) of each bounded field
        if bounds is not None:
            shifts, mask, memo = range(0, len(bounds) * stride, stride), (1 << width) - 1, {}
            self._shift = top_shift = len(bounds) * stride  # the degree field
            self.cap = top = sum(map(mul, degrees, bounds))
            fields = [(s, width, b) for s, b in zip(shifts, bounds)]
            fields.append((top_shift, top.bit_length(), top))
            units = [1 << s | d << top_shift for s, d in zip(shifts, degrees)]

            def decode(key: int) -> tuple[int, ...]:
                mono = memo.get(key)
                if mono is None:
                    mono = memo[key] = tuple(key >> s & mask for s in shifts)
                return mono

            self.encode = lambda mono: sum(map(mul, mono, units))
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

            def encode(mono) -> int | None:
                key = 0
                for sym, e in mono:
                    s = shift.get(sym)
                    if s is None or e >> width:  # not a monomial of this packing
                        return None
                    key += e << s
                return key
            self.encode = encode
        self.decode = decode
        self.bias = sum(((1 << w) - 1 - b) << s for s, w, b in fields)
        self.guard = sum(1 << s + w for s, w, _ in fields)

    def degree(self, key: int) -> int:
        """The total degree of a bounded packing's key."""
        return key >> self._shift

    def capped(self, cap: int) -> "Packing":
        """This ring packing, its products cut above degree cap (0 to the top)."""
        view = object.__new__(Packing)
        for name in Packing.__slots__:
            setattr(view, name, getattr(self, name))
        view.bias, view.cap = self.bias + (self.cap - cap << self._shift), cap
        return view

    def pack(self, nums: Mapping, scale: int = 1) -> dict[int, int]:
        """{key: scale * n} over integer numerators {monomial: n}."""
        encode = self.encode
        return {encode(m): scale * n for m, n in nums.items()}


class RingSpec:
    """An ordered list of (name, degree, nilpotency bound) generators.

    A monomial is a tuple of exponents in generator order; it is in normal
    form iff every exponent e_i <= n_i.  The top class is the monomial
    (n_1, ..., n_k) of degree ``top_degree``, with packed key `_top_key`.
    `_packing` gives generator i field i, bounded by n_i, and the degree a last
    field, bounded by the top; it reads keys back as exponent tuples.
    """

    __slots__ = ("gens", "names", "degrees", "bounds", "top_degree", "_index", "_packing",
                 "_top_key")

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
        self._packing = Packing(max(self.bounds, default=0).bit_length(), self.bounds,
                                degrees=self.degrees)
        self._top_key = self._packing.encode(self.bounds)

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
        i = self.index(name)
        key = self._packing.encode([int(i == j) for j in range(len(self.gens))])
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


def _scalar(value) -> Scalar:
    """An int or Fraction as it is; a float, or anything else, raises TypeError."""
    if isinstance(value, (int, Fraction)):
        return value
    raise TypeError(f"coefficients are int or Fraction, not {type(value).__name__}")


def _numerators(terms: Mapping) -> tuple[int, dict]:
    """(D, {key: n}) with n / D = x over {key: x}, each x an int or Fraction,
    zeros dropped: D, the lcm of the denominators, leaves them in lowest terms."""
    den = lcm(*(x.denominator for x in terms.values()))
    return den, {k: x.numerator * (den // x.denominator) for k, x in terms.items() if x}


def _sum(pairs: list) -> tuple[int, dict]:
    """sum x * n / D over a list of (scalar x, (D, {key: n})) pairs, keys of any kind:
    (the lcm of the x.denominator * D, {key: nonzero numerator}), not in lowest terms."""
    den = lcm(*(x.denominator * d for x, (d, _) in pairs))
    acc: dict = {}
    get = acc.get
    for x, (d, nums) in pairs:
        scale = x.numerator * (den // (x.denominator * d))
        for k, n in nums.items():
            acc[k] = get(k, 0) + scale * n
    return den, {k: n for k, n in acc.items() if n}


class _SparseSum:
    """A finite sum of monomials with rational coefficients, immutable, in `ring`
    (None for free symbols), stored one way: ``_ints`` = (D > 0, {key: nonzero
    integer numerator}) in lowest terms, so ``==`` and ``hash`` compare it, and
    sums, negation and scalar multiples (`_times`) run on it, through `_sum`.
    `terms`, {monomial: Fraction}, is built from it on first read.  A subclass
    fixes the key of a monomial (`_monomials` reads keys back, `_ONE` is the
    constant's) and gives `__mul__` and `invert`, which a negative power calls.
    """

    __slots__ = ("ring", "_ints", "_terms")

    @classmethod
    def _from_ints(cls, ring, den: int, nums: dict):
        """sum n / den over nonzero {key: n}, brought to lowest terms with a
        positive denominator, terms unbuilt."""
        g = gcd(den, *nums.values())
        g = g if den > 0 else -g
        self = object.__new__(cls)
        self.ring, self._terms = ring, None
        self._ints = (den // g, {k: n // g for k, n in nums.items()} if g != 1 else nums)
        return self

    @property
    def terms(self) -> dict:
        if self._terms is None:
            den, nums = self._ints
            self._terms = {m: Fraction(n, den) for m, n in zip(self._monomials(), nums.values())}
        return self._terms

    def _coerce(self, value):
        """A sum of this kind and ring as it is (else RingError), a scalar as a constant."""
        if isinstance(value, type(self)):
            if value.ring != self.ring:
                raise RingError("operands live in different rings")
            return value
        x = _scalar(value)
        return self._from_ints(self.ring, x.denominator, {self._ONE: x.numerator} if x else {})

    def _times(self, x: Scalar):
        return self._from_ints(self.ring, *_sum([(x, self._ints)]))

    def __add__(self, other):
        return self._from_ints(self.ring, *_sum([(1, self._ints), (1, self._coerce(other)._ints)]))

    __radd__ = __add__

    def __sub__(self, other):
        return self._from_ints(self.ring, *_sum([(1, self._ints), (-1, self._coerce(other)._ints)]))

    def __rsub__(self, other: Scalar):
        return self._coerce(other) - self

    def __neg__(self):
        return self._times(-1)

    def __rmul__(self, other: Scalar):
        return self * other

    def __truediv__(self, other: Scalar):
        return self * Fraction(1, _scalar(other))

    def __pow__(self, n: int):
        if n < 0:
            return self.invert() ** -n
        if n < 2:
            return self if n else self._coerce(1)
        half = self ** (n >> 1)
        return half * half * self if n & 1 else half * half

    def is_zero(self) -> bool:
        return not self._ints[1]

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        return (isinstance(other, type(self)) and self.ring == other.ring
                and self._ints == other._ints)

    def __hash__(self) -> int:
        den, nums = self._ints
        if nums.keys() <= {self._ONE}:  # a constant hashes as the number it equals
            return hash(Fraction(nums.get(self._ONE, 0), den))
        return hash((den, frozenset(nums.items())))

    def __repr__(self) -> str:
        return f"<{self}>"


class GradedClass(_SparseSum):
    """An element of a RingSpec: a finite sum of monomials with rational coefficients.

    Immutable after construction.  Monomials that violate a nilpotency bound
    are dropped (that is the ring's truncation), zero coefficients are never
    stored.  A key is the ring's packed monomial (see Packing), so products,
    inverses, components and integrals run on ``_ints`` too.
    """

    __slots__ = ()
    _ONE = 0  # the constant monomial packs to 0

    def __init__(self, ring: RingSpec, terms: Mapping[tuple[int, ...], Scalar]):
        clean: dict[int, Scalar] = {}
        for mono, coeff in terms.items():
            mono = tuple(mono)
            if len(mono) != len(ring.gens):
                raise RingError(f"monomial {mono} has wrong arity for {ring!r}")
            if any(e < 0 for e in mono):
                raise RingError(f"negative exponent in {mono}")
            coeff = _scalar(coeff)
            if all(e <= b for e, b in zip(mono, ring.bounds)):  # else truncated away
                key = ring._packing.encode(mono)
                clean[key] = clean[key] + coeff if key in clean else coeff
        self.ring, self._ints, self._terms = ring, _numerators(clean), None

    def _monomials(self) -> Iterator[tuple[int, ...]]:
        return map(self.ring._packing.decode, self._ints[1])

    def __mul__(self, other: Union["GradedClass", Scalar]) -> "GradedClass":
        if isinstance(other, (int, Fraction)):
            return self._times(other)
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
        degree = ring._packing.degree
        for k, n in nums.items():
            parts.setdefault(degree(k), {})[k] = n
        return {d: GradedClass._from_ints(ring, den, parts[d]) for d in sorted(parts)}

    def is_homogeneous(self, d: int) -> bool:
        degree = self.ring._packing.degree
        return all(degree(k) == d for k in self._ints[1])

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
                i = packing.degree(k)
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
    (den1, left), (den2, right) = p._ints, q._ints
    return Fraction(_pair(ring, left, right), den1 * den2)


def _pair(ring: RingSpec, left: Mapping[int, int], right: Mapping[int, int]) -> int:
    """The top coefficient of left * right, numerator maps of ring, by pairing."""
    top, get = ring._top_key, right.get
    return sum(n * get(top - k, 0) for k, n in left.items())


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
