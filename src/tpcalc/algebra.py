"""Truncated multigraded polynomial rings over the rationals.

A ring is Q[g_1,...,g_k] modulo the relations g_i^(n_i+1) = 0, with each
generator carrying a positive degree.  This is exactly the intersection ring
of a product of projective spaces, which is all the substrate the rest of the
package needs.  Coefficients are `fractions.Fraction`; nothing here ever
touches floating point.  `GradedClass` and `symbolic.SymbolicExpr` share
the sum arithmetic of `_SparseSum` and each multiply on packed monomials.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Union

from .grammar import parse_sum, render_sum

Scalar = Union[int, Fraction]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*$")


class RingError(ValueError):
    """Raised for malformed ring specs or cross-ring operations."""


class RingSpec:
    """An ordered list of (name, degree, nilpotency bound) generators.

    A monomial is a tuple of exponents in generator order; it is in normal
    form iff every exponent e_i <= n_i.  The top class is the monomial
    (n_1, ..., n_k) of degree ``top_degree``.

    Packed form: exponent i sits in a bit field of k value bits (2^k > every
    n_i) and a guard bit, so a product's packed monomial is one integer add.
    With 2^k - 1 - n_i added to field i, a guard bit is set exactly when an
    exponent sum passes n_i: truncation is one ``& guard`` test.
    """

    __slots__ = ("gens", "names", "degrees", "bounds", "top_degree", "_index",
                 "_shifts", "_mask", "_bias", "_guard", "_decode")

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
        k = max(self.bounds, default=0).bit_length()
        self._shifts = tuple(range(0, (k + 1) * len(gens), k + 1))
        self._mask = (1 << k) - 1
        self._bias = sum((self._mask - b) << s for s, b in zip(self._shifts, self.bounds))
        self._guard = sum(1 << (s + k) for s in self._shifts)
        self._decode: dict[int, tuple[int, ...]] = {}  # packed -> exponents

    def _pack(self, mono: tuple[int, ...]) -> int:
        key = sum(e << s for e, s in zip(mono, self._shifts))
        self._decode.setdefault(key, mono)
        return key

    def _unpack(self, key: int) -> tuple[int, ...]:
        mono = self._decode.get(key)
        if mono is None:
            mono = self._decode[key] = tuple(key >> s & self._mask for s in self._shifts)
        return mono

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
    stored.  Products and inverses run on packed monomials (see RingSpec) and
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
            pack = self.ring._pack
            self._ints = (den, [(pack(m), c.numerator * (den // c.denominator))
                                for m, c in self.terms.items()])
        return self._ints

    def __mul__(self, other: Union["GradedClass", Scalar]) -> "GradedClass":
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        ring = self._coerce(other).ring  # RingError across rings
        (den1, left), (den2, right) = self._packed(), other._packed()
        nums = list(_mul_packed([(left, right)], ring._bias, ring._guard).items())
        den = den1 * den2
        g = gcd(den, *(n for _, n in nums))
        if g > 1:
            den, nums = den // g, [(k, n // g) for k, n in nums]
        unpack = ring._unpack
        return GradedClass._trusted(ring, {
            unpack(k): Fraction(n, den) if den > 1 else Fraction(n) for k, n in nums
        }, (den, nums))

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
        degrees = sorted({self.ring.monomial_degree(m) for m in self.terms})
        return {d: self.graded_component(d) for d in degrees}

    def is_homogeneous(self, d: int) -> bool:
        return all(self.ring.monomial_degree(m) == d for m in self.terms)

    def invert(self) -> "GradedClass":
        """Multiplicative inverse of a unit, by degreewise recursion.

        For self = P/D, P integral with constant term a != 0 (else RingError),
        the integral Q_d = a^(d+1) (1/P)_d obey Q_0 = 1 and Q_d =
        -sum_{i=1..d} a^(i-1) P_i Q_(d-i); the inverse is sum_d D Q_d / a^(d+1).
        """
        ring = self.ring
        den, nums = self._packed()
        a = dict(nums).get(0)  # the constant monomial packs to 0
        if a is None:
            raise RingError("not a unit: zero constant term")
        parts: dict[int, list[tuple[int, int]]] = {}  # i -> -a^(i-1) P_i
        for k, n in nums:
            if k:
                i = ring.monomial_degree(ring._unpack(k))
                parts.setdefault(i, []).append((k, -n * a ** (i - 1)))
        q: list[dict[int, int]] = [{0: 1}]
        terms = {(0,) * len(ring.gens): Fraction(den, a)}
        for d in range(1, ring.top_degree + 1):
            acc = _mul_packed([(part, q[d - i].items()) for i, part in parts.items() if i <= d],
                              ring._bias, ring._guard)
            q.append(acc)
            terms.update((ring._unpack(k), Fraction(den * n, a ** (d + 1)))
                         for k, n in acc.items())
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


def _mul_packed(products, bias: int = 0, guard: int = 0) -> dict[int, int]:
    """The sum of left * right over (left, right) pairs of (packed monomial,
    integer) term lists, with no zeros; given a ring's bias and guard (see
    RingSpec) it truncates.  A `right` must be re-iterable."""
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
    right, top = dict(right), ring._pack(ring.bounds)
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
