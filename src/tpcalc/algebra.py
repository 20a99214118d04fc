"""Truncated multigraded polynomial rings over the rationals.

A ring is Q[g_1,...,g_k] modulo the relations g_i^(n_i+1) = 0, with each
generator carrying a positive degree.  This is exactly the intersection ring
of a product of projective spaces, which is all the substrate the rest of the
package needs.  Coefficients are `fractions.Fraction`; nothing here ever
touches floating point.
"""

from __future__ import annotations

import re
from fractions import Fraction
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
    """

    __slots__ = ("gens", "names", "degrees", "bounds", "top_degree", "_index")

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

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise RingError(f"no generator named {name!r}") from None

    def monomial_degree(self, mono: tuple[int, ...]) -> int:
        return sum(e * d for e, d in zip(mono, self.degrees))

    def in_normal_form(self, mono: tuple[int, ...]) -> bool:
        return len(mono) == len(self.gens) and all(
            0 <= e <= b for e, b in zip(mono, self.bounds)
        )

    @property
    def top_monomial(self) -> tuple[int, ...]:
        return self.bounds

    def zero(self) -> "GradedClass":
        return GradedClass(self, {})

    def one(self) -> "GradedClass":
        return GradedClass(self, {(0,) * len(self.gens): Fraction(1)})

    def gen(self, name: str) -> "GradedClass":
        mono = tuple(1 if i == self.index(name) else 0 for i in range(len(self.gens)))
        return GradedClass(self, {mono: Fraction(1)})

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


class GradedClass:
    """An element of a RingSpec: a finite sum of monomials with Fraction coefficients.

    Immutable after construction.  Monomials that violate a nilpotency bound
    are dropped (that is the ring's truncation), zero coefficients are never
    stored.
    """

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: RingSpec, terms: Mapping[tuple[int, ...], Scalar]):
        clean: dict[tuple[int, ...], Fraction] = {}
        ngens = len(ring.gens)
        for mono, coeff in terms.items():
            mono = tuple(mono)
            if len(mono) != ngens:
                raise RingError(f"monomial {mono} has wrong arity for {ring!r}")
            if any(e < 0 for e in mono):
                raise RingError(f"negative exponent in {mono}")
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            if any(e > b for e, b in zip(mono, ring.bounds)):
                continue  # truncated away
            clean[mono] = clean.get(mono, Fraction(0)) + coeff
            if clean[mono] == 0:
                del clean[mono]
        self.ring = ring
        self.terms = clean
        self._hash = None

    # -- ring arithmetic -------------------------------------------------

    def _check_ring(self, other: "GradedClass") -> None:
        if self.ring != other.ring:
            raise RingError("operands live in different rings")

    def __add__(self, other: Union["GradedClass", Scalar]) -> "GradedClass":
        other = self._coerce(other)
        self._check_ring(other)
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            terms[mono] = terms.get(mono, Fraction(0)) + c
        return GradedClass(self.ring, terms)

    def __radd__(self, other: Scalar) -> "GradedClass":
        return self.__add__(other)

    def __neg__(self) -> "GradedClass":
        return GradedClass(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: Union["GradedClass", Scalar]) -> "GradedClass":
        return self.__add__(-self._coerce(other))

    def __rsub__(self, other: Scalar) -> "GradedClass":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other: Union["GradedClass", Scalar]) -> "GradedClass":
        if isinstance(other, (int, Fraction)):
            return GradedClass(self.ring, {m: c * other for m, c in self.terms.items()})
        self._check_ring(other)
        bounds = self.ring.bounds
        acc: dict[tuple[int, ...], Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                prod = tuple(a + b for a, b in zip(m1, m2))
                if any(e > b for e, b in zip(prod, bounds)):
                    continue
                acc[prod] = acc.get(prod, Fraction(0)) + c1 * c2
        return GradedClass(self.ring, acc)

    def __rmul__(self, other: Scalar) -> "GradedClass":
        return self.__mul__(other)

    def __truediv__(self, other: Scalar) -> "GradedClass":
        return self.__mul__(Fraction(1, 1) / Fraction(other))

    def __pow__(self, n: int) -> "GradedClass":
        if n < 0:
            return self.invert() ** (-n)
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def _coerce(self, value: Union["GradedClass", Scalar]) -> "GradedClass":
        if isinstance(value, GradedClass):
            return value
        return GradedClass(self.ring, {(0,) * len(self.ring.gens): Fraction(value)})

    # -- structure -------------------------------------------------------

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.ring.gens), Fraction(0))

    def coefficient(self, mono: tuple[int, ...]) -> Fraction:
        return self.terms.get(tuple(mono), Fraction(0))

    def graded_component(self, d: int) -> "GradedClass":
        """The sum of terms of total degree exactly d (zero if none)."""
        deg = self.ring.monomial_degree
        return GradedClass(
            self.ring, {m: c for m, c in self.terms.items() if deg(m) == d}
        )

    def components(self) -> dict[int, "GradedClass"]:
        """Decomposition into homogeneous pieces, keyed by degree."""
        degrees = sorted({self.ring.monomial_degree(m) for m in self.terms})
        return {d: self.graded_component(d) for d in degrees}

    def is_homogeneous(self, d: int) -> bool:
        return all(self.ring.monomial_degree(m) == d for m in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def invert(self) -> "GradedClass":
        """Multiplicative inverse of a unit, by degreewise recursion.

        Requires a nonzero constant term; raises RingError otherwise.
        """
        c0 = self.constant_term()
        if c0 == 0:
            raise RingError("not a unit: zero constant term")
        top = self.ring.top_degree
        p = {d: self.graded_component(d) for d in range(top + 1)}
        q = [self.ring.one() * (Fraction(1) / c0)]
        for d in range(1, top + 1):
            s = self.ring.zero()
            for i in range(1, d + 1):
                if p[i].is_zero():
                    continue
                s = s + p[i] * q[d - i]
            q.append(s * (Fraction(-1) / c0))
        total = self.ring.zero()
        for piece in q:
            total = total + piece
        return total

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

    def __repr__(self) -> str:
        return f"<{render_class(self)}>"

    def __str__(self) -> str:
        return render_class(self)


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
