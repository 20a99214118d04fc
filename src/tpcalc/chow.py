"""Variety models: products of projective spaces and complete intersections.

A model is its ambient truncated ring (the intersection ring of
P^{n_1} x ... x P^{n_k}) and the degree-1 divisor classes L_j cutting the
variety out.  Its tangent bundle is a signed sum of line bundles, O(h_i)^(n_i+1)
from the Euler sequence of each factor minus O(L_j) by adjunction, so every
tangent class is `chern_of_roots` over those roots.  Classes on the variety
are always ambient representatives; every downstream operation factors
through multiplication by the fundamental class, so representative
ambiguity never leaks.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Sequence
from fractions import Fraction
from operator import index

from .algebra import GradedClass, RingSpec, _integrate_product, _mul_packed, make_ring
from .grammar import MAX_DIGITS


class ModelError(ValueError):
    """Raised for ill-formed variety or map models."""


_DEFAULT_NAME_SETS = {1: ("h",), 2: ("h", "H")}
MAX_RING_SIZE = 4096  # largest prod (n_i + 1) product_projective builds; may be raised


def _factor_names(count: int, names: Sequence[str] | None) -> tuple[str, ...]:
    if names is not None:
        names = tuple(names)
        if len(names) != count:
            raise ModelError("one generator name per projective factor")
        return names
    if count in _DEFAULT_NAME_SETS:
        return _DEFAULT_NAME_SETS[count]
    return tuple(f"h{i + 1}" for i in range(count))


def _effective_degree_one(ring: RingSpec, L: GradedClass, kind: str) -> GradedClass:
    """L, admitted as an effective degree-1 class of ring: a nonzero class of ring
    whose every term is a generator with a coefficient >= 0."""
    if not isinstance(L, GradedClass) or L.ring != ring:
        raise ModelError(f"a {kind} class lives in the wrong ring")
    if L.is_zero() or not L.is_homogeneous(1):
        raise ModelError(f"{kind} classes must be homogeneous of degree 1")
    if any(n < 0 for n in L._ints[1].values()):  # a numerator has its term's sign
        raise ModelError(f"{kind} classes need non-negative multidegree entries")
    return L


def chern_of_roots(ring: RingSpec, roots: Iterable[tuple[GradedClass, int]],
                   cap: int | None = None) -> GradedClass:
    """prod (1 + D)^a over (D, a) pairs, D a degree-1 class and a an integer of
    either sign; pairs with equal D add their exponents first.  Each factor is
    the binomial series sum_e C(a, e) D^e, C(a, e+1) = C(a, e) (a - e) / (e + 1),
    stopped where C(a, e) or D^e is 0; D^e has degree e, so its terms are new.
    A `cap` (0 to the top degree) builds only the components up to it, exactly,
    since cutting at a degree commutes with products: all run capped there.
    It runs on packed integer numerators: for D = N / q, q^E times the series
    is sum_e C(a, e) q^(E - e) N^e, with E = min(a, cap) if a > 0, else the cap
    (the last e for which D^e can be nonzero); the cap defaults to the top."""
    merged: dict[GradedClass, int] = {}
    for D, a in roots:
        merged[D] = merged.get(D, 0) + a
    packing, den, total = ring._packing.capped(ring.top_degree if cap is None else cap), 1, {0: 1}
    for D, a in ((D, a) for D, a in merged.items() if a):
        (q, N), E = D._ints, packing.cap if a < 0 else min(a, packing.cap)
        series, power, coeff, e = {}, {0: 1}, 1, 0  # power = N^e, coeff = C(a, e)
        while coeff and power:
            scale = coeff * q ** (E - e)
            series.update((k, scale * n) for k, n in power.items())
            coeff, e = coeff * (a - e) // (e + 1), e + 1
            if coeff:
                power = _mul_packed([(power.items(), N.items())], packing)
        total, den = _mul_packed([(total.items(), series.items())], packing), den * q ** E
    return GradedClass._from_ints(ring, den, total)


class VarietyModel:
    """The complete intersection of the divisors L_j (effective degree-1 classes,
    fewer than the ambient dimension) in the product of projective spaces with
    intersection ring `ambient`, of at most MAX_RING_SIZE monomials.  [X] = prod L_j
    is one chain of packed products, reduced once.  Its tangent bundle has the
    roots (h_i, n_i + 1), h_i read off the ring's generator keys, and (L_j, -1);
    c(TX) is `chern_of_roots` over them, built on each read."""

    __slots__ = ("ambient", "divisors", "factor_dims", "dimension", "fundamental",
                 "tangent_roots")

    def __init__(self, ambient: RingSpec, divisors: Sequence[GradedClass] = ()):
        if any(d != 1 for d in ambient.degrees):
            raise ModelError("a variety model needs a ring of degree-1 generators")
        if (size := math.prod(n + 1 for n in ambient.bounds)) > MAX_RING_SIZE:
            size = size if size < 10 ** MAX_DIGITS else f"more than 10^{MAX_DIGITS}"
            raise ModelError(f"ring of {size} monomials exceeds MAX_RING_SIZE = {MAX_RING_SIZE}")
        self.ambient = ambient
        self.divisors = tuple(_effective_degree_one(ambient, L, "divisor") for L in divisors)
        if len(self.divisors) >= ambient.top_degree:
            raise ModelError("too many divisors: dimension would drop to zero or below")
        self.factor_dims = ambient.bounds
        self.dimension = ambient.top_degree - len(self.divisors)
        den, nums = 1, {0: 1}
        for q, N in (L._ints for L in self.divisors):
            den, nums = den * q, _mul_packed([(nums.items(), N.items())], ambient._packing)
        self.fundamental = GradedClass._from_ints(ambient, den, nums)
        gens = [(GradedClass._from_ints(ambient, 1, {k: 1}), n + 1)
                for k, n in zip(ambient._gen_keys, ambient.bounds)]
        self.tangent_roots = tuple(gens + [(L, -1) for L in self.divisors])

    @property
    def tangent_total(self) -> GradedClass:
        return chern_of_roots(self.ambient, self.tangent_roots)

    def __repr__(self) -> str:
        factors = "x".join(f"P{d}" for d in self.factor_dims)
        if self.divisors:
            return f"<CI of {len(self.divisors)} divisors in {factors}>"
        return f"<{factors}>"


def product_projective(dims: Iterable[int],
                       names: Sequence[str] | None = None) -> VarietyModel:
    """The product P^{d_1} x ... x P^{d_k}; a d_i that is not an integer raises TypeError."""
    dims = tuple(map(index, dims))
    if not dims:
        raise ModelError("need at least one projective factor")
    if any(d < 1 for d in dims):
        raise ModelError("projective factors need dimension >= 1")
    names = _factor_names(len(dims), names)
    return VarietyModel(make_ring([(n, 1, d) for n, d in zip(names, dims)]))


def complete_intersection(ambient: VarietyModel,
                          multidegrees: Iterable[Sequence[int] | GradedClass]
                          ) -> VarietyModel:
    """Cut a complete intersection out of a product of projective spaces.

    Each multidegree is either a degree-1 ambient class or an integer vector
    (d_1, ..., d_k) standing for sum d_i * g_i, built on the ring's generator
    keys over denominator 1 (an entry that is not an integer raises TypeError);
    `VarietyModel` admits them.
    """
    if ambient.divisors:
        raise ModelError("ambient model must be a bare product of projective spaces")
    ring, classes = ambient.ambient, []
    for md in multidegrees:
        if not isinstance(md, GradedClass):
            vec = tuple(map(index, md))
            if len(vec) != len(ring.gens):
                raise ModelError("multidegree vector has wrong length")
            md = GradedClass._from_ints(ring, 1, {k: d for k, d in zip(ring._gen_keys, vec) if d})
        classes.append(md)
    return VarietyModel(ring, classes) if classes else ambient


def integrate_on(variety: VarietyModel, p: GradedClass) -> Fraction:
    """Integral over the variety of an ambient representative.

    Factors through the ambient integral against the fundamental class:
    int_X alpha = int_ambient alpha * [X].
    """
    return _integrate_product(variety.ambient, p, variety.fundamental)


# -- textual model descriptions ----------------------------------------------
#
# Grammar used by the CLI: `product [2,3]` for a bare product, optionally
# followed by `ci [(4,1),(1,1)]` with one integer multidegree vector per
# divisor, e.g. `product [3,3] ci [(3,0),(1,1)]`.  Lists are comma-separated
# integers, whitespace is allowed between tokens, and a one-entry vector may
# be written `(5,)`, as Python writes a 1-tuple; nothing else is read.

_NATURALS = r"[0-9]+(?:\s*,\s*[0-9]+)*"
_INTEGERS = r"-?[0-9]+(?:\s*,\s*-?[0-9]+)*"
_VECTOR = rf"\(\s*(?:{_INTEGERS}|-?[0-9]+\s*,)\s*\)"
_DESCRIPTION_RE = re.compile(rf"\s*product\s*\[\s*({_NATURALS})\s*\]\s*"
                             rf"(?:ci\s*\[\s*({_VECTOR}(?:\s*,\s*{_VECTOR})*)\s*\]\s*)?")
_VECTOR_RE = re.compile(r"\(([^)]*)\)")


def _integers(text: str, kind: str, description: str) -> list[int]:
    """The integers of a list the grammar has matched, (5,) included; one of more
    than MAX_DIGITS digits, which Python would not read, names the description."""
    tokens = text.rstrip().rstrip(",").split(",")
    if any(len(x.strip().lstrip("-")) > MAX_DIGITS for x in tokens):
        raise ModelError(f"cannot parse {kind} description {description!r}: "
                         f"an integer has more than {MAX_DIGITS} digits")
    return [int(x) for x in tokens]


def parse_variety(text: str) -> VarietyModel:
    """Parse a model description like 'product [2,1] ci [(3,1)]'."""
    m = _DESCRIPTION_RE.fullmatch(text)
    if not m:
        raise ModelError(f"cannot parse variety description {text!r}; expected "
                         "'product [n1,n2,...]' optionally followed by 'ci [(..),(..)]'")
    ambient = product_projective(_integers(m.group(1), "variety", text))
    if m.group(2) is None:
        return ambient
    vectors = _VECTOR_RE.findall(m.group(2))
    return complete_intersection(ambient, [_integers(vec, "variety", text) for vec in vectors])
