"""Variety models: products of projective spaces and complete intersections.

A model consists of an ambient truncated ring (the intersection ring of
P^{n_1} x ... x P^{n_k}), the degree-1 divisor classes cutting the variety
out, and the inverse tangent class c(TX)^{-1}, an ambient representative found
by adjunction with no inversion.  Classes on the variety are always ambient
representatives; every downstream operation factors through multiplication
by the fundamental class, so representative ambiguity never leaks.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import mul
from typing import Iterable, Sequence

from .algebra import GradedClass, RingSpec, _integrate_product, make_ring


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


class VarietyModel:
    """A complete intersection inside a product of projective spaces.  Given only
    c(TX), it inverts it; given only c(TX)^{-1}, it derives c(TX) on first read."""

    __slots__ = ("ambient", "factor_dims", "divisors", "dimension", "fundamental",
                 "tangent_inverse", "_tangent")

    def __init__(self, ambient: RingSpec, factor_dims: tuple[int, ...],
                 divisors: tuple[GradedClass, ...], dimension: int,
                 tangent_total: GradedClass | None, fundamental: GradedClass,
                 tangent_inverse: GradedClass | None = None):
        if (tangent_inverse or tangent_total).constant_term() != 1:
            raise ModelError("tangent class must have constant term 1")
        self.ambient = ambient
        self.factor_dims = factor_dims
        self.divisors = divisors
        self.dimension = dimension
        self.fundamental = fundamental
        self._tangent = tangent_total
        self.tangent_inverse = tangent_inverse or tangent_total.invert()

    @property
    def tangent_total(self) -> GradedClass:
        if self._tangent is None:
            self._tangent = self.tangent_inverse.invert()
        return self._tangent

    def __repr__(self) -> str:
        factors = "x".join(f"P{d}" for d in self.factor_dims)
        if self.divisors:
            return f"<CI of {len(self.divisors)} divisors in {factors}>"
        return f"<{factors}>"


def product_projective(dims: Iterable[int],
                       names: Sequence[str] | None = None) -> VarietyModel:
    """The product P^{d_1} x ... x P^{d_k}: at prod h_i^(e_i) its Euler-sequence
    tangent class has the coefficient prod C(d_i + 1, e_i), and its inverse
    prod (-1)^(e_i) C(d_i + e_i, e_i)."""
    dims = tuple(int(d) for d in dims)
    if not dims:
        raise ModelError("need at least one projective factor")
    if any(d < 1 for d in dims):
        raise ModelError("projective factors need dimension >= 1")
    if (size := math.prod(d + 1 for d in dims)) > MAX_RING_SIZE:
        raise ModelError(f"ring of {size} monomials exceeds MAX_RING_SIZE = {MAX_RING_SIZE}")
    ring = make_ring([(n, 1, d) for n, d in zip(_factor_names(len(dims), names), dims)])

    def closed_form(coeff) -> GradedClass:  # coefficient prod coeff(d_i, e_i)
        return GradedClass._trusted(ring, {m: Fraction(math.prod(map(coeff, dims, m)))
                                           for m in product(*(range(d + 1) for d in dims))})

    return VarietyModel(ring, dims, (), sum(dims), closed_form(lambda d, e: math.comb(d + 1, e)),
                        ring.one(), closed_form(lambda d, e: (-1) ** e * math.comb(d + e, e)))


def complete_intersection(ambient: VarietyModel,
                          multidegrees: Iterable[Sequence[int] | GradedClass]
                          ) -> VarietyModel:
    """Cut a complete intersection out of a product of projective spaces.

    Each multidegree is either a degree-1 ambient class or an integer vector
    (d_1, ..., d_k) standing for sum d_i * g_i, with no negative entry or
    coefficient (such a class cuts out no hypersurface).  With
    E = prod (1 + L_j), [X] is the degree-m part of E (m divisors) and
    adjunction gives c(TX)^{-1} = c(T_ambient)^{-1} * E.
    """
    if ambient.divisors:
        raise ModelError("ambient model must be a bare product of projective spaces")
    ring = ambient.ambient
    classes: list[GradedClass] = []
    for md in multidegrees:
        if isinstance(md, GradedClass):
            L = md
        else:
            vec = tuple(int(x) for x in md)
            if len(vec) != len(ring.gens):
                raise ModelError("multidegree vector has wrong length")
            L = ring.zero()
            for coeff, name in zip(vec, ring.names):
                L = L + coeff * ring.gen(name)
        if L.ring != ring:
            raise ModelError("divisor class lives in the wrong ring")
        if L.is_zero() or not L.is_homogeneous(1):
            raise ModelError("divisor classes must be homogeneous of degree 1")
        if any(x < 0 for x in L.terms.values()):
            raise ModelError("divisor classes need non-negative multidegree entries")
        classes.append(L)
    if len(classes) >= ambient.dimension:
        raise ModelError("too many divisors: dimension would drop to zero or below")
    if not classes:
        return ambient
    E = reduce(mul, [ring.one() + L for L in classes])
    return VarietyModel(ring, ambient.factor_dims, tuple(classes),
                        ambient.dimension - len(classes), None,
                        E.graded_component(len(classes)), ambient.tangent_inverse * E)


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
# divisor, e.g. `product [3,3] ci [(3,0),(1,1)]`.

_DESCRIPTION_RE = re.compile(
    r"^\s*product\s*\[\s*([0-9,\s]+?)\s*\]\s*(?:ci\s*\[\s*(.+?)\s*\]\s*)?$"
)
_VECTOR_RE = re.compile(r"\(\s*([-0-9,\s]*?)\s*\)")


def parse_variety(text: str) -> VarietyModel:
    """Parse a model description like 'product [2,1] ci [(3,1)]'."""
    m = _DESCRIPTION_RE.match(text)
    if not m:
        raise ModelError(
            f"cannot parse variety description {text!r}; expected "
            "'product [n1,n2,...]' optionally followed by 'ci [(..),(..)]'"
        )
    dims = [int(x) for x in m.group(1).split(",") if x.strip()]
    ambient = product_projective(dims)
    if m.group(2) is None:
        return ambient
    vectors = _VECTOR_RE.findall(m.group(2))
    if not vectors:
        raise ModelError(f"no multidegree vectors in {text!r}")
    multidegrees = [
        tuple(int(x) for x in vec.split(",") if x.strip()) for vec in vectors
    ]
    return complete_intersection(ambient, multidegrees)
