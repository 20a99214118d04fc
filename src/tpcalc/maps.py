"""Proper-map models: pullback, pushforward, quotient Chern classes,
Landweber-Novikov classes.

Every shipped model is a map f: X -> Y onto a product of projective spaces
Y = P^{t_1} x ... x P^{t_k}, given by its source X, its target Y and the
pullbacks f^*(h_i) of the target's hyperplane classes (degree-1 classes on
X).  They fix the rest: f^* is the ring map sending h_i to f^*(h_i), and
since the monomials m of Y and their duals m^v = top/m are dual bases,
f_*(alpha) = sum_m (int_X alpha * f^*(m^v)) m by the projection formula.
c(f) = c(f^*TY - TX) is `chern_of_roots` over the pulled-back roots of TY and
the negated roots of TX, and each c^I is built once.
The shipped kinds are

* projections of a complete intersection in a product of projective spaces
  onto a subset of the factors (f^*(h_i) the factor's own generator);
* generic linear projections X -> P^t of a variety embedded by a degree-1
  class e (f^*(h) = e);
* parametrized rational plane curves of degree d (a linear projection of P^1
  with e = d*p onto P^2).

The test suite checks the projection formula on random classes.
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

from .algebra import GradedClass, _integrate_product
from .chow import (_NATURALS, ModelError, VarietyModel, _effective_degree_one, _integers,
                   chern_of_roots, parse_variety, product_projective)
from .symbolic import Index, canon_index, index_c_degree, index_str


def _memo(table: dict, key, step) -> GradedClass:
    """table[key] = table[lower] * factor for (lower, factor) = step(key), filled up
    from the nearest cached entry in a loop, so no recursion depth grows with key."""
    chain, k = [], key
    while k not in table:
        lower, factor = step(k)
        chain.append((k, lower, factor))
        k = lower
    for k, lower, factor in reversed(chain):
        table[k] = table[lower] * factor
    return table[key]


class LNIndex(tuple):
    """A Landweber-Novikov index: exponents (i_1, ..., i_k), trailing zeros
    trimmed; the empty index prints as "0" and stands for the pushforward
    of 1."""

    def __new__(cls, exponents: Iterable[int] = ()):
        return super().__new__(cls, canon_index(exponents))

    @property
    def c_degree(self) -> int:
        return index_c_degree(self)

    def degree(self, kappa: int) -> int:
        return kappa + self.c_degree

    def __str__(self) -> str:
        return index_str(self)

    def __repr__(self) -> str:
        return f"LNIndex({tuple(self)})"


class MapModel:
    """A proper map f: X -> Y: quotient Chern class, c^I and LN classes, cached.

    Subclasses give ``pullback`` and ``pushforward``; the target is a
    VarietyModel without divisors, whose ambient ring holds the target classes.
    """

    kind = "abstract"

    def __init__(self, source: VarietyModel, target: VarietyModel):
        if target.divisors:  # kappa and the dual-basis pushforward read a bare product
            raise ModelError("a map model needs a bare product of projective spaces as target")
        self.source = source
        self.target = target
        self.target_ring = target.ambient
        self.kappa = self.target_ring.top_degree - source.dimension
        self._chern_total: GradedClass | None = None
        self._chern: dict[int, GradedClass] | None = None
        self._c_monomials = {(): source.ambient.one()}  # I -> c^I
        self._ln_cache: dict[tuple[int, ...], GradedClass] = {}

    def pullback(self, beta: GradedClass) -> GradedClass:
        raise NotImplementedError

    def pushforward(self, alpha: GradedClass) -> GradedClass:
        raise NotImplementedError

    def quotient_chern(self) -> GradedClass:
        """Total class of f^*TY - TX in the source's ambient ring, from their roots."""
        if self._chern_total is None:
            roots = [(self.pullback(D), a) for D, a in self.target.tangent_roots]
            self._chern_total = chern_of_roots(
                self.source.ambient, roots + [(D, -a) for D, a in self.source.tangent_roots])
        return self._chern_total

    def chern(self, j: int) -> GradedClass:
        """c_j(f); c_0 = 1, c_{<0} = 0."""
        if self._chern is None:
            self._chern = self.quotient_chern().components()
        return self._chern.get(j, self.source.ambient.zero())

    def chern_monomial(self, I: Index) -> GradedClass:
        """c^I for a canonical index I, cached, as c^(I - e_j) * c_j with j = len(I)."""
        return _memo(self._c_monomials, I,
                     lambda I: (canon_index(I[:-1] + (I[-1] - 1,)), self.chern(len(I))))

    def landweber_novikov(self, I: Iterable[int]) -> GradedClass:
        """s_I(f) = f_*(c^I) in the target ring; zero above its top degree, where
        c^I is not built."""
        I = canon_index(I)
        if I not in self._ln_cache:
            above = self.kappa + index_c_degree(I) > self.target_ring.top_degree
            self._ln_cache[I] = (self.target_ring.zero() if above
                                 else self.pushforward(self.chern_monomial(I)))
        return self._ln_cache[I]

    def __repr__(self) -> str:
        return f"<{self.kind} map, kappa={self.kappa}>"


class ProductTargetMap(MapModel):
    """A map to a product of projective spaces, given by the pullbacks of the
    target's hyperplane classes (effective degree-1 source classes, one per
    target generator).

    f^*(m) and [X] f^*(m) are built on demand, one product per target
    monomial m, from the entry for m with one exponent lowered.
    """

    def __init__(self, source: VarietyModel, target: VarietyModel,
                 hyperplanes: Sequence[GradedClass], kind: str):
        super().__init__(source, target)
        self.kind = kind
        self.hyperplanes = hyperplanes = tuple(
            _effective_degree_one(source.ambient, H, "hyperplane") for H in hyperplanes)
        if len(hyperplanes) != len(target.ambient.gens):
            raise ModelError("one hyperplane class per target generator")
        amb, n = source.ambient, len(hyperplanes)
        units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        self._pulled = {(0,) * n: amb.one(), **dict(zip(units, hyperplanes))}
        fundamental = source.fundamental
        self._cycles = (self._pulled if fundamental == amb.one()
                        else {(0,) * n: fundamental})

    def _image(self, table: dict, m: tuple[int, ...]) -> GradedClass:
        """The unit entry of table times f^*(m), cached in table."""
        def step(m):
            i = next(i for i, e in enumerate(m) if e)
            return m[:i] + (m[i] - 1,) + m[i + 1:], self.hyperplanes[i]
        return _memo(table, m, step)

    def pullback(self, beta: GradedClass) -> GradedClass:
        if beta.ring != self.target_ring:
            raise ModelError("pullback argument lives in the wrong ring")
        out = self.source.ambient.zero()
        for mono, coeff in beta.terms.items():
            out = out + coeff * self._image(self._pulled, mono)
        return out

    def pushforward(self, alpha: GradedClass) -> GradedClass:
        """The coefficient of m is int_X alpha * f^*(top/m)."""
        ambient = self.source.ambient
        if alpha.ring != ambient:
            raise ModelError("pushforward argument lives in the wrong ring")
        ring, top = self.target_ring, self.target_ring.top_monomial
        terms = {}
        for d in {ambient.monomial_degree(m) for m in alpha.terms}:
            for m in ring.monomials_of_degree(d + self.kappa):
                dual = self._image(self._cycles, tuple(b - e for b, e in zip(top, m)))
                terms[m] = _integrate_product(ambient, alpha, dual)
        return GradedClass(ring, terms)


def projection_from_product(X: VarietyModel,
                            target_factors: Sequence[int]) -> ProductTargetMap:
    """Projection of X inside P^{n_1} x ... x P^{n_k} onto a subset of factors."""
    factors = sorted(int(i) for i in target_factors)
    k = len(X.factor_dims)
    if not factors:
        raise ModelError("need at least one target factor")
    if len(set(factors)) < len(factors):
        raise ModelError(f"repeated target factor in {factors}")
    if any(i < 0 or i >= k for i in factors):
        raise ModelError("target factor index out of range")
    if len(factors) == k:
        raise ModelError("target equals the full ambient product")
    names = [X.ambient.names[i] for i in factors]
    target = product_projective([X.factor_dims[i] for i in factors], names=names)
    return ProductTargetMap(X, target, [X.ambient.gen(n) for n in names],
                            "product-projection")


def linear_projection_model(X: VarietyModel, e: GradedClass,
                            target_dim: int) -> ProductTargetMap:
    """Generic linear projection to P^{target_dim} of X embedded by e."""
    return ProductTargetMap(X, product_projective([target_dim]), [e], "linear-projection")


def rational_curve_model(d: int) -> ProductTargetMap:
    """Generic degree-d parametrized rational plane curve P^1 -> P^2."""
    p1 = product_projective([1], names=("p",))
    return ProductTargetMap(p1, product_projective([2]), [d * p1.ambient.gen("p")],
                            "rational-curve")


# -- module-level operation aliases matching the published surface ----------


def quotient_chern(f: MapModel) -> GradedClass:
    return f.quotient_chern()


def landweber_novikov(f: MapModel, I: Iterable[int]) -> GradedClass:
    return f.landweber_novikov(I)


def pushforward(f: MapModel, alpha: GradedClass) -> GradedClass:
    return f.pushforward(alpha)


def pullback(f: MapModel, beta: GradedClass) -> GradedClass:
    return f.pullback(beta)


# -- named built-in models ---------------------------------------------------


def _veronese_p3() -> ProductTargetMap:
    p2 = product_projective([2])
    return linear_projection_model(p2, 2 * p2.ambient.gen("h"), 3)


def _scroll_q_p3() -> ProductTargetMap:
    quadric = product_projective([1, 1], names=("a", "b"))
    e = quadric.ambient.gen("a") + 2 * quadric.ambient.gen("b")
    return linear_projection_model(quadric, e, 3)


_FIXED_MODELS = {
    "veronese-p3": _veronese_p3,
    "scroll-q-p3": _scroll_q_p3,
}

# name:<d> for d >= 1: a builder, or a projection description with {d}
_PARAMETRIC_MODELS = {
    "ratcurve": rational_curve_model,
    "pencil": "product [2,1] ci [({d},1)] -> [1]",
    "web3": "product [2,3] ci [({d},1)] -> [1]",
    "dual-surface": "product [3,3] ci [({d},0),(1,1)] -> [1]",
}


def model_names() -> list[str]:
    return sorted(_FIXED_MODELS) + [f"{k}:<d>" for k in sorted(_PARAMETRIC_MODELS)]


_PROJECTION_DESC_RE = re.compile(rf"(.*?)\s*->\s*\[\s*({_NATURALS})\s*\]\s*")


def get_model(name: str) -> MapModel:
    """Resolve a model name.

    Accepts the built-in names ('veronese-p3', 'pencil:4', ...) or a factor
    projection described in the variety grammar with a target-factor list,
    e.g. 'product [2,1] ci [(3,1)] -> [1]'.
    """
    name = name.strip()
    if name in _FIXED_MODELS:
        return _FIXED_MODELS[name]()
    head, colon, arg = name.partition(":")
    if colon and head in _PARAMETRIC_MODELS:
        try:
            d = int(arg)
        except ValueError:
            raise ModelError(f"bad parameter in model name {name!r}") from None
        if d < 1:
            raise ModelError(f"model {head} needs parameter >= 1")
        build = _PARAMETRIC_MODELS[head]
        if not isinstance(build, str):
            return build(d)
        name = build.format(d=d)
    if name.startswith("product"):
        m = _PROJECTION_DESC_RE.fullmatch(name)
        if not m:
            raise ModelError(f"cannot parse projection description {name!r}; expected "
                             "a variety description followed by '-> [i1,i2,...]'")
        return projection_from_product(parse_variety(m.group(1)),
                                       _integers(m.group(2), "projection", name))
    raise ModelError(
        f"unknown model {name!r}; available: {', '.join(model_names())} "
        "or a description like 'product [2,1] ci [(3,1)] -> [1]'"
    )
