"""Proper-map models: pullback, pushforward, quotient Chern classes,
Landweber-Novikov classes.

Every model is a `ProductTargetMap`: a map f: X -> Y onto a product of
projective spaces Y = P^{t_1} x ... x P^{t_k}, given by its source X, its
target Y and the pullbacks f^*(h_i) of the target's hyperplane classes
(degree-1 classes on X).  They fix the rest: f^* is the ring map sending h_i
to f^*(h_i), and since the monomials m of Y and their duals m^v = top/m are
dual bases, f_*(alpha) = sum_m (int_X alpha * f^*(m^v)) m by the projection
formula.
c(f) = c(f^*TY - TX) is `chern_of_roots` over the roots (f^*(h_i), t_i + 1) of
f^*TY and the negated roots of TX, under one cap that grows with degrees read; an
s_I takes it to dim X at once (alpha * [X] is zero above it), so a count builds
c(f) once.  f^*(m), [X] f^*(m), c^I and s_I are cached as integer numerators,
which a class brings to lowest terms only when a public method hands it out.
Its base `MapModel` is the half that derives c(f), c^I and s_I from its
`hyperplanes` and `_push`.  The shipped kinds are

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
from collections.abc import Iterable, Sequence
from operator import index

from .algebra import GradedClass, _mul_packed, _pair, _sum
from .chow import (_NATURALS, ModelError, VarietyModel, _effective_degree_one, _integers,
                   chern_of_roots, parse_variety, product_projective)
from .grammar import MAX_DIGITS
from .symbolic import Index, canon_index, index_c_degree, index_str


def _memo(table: dict, key, step, packing):
    """table[key] = table[lower] * factor for (lower, factor) = step(key), all (D,
    numerators) of packing, not in lowest terms, filled up from the nearest cached
    entry, one packed product each, in a loop, so no recursion depth grows."""
    chain, k = [], key
    while k not in table:
        lower, factor = step(k)
        chain.append((k, lower, factor))
        k = lower
    for k, lower, (q, nums) in reversed(chain):
        d, below = table[lower]
        table[k] = (d * q, _mul_packed([(below.items(), nums.items())], packing))
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


# Kept apart from ProductTargetMap: perfbench's tracer wraps quotient_chern and
# landweber_novikov where MapModel defines them, and pullback and pushforward in
# its subclasses.
class MapModel:
    """The half of `ProductTargetMap` that derives c(f), c^I and the LN classes
    s_I = f_*(c^I), cached, from its ``hyperplanes`` (the f^*(h_i), paired with
    the target's exponents t_i + 1 as the roots of f^*TY) and ``_push`` (f_* on
    numerators); the target is a VarietyModel without divisors, whose ambient
    ring holds the target classes.
    """

    def __init__(self, source: VarietyModel, target: VarietyModel):
        if target.divisors:  # kappa and the dual-basis pushforward read a bare product
            raise ModelError("a map model needs a bare product of projective spaces as target")
        self.source = source
        self.target = target
        self.target_ring = target.ambient
        self.kappa = self.target_ring.top_degree - source.dimension
        one = source.ambient.one()
        self._cap, self._total, self._chern = 0, one, {0: one}  # c(f) up to degree _cap
        self._c_ints = {(): (1, {0: 1})}  # I -> (D, numerators) of c^I, not in lowest terms
        self._ln_cache: dict[tuple[int, ...], GradedClass] = {}

    def quotient_chern(self) -> GradedClass:
        """Total class of f^*TY - TX in the source's ambient ring: c(f) read at the top."""
        self.chern(self.source.ambient.top_degree)
        return self._total

    def chern(self, j: int) -> GradedClass:
        """c_j(f): c_0 = 1, zero below 0 and above the top, where nothing is built.
        A j above the cap rebuilds c(f) at max(j, 2 * cap), no higher than dim X
        while j is not; each build is exact up to its cap, so cached c^I stay."""
        dim, top, j = self.source.dimension, self.source.ambient.top_degree, index(j)
        if self._cap < j <= top:
            self._cap = min(max(j, 2 * self._cap), dim if j <= dim else top)
            roots = [(H, t + 1) for H, t in zip(self.hyperplanes, self.target.factor_dims)]
            roots += [(D, -a) for D, a in self.source.tangent_roots]
            self._total = chern_of_roots(self.source.ambient, roots, self._cap)
            self._chern = self._total.components()
        return self._chern.get(j) or self.source.ambient.zero()  # a class is truthy

    def _c_monomial(self, I: Index) -> tuple[int, dict]:
        """c^I as (D, numerators), not in lowest terms, for a canonical index I,
        cached: c^(I - e_j) * c_j with j = len(I), one packed product."""
        return _memo(self._c_ints, I,
                     lambda I: (canon_index(I[:-1] + (I[-1] - 1,)), self.chern(len(I))._ints),
                     self.source.ambient._packing)

    def chern_monomial(self, I: Index) -> GradedClass:
        """c^I for a canonical index I."""
        return GradedClass._from_ints(self.source.ambient, *self._c_monomial(I))

    def landweber_novikov(self, I: Iterable[int]) -> GradedClass:
        """s_I(f) = f_*(c^I) in the target ring, cached; zero outside degrees 0 to
        the top, where c^I is not built.  Else c(f) is built up to dim X at once."""
        I = canon_index(I)
        if I not in self._ln_cache:
            outside = not 0 <= self.kappa + index_c_degree(I) <= self.target_ring.top_degree
            if I and not outside:  # alpha * [X] is zero above dim X
                self.chern(self.source.dimension)
            self._ln_cache[I] = GradedClass._from_ints(
                self.target_ring, *((1, {}) if outside else self._push(*self._c_monomial(I))))
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
        unit = (0,) * len(hyperplanes)  # tables of (D, numerators): f^*(m), [X] f^*(m)
        self._pulled = {unit: (1, {0: 1})}
        self._cycles = {unit: source.fundamental._ints} if source.divisors else self._pulled
        self._duals: dict[int, list] = {}  # source degree d -> its dual rows

    def _image(self, table: dict, m: tuple[int, ...]) -> tuple[int, dict]:
        """The unit entry of table times f^*(m), as (D, numerators), cached in table."""
        def step(m):
            i = next(i for i, e in enumerate(m) if e)
            return m[:i] + (m[i] - 1,) + m[i + 1:], self.hyperplanes[i]._ints
        return _memo(table, m, step, self.source.ambient._packing)

    def pullback(self, beta: GradedClass) -> GradedClass:
        if beta.ring != self.target_ring:
            raise ModelError("pullback argument lives in the wrong ring")
        (den, nums), decode = beta._ints, beta.ring._packing.decode
        d, out = _sum([(n, self._image(self._pulled, decode(k))) for k, n in nums.items()])
        return GradedClass._from_ints(self.source.ambient, den * d, out)

    def pushforward(self, alpha: GradedClass) -> GradedClass:
        """The coefficient of m is int_X alpha * f^*(top/m)."""
        if alpha.ring != self.source.ambient:
            raise ModelError("pushforward argument lives in the wrong ring")
        return GradedClass._from_ints(self.target_ring, *self._push(*alpha._ints))

    def _push(self, den: int, nums: dict) -> tuple[int, dict]:
        """f_* on the numerators nums / den: each degree d pairs with its dual rows,
        (key of m, numerators of [X] f^*(top/m)) over the target monomials m of
        degree d + kappa, built once per model and degree."""
        ambient, ring, terms = self.source.ambient, self.target_ring, []
        for d in {ambient._packing.degree(k) for k in nums}:
            if d not in self._duals:
                self._duals[d] = [(ring._packing.encode(m), self._image(
                    self._cycles, tuple(b - e for b, e in zip(ring.bounds, m))))
                    for m in ring.monomials_of_degree(d + self.kappa)]
            terms += [(1, (den * q, {key: _pair(ambient, nums, dual)}))
                      for key, (q, dual) in self._duals[d]]
        return _sum(terms)


def projection_from_product(X: VarietyModel,
                            target_factors: Sequence[int]) -> ProductTargetMap:
    """Projection of X inside P^{n_1} x ... x P^{n_k} onto a subset of factors."""
    factors = sorted(map(index, target_factors))
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
    """Generic linear projection to P^{target_dim}, target_dim >= dim X, of X embedded by e."""
    if target_dim < X.dimension:
        raise ModelError(f"a linear projection of a variety of dimension {X.dimension} "
                         f"to P^{target_dim} is not a morphism")
    return ProductTargetMap(X, product_projective([target_dim]), [e], "linear-projection")


def rational_curve_model(d: int) -> ProductTargetMap:
    """Generic degree-d parametrized rational plane curve P^1 -> P^2."""
    p1 = product_projective([1], names=("p",))
    return ProductTargetMap(p1, product_projective([2]), [index(d) * p1.ambient.gen("p")],
                            "rational-curve")


# -- module-level operation aliases matching the published surface ----------


def quotient_chern(f: MapModel) -> GradedClass:
    return f.quotient_chern()


def landweber_novikov(f: MapModel, I: Iterable[int]) -> GradedClass:
    return f.landweber_novikov(I)


def pushforward(f: ProductTargetMap, alpha: GradedClass) -> GradedClass:
    return f.pushforward(alpha)


def pullback(f: ProductTargetMap, beta: GradedClass) -> GradedClass:
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


def get_model(name: str) -> ProductTargetMap:
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
        if not re.fullmatch("[0-9]+", arg) or len(arg) > MAX_DIGITS:  # as the grammar reads
            raise ModelError(f"bad parameter in model name {name!r}")
        d = int(arg)
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
