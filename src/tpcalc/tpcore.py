"""Multi-singularity expansion engine.

The key objects:

* a store of residual polynomials R in the Chern symbols, one per (multiset
  of type names, kappa), which also declares the target codimension ell of
  each mono-singularity type (name, kappa) beyond the built-in A0 and A1;
* the two set-partition expansions built from the store: the target class
  as a polynomial in the s_I, and the source class as a polynomial in c_j
  and fs_I;
* their inverse (recovering a residual from a known expansion), the
  determinantal polynomial for corank-1 loci, evaluation on map models and
  zero-dimensional point counts;
* a check of the exponential generating identity against the target
  expansion.

Ordered tuples of types are the raw objects; geometric counts divide by the
order of the tuple's symmetry group.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import product
from types import MappingProxyType

from .algebra import GradedClass, Packing, _mul_packed, _sum, integrate_top
from .grammar import _TOO_BIG, MAX_DIGITS
from .maps import MapModel
from .symbolic import SymbolicExpr, _push, c, c_exponents, packing_of, parse_expr, render_expr


class SingTypeError(ValueError):
    """Unknown singularity type / bad multi-type."""


class MissingResidual(KeyError):
    """A required residual-polynomial entry is absent from the store."""

    def __init__(self, names: tuple[str, ...], kappa: int):
        self.names = names
        self.kappa = kappa
        super().__init__(f"no residual polynomial for types=[{','.join(names)}] kappa={kappa}")

    def __str__(self) -> str:  # KeyError's would quote the message
        return self.args[0]


class InconsistentExtraction(ValueError):
    """The given expansion is not reproducible by any residual polynomial."""


# -- singularity types ---------------------------------------------------------


class SingType(namedtuple("SingType", "name kappa ell")):
    """A mono-singularity type (name: str, kappa: int) with its target
    codimension ell: int."""

    __slots__ = ()


_A1_ELL = MappingProxyType({("A1", 1): 3, ("A1", -1): 1})  # beside A0's ell = kappa


def sing_ell(name: str, kappa: int, db: ResidualDB | None = None) -> int:
    """Target codimension of a mono-singularity type, built in or declared in db."""
    if name == "A0":
        if kappa < 0:
            raise SingTypeError("A0 is not an isolated-singularity type for kappa < 0")
        return kappa
    ell = _A1_ELL.get((name, kappa), db._types.get((name, kappa)) if db else None)
    if ell is None:
        raise SingTypeError(
            f"unknown singularity type {name!r} at kappa={kappa}; declare it in the "
            f"store with a 'type={name} kappa={kappa} ell=<ell>' line or ResidualDB.declare"
        )
    return ell


def get_sing_type(name: str, kappa: int, db: ResidualDB | None = None) -> SingType:
    return SingType(name, kappa, sing_ell(name, kappa, db))


def _aut_order(names: Sequence[str]) -> int:
    order = 1
    for name in set(names):
        order *= math.factorial(list(names).count(name))
    return order


class MultiSingType:
    """An ordered tuple of mono-singularity type names at a fixed kappa, resolved
    against the types declared in the store `db` (the built-in ones only if None).
    Immutable; equality, hash and repr are by entries and kappa, whatever the store."""

    def __init__(self, entries: tuple[str, ...], kappa: int, db: ResidualDB | None = None):
        if not entries:
            raise SingTypeError("multi-singularity type needs at least one entry")
        for name in entries:
            sing_ell(name, kappa, db)  # validates
        vars(self).update(entries=entries, kappa=kappa, db=db)  # past __setattr__

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not MultiSingType:
            return NotImplemented
        return (self.entries, self.kappa) == (other.entries, other.kappa)

    def __hash__(self) -> int:
        return hash((self.entries, self.kappa))

    def __repr__(self) -> str:
        return f"MultiSingType(entries={self.entries!r}, kappa={self.kappa!r})"

    @property
    def r(self) -> int:
        return len(self.entries)

    @property
    def ell_total(self) -> int:
        return sum(sing_ell(n, self.kappa, self.db) for n in self.entries)

    @property
    def aut_order(self) -> int:
        return _aut_order(self.entries)

    @property
    def aut_order_rest(self) -> int:
        return _aut_order(self.entries[1:])

    @property
    def key(self) -> tuple[str, ...]:
        return tuple(sorted(self.entries))

    def __str__(self) -> str:
        return ",".join(self.entries)


def multi_type(spec: str | Iterable[str], kappa: int,
               db: ResidualDB | None = None) -> MultiSingType:
    """Build a MultiSingType from 'A0,A0,A1' or an iterable of names."""
    if isinstance(spec, str):
        names = tuple(n.strip() for n in spec.split(","))
        if not all(names):
            raise SingTypeError(f"empty entry in multi-singularity type {spec!r}")
    else:
        names = tuple(spec)
    return MultiSingType(names, kappa, db)


# -- set partitions -----------------------------------------------------------

SetPartition = tuple[tuple[int, ...], ...]


def set_partitions(r: int) -> list[SetPartition]:
    """All partitions of {1,...,r} into nonempty unordered blocks.

    Blocks are sorted tuples keyed by least element and the whole list is
    sorted, so the order is deterministic.  The count is the r-th Bell number.
    """
    if r < 1:
        raise ValueError("set_partitions needs r >= 1")
    parts: list[SetPartition] = [()]
    for x in range(1, r + 1):  # x joins each block in turn, or opens the last
        parts = [p[:i] + (b + (x,),) + p[i + 1:] for p in parts for i, b in enumerate(p + ((),))]
    return sorted(parts)


def bell_number(r: int) -> int:
    """Bell numbers via the Bell triangle (independent of set_partitions)."""
    if r == 0:
        return 1
    row = [1]
    for _ in range(r - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


# -- residual polynomial store -------------------------------------------------


def residual_a0_family(r: int, kappa: int) -> SymbolicExpr:
    """The kappa-parametric immersion-tuple residuals, r = 1, 2, 3."""
    if kappa < 1:
        raise SingTypeError("the A0 residual family is shipped for kappa >= 1 only")
    if r == 1:
        return SymbolicExpr.constant(1)
    if r == 2:
        return -c(kappa)
    if r == 3:  # 2 c_k^2 + sum_i 2^(i+1) c_(k-i-1) c_(k+i+1), with c_0 = 1
        terms = {((("c", kappa), 2),): 2}
        for i in range(kappa):
            low = ((("c", kappa - i - 1), 1),) if i < kappa - 1 else ()
            terms[low + ((("c", kappa + i + 1), 1),)] = 2 ** (i + 1)
        return SymbolicExpr(terms)
    raise MissingResidual(("A0",) * r, kappa)


def residual_line(names: Iterable[str], kappa: int, R: SymbolicExpr) -> str:
    """One store entry as text, e.g. 'types=[A0,A0,A0] kappa=1 R= 2*c1^2 + 2*c2'."""
    return f"types=[{','.join(sorted(names))}] kappa={kappa} R= {render_expr(R)}"


class ResidualDB:
    """Keyed store of residual polynomials and declared types, order-independent
    in the entries."""

    def __init__(self):
        self._store: dict[tuple[tuple[str, ...], int], SymbolicExpr] = {}
        self._types: dict[tuple[str, int], int] = {}  # declared (name, kappa) -> ell

    def copy(self) -> "ResidualDB":
        db = ResidualDB()
        db._store = dict(self._store)
        db._types = dict(self._types)
        return db

    def keys(self):
        return sorted(self._store)

    def contains(self, names: Iterable[str], kappa: int) -> bool:
        return (tuple(sorted(names)), kappa) in self._store

    def declare(self, name: str, kappa: int, ell: int) -> None:
        """Declare the target codimension ell of the type `name` at kappa in
        this store; declaring a known type with its own ell again does nothing."""
        if name == "A0" or not re.fullmatch(r"[A-Za-z0-9_]+", name):
            raise SingTypeError(f"cannot declare a type named {name!r}")
        if ell < max(kappa, 0):  # a residual has degree ell - kappa >= 0
            raise SingTypeError(f"ell={ell} for {name} at kappa={kappa} is below max(kappa, 0)")
        known = _A1_ELL.get((name, kappa), self._types.get((name, kappa)))
        if known is None:
            self._types[name, kappa] = ell
        elif known != ell:
            raise SingTypeError(f"{name} at kappa={kappa} already has ell={known}, not {ell}")

    def insert(self, names: Iterable[str], kappa: int, R: SymbolicExpr) -> None:
        names = tuple(sorted(names))
        for mono in R._ints[1]:
            for (kind, _), _e in mono:
                if kind != "c":
                    raise SingTypeError("residual polynomials are polynomials in the c_j only")
        t = MultiSingType(names, kappa, self)
        want = t.ell_total - kappa
        if not R.is_homogeneous(want, kappa):
            raise SingTypeError(f"types=[{','.join(names)}] kappa={kappa}: R must be "
                                f"homogeneous of degree {want}")
        self._store[(names, kappa)] = R

    def remove(self, names: Iterable[str], kappa: int) -> None:
        self._store.pop((tuple(sorted(names)), kappa), None)

    def get(self, names: Iterable[str], kappa: int) -> SymbolicExpr:
        names = tuple(sorted(names))
        if (names, kappa) in self._store:
            return self._store[names, kappa]
        if set(names) == {"A0"} and kappa >= 1 and len(names) <= 3:
            return residual_a0_family(len(names), kappa)
        raise MissingResidual(names, kappa)

    # - file format: the declared types, one per line, then one residual_line per entry

    _TYPE_RE = re.compile(r"^type=(\S+)\s+kappa=(-?\d+)\s+ell=(-?\d+)$")
    _LINE_RE = re.compile(
        r"^types=\[([A-Za-z0-9_, ]*)\]\s+kappa=(-?\d+)\s+R=\s*(.+)$"
    )

    def dump(self) -> str:
        types = [f"type={n} kappa={k} ell={ell}" for (n, k), ell in sorted(self._types.items())]
        keys = sorted(self._store, key=lambda k: (k[1], len(k[0]), k[0]))
        return "\n".join(types + [residual_line(*key, self._store[key]) for key in keys]) + "\n"

    @classmethod
    def loads(cls, text: str, base: "ResidualDB | None" = None) -> "ResidualDB":
        db = base.copy() if base is not None else cls()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            typ, m = cls._TYPE_RE.match(line), cls._LINE_RE.match(line)
            if not (typ or m):
                raise ValueError(f"bad residual-db line {lineno}: {raw!r}")
            ints = typ.group(2, 3) if typ else (m[2],)
            try:
                if max(len(x.lstrip("-")) for x in ints) > MAX_DIGITS:  # int() would refuse it
                    raise ValueError(f"an integer has more than {MAX_DIGITS} digits")
                if typ:
                    db.declare(typ[1], *map(int, ints))
                else:
                    names = tuple(n.strip() for n in m[1].split(",") if n.strip())
                    db.insert(names, int(m[2]), parse_expr(m[3]))
            except ValueError as exc:  # same class, with the line number
                raise type(exc)(f"bad residual-db line {lineno}: {exc}") from None
        return db


def default_db() -> ResidualDB:
    """The compiled-in residual store.

    kappa = 1: the immersion family A0..A0^4, the crosscap type A1 and the
    mixed pair A0A1 (the pair entry and the quadruple-immersion entry were
    obtained by inverting the corresponding published source expansions; the
    round trip is exercised in the acceptance tests).
    kappa = -1: the critical-point family A1, A1^2, A1^3 driving discriminant
    double/triple-point counts.
    """
    db = ResidualDB()
    for r in (1, 2, 3):
        db.insert(("A0",) * r, 1, residual_a0_family(r, 1))
    db.insert(("A0",) * 4, 1, parse_expr("-6*c1^3 - 18*c1*c2 - 12*c3"))
    db.insert(("A1",), 1, parse_expr("c2"))
    db.insert(("A0", "A1"), 1, parse_expr("-2*c1*c2 - 2*c3"))
    db.insert(("A1",), -1, parse_expr("c1^2 - c2"))
    db.insert(("A1", "A1"), -1, parse_expr("-7*c1^3 + 8*c1*c2 - c3"))
    db.insert(
        ("A1", "A1", "A1"), -1,
        parse_expr("138*c1^4 - 158*c1^2*c2 + 2*c2^2 + 20*c1*c3 - 2*c4"),
    )
    return db


# -- the two partition expansions ---------------------------------------------


def _partition_sum(t: MultiSingType, db: ResidualDB, side: str,
                   proper: bool = False) -> tuple[Packing, int, dict[int, int]]:
    """Sum over the set partitions of t's entries of the product of block values.

    On the target side every block contributes its pushed residual; on the
    source side the block holding entry 1 keeps its residual and the others
    contribute pulled-back pushforwards.  `proper` drops the single-block term.

    A product depends only on the multiset of type names in each block, so
    with M the count vector of the entries and D the block holding a lead
    entry (entry 1 for M itself):
    F(M) = sum_D prod_n C(m_n - [n = lead], d_n - [n = lead]) value(D) F(M - D),
    filled in bottom-up by increasing size over the prod (m_n + 1) sub-multisets,
    on packed integers (symbolic.packing_of): with lam the lcm of the residuals'
    denominators D, value(D) is scaled by lam^|D|, so F(v) is lam^|v| times an
    integer polynomial: it returns (packing, lam^r, {key: numerator}) of F(M).
    """
    names = sorted(set(t.entries))
    full = tuple(t.entries.count(n) for n in names)
    subsets = sorted(product(*(range(m + 1) for m in full)), key=sum)
    # read in the order the recurrence first needs them, so a missing entry is
    # reported smallest first; the proper part never reads the full tuple's
    R = {d: db.get([n for n, k in zip(names, d) for _ in range(k)], t.kappa)
         for d in subsets[1:] if not (proper and d == full)}
    lead = names.index(t.entries[0])
    keep = side == "source"  # at the top, the block holding entry 1 keeps its residual
    values = {(d, False): _push(R[d], "s" if side == "target" else "fs")._ints
              for d in R if not (keep and d == full)}
    values.update(((d, True), R[d]._ints) for d in R if keep and d[lead])
    packing = packing_of((nums for _, nums in values.values()), t.r)
    lam = math.lcm(*(R[d]._ints[0] for d in R))  # a pushed residual's D divides its own
    packed = {key: packing.pack(nums, lam ** sum(key[0]) // den)
              for key, (den, nums) in values.items()}
    sums: dict[tuple, dict] = {subsets[0]: {0: 1}}  # sub-multiset -> packed F
    for v in subsets[1:]:
        top = v == full
        lead_v = lead if top else next(n for n, k in enumerate(v) if k)
        products = []
        for d in product(*(range(k + 1) for k in v)):
            if not d[lead_v] or (proper and d == full):
                continue
            weight = math.prod(math.comb(k - (n == lead_v), e - (n == lead_v))
                               for n, (k, e) in enumerate(zip(v, d)))
            terms = packed[d, top and keep].items()
            products.append((terms if weight == 1 else [(key, n * weight) for key, n in terms],
                             sums[tuple(k - e for k, e in zip(v, d))].items()))
        sums[v] = _mul_packed(products, packing)
    return packing, lam ** t.r, sums[full]


def expand_target(t: MultiSingType, db: ResidualDB) -> SymbolicExpr:
    """Target expansion: the sum over set partitions of products of pushed
    residuals, a homogeneous polynomial of degree ell(t) in the s_I."""
    return SymbolicExpr._from_packed(*_partition_sum(t, db, "target"))


def expand_source(t: MultiSingType, db: ResidualDB) -> SymbolicExpr:
    """Source expansion: over set partitions, the residual of the block
    containing entry 1 stays in Chern symbols while the other blocks
    contribute pulled-back pushforwards; homogeneous of degree ell(t) - kappa."""
    return SymbolicExpr._from_packed(*_partition_sum(t, db, "source"))


def extract_residual(t: MultiSingType, known: SymbolicExpr, side: str,
                     db: ResidualDB) -> SymbolicExpr:
    """Invert an expansion: find the unique R making the expansion equal
    `known`, insert it into the db and return it.

    `side` is 'target' or 'source'; `known` must be homogeneous of degree
    ell(t) (target) or ell(t) - kappa (source).  `known` cancels against the
    proper part on packed keys, a monomial the packing cannot hold keeping its
    tuple; only the leftover is decoded, `known`'s monomials first.
    """
    if side not in ("source", "target"):
        raise ValueError("side must be 'source' or 'target'")
    want = t.ell_total if side == "target" else t.ell_total - t.kappa
    if not known.is_homogeneous(want, t.kappa):
        raise InconsistentExtraction(
            f"known expansion is not homogeneous of degree {want}"
        )
    packing, lam, proper = _partition_sum(t, db, side, proper=True)
    keyed = {m if (k := packing.encode(m)) is None else k: n for m, n in known._ints[1].items()}
    den, delta = _sum([(1, (known._ints[0], keyed)), (-1, (lam, proper))])
    nums = {}
    for mono, n in delta.items():
        if type(mono) is int:
            mono = packing.decode(mono)
        if side == "source" and any(kind != "c" for (kind, _), _e in mono):
            raise InconsistentExtraction(
                "no residual reproduces the given source expansion: "
                f"leftover non-Chern term {render_expr(SymbolicExpr({mono: 1}))!r}"
            )
        if side == "target":  # invert the push map: the one s_K goes back to c^K
            if [(kind, e) for (kind, _), e in mono] != [("s", 1)]:
                raise InconsistentExtraction(
                    "no residual reproduces the given target expansion: "
                    f"leftover term {render_expr(SymbolicExpr({mono: 1}))!r} "
                    "is not a single s-symbol"
                )
            mono = tuple((("c", j), e) for j, e in enumerate(mono[0][0][1], start=1) if e)
        nums[mono] = n
    R = SymbolicExpr._from_ints(None, den, nums)
    db.insert(t.key, t.kappa, R)
    return R


# -- Thom-Porteous determinant --------------------------------------------------


def thom_porteous(kappa: int, k: int) -> SymbolicExpr:
    """The k x k determinant det[c_(kappa+k+j-i)] with c_0 = 1, c_{<0} = 0.

    Laplace expansion along the top row, memoised over column subsets: the
    minors of the bottom rows are built row by row from the bottom, one layer
    of column masks at a time (about 2^k * k products in place of k! * k).
    Its 2k - 1 diagonals m = j - i are packed once, with both signs.
    """
    if k < 1:
        raise ValueError("thom_porteous needs k >= 1")
    diagonals = {m: c(kappa + k + m)._ints[1] for m in range(1 - k, k)}
    packing = packing_of(diagonals.values(), k)
    signed = {m: [[(key, sign * n) for key, n in packing.pack(nums).items()] for sign in (1, -1)]
              for m, nums in diagonals.items()}  # diagonal -> its terms times 1, then -1
    minors: dict[int, dict] = {0: {0: 1}}  # column mask -> packed minor
    for i in range(k - 1, -1, -1):
        layer: dict[int, list] = {}
        for mask, minor in minors.items():
            for j in range(k):
                if not mask >> j & 1:
                    odd = (mask & ((1 << j) - 1)).bit_count() & 1
                    layer.setdefault(mask | 1 << j, []).append((signed[j - i][odd], minor.items()))
        minors = {mask: _mul_packed(products, packing) for mask, products in layer.items()}
    return SymbolicExpr._from_packed(packing, 1, minors[(1 << k) - 1])


# -- evaluation on map models ----------------------------------------------------


def evaluate(expr: SymbolicExpr, f: MapModel, side: str | None = None) -> GradedClass:
    """Substitute the model's classes for the symbols.

    c_j -> degree-j part of the quotient Chern class, s_I -> the LN class,
    fs_I -> its pullback.  Target-side expressions land in the target ring,
    source-side ones in the source's ambient representative ring, a scalar in
    the ring `side` names (the source's by default); a contradicting `side` raises.
    """
    actual = expr.side
    if actual == "scalar":
        actual = side or "source"
    elif side not in (None, actual):
        raise ValueError(f"a {actual}-side expression cannot be evaluated on the {side} side")
    ring = f.target_ring if actual == "target" else f.source.ambient
    den, nums = expr._ints
    # a monomial above the top degree is zero in the ring, so no index is built
    live = [mn for mn, d in zip(nums.items(), expr._degrees(f.kappa)) if d <= ring.top_degree]
    f.chern(max((j for mono, _n in live for (kind, j), _e in mono if kind == "c"), default=0))
    pairs = []  # (scalar, (D, numerators)) of each monomial, summed in one `_sum`
    for mono, n in live:
        K = c_exponents(mono)  # the c-part is the model's cached c^K
        factors = [(f._c_monomial(K), 1)] if K else []
        for (kind, payload), e in mono:
            if kind != "c":
                beta = f.landweber_novikov(payload)
                factors.append(((beta if kind == "s" else f.pullback(beta))._ints, e))
        if any(not ps for (_d, ps), _e in factors):
            continue  # before any power is taken, however large
        d, chain = 1, []  # the monomial is n * (the product of chain) / d
        for (q, ps), e in factors:  # e <= top unless constant, whose power is bounded
            constant = ps.keys() == {0}
            if constant and e * (max(abs(ps[0]), q).bit_length() - 1) > _TOO_BIG.bit_length():
                raise ValueError(f"the term {render_expr(SymbolicExpr({mono: 1}))} takes a "
                                 f"power of more than {MAX_DIGITS} digits")
            chain += [{0: ps[0] ** e}] if constant else [ps] * e
            d *= q ** e
        value = chain[0] if chain else {0: 1}
        for ps in chain[1:]:
            value = _mul_packed([(value.items(), ps.items())], ring._packing)
        pairs.append((n, (d, value)))
    d, total = _sum(pairs)
    return GradedClass._from_ints(ring, den * d, total)


def count_points(f: MapModel, t: MultiSingType, db: ResidualDB) -> Fraction:
    """Number of t-singular target points: the integrated target expansion
    divided by the tuple's symmetry order.  Requires ell(t) = dim Y."""
    if t.ell_total != f.target_ring.top_degree:
        raise ValueError(
            "locus not zero-dimensional: ell(t) = "
            f"{t.ell_total} but dim Y = {f.target_ring.top_degree}"
        )
    return integrate_top(f.target_ring, evaluate(expand_target(t, db), f, "target")) / t.aut_order


# -- exponential generating identity ----------------------------------------------


def verify_generating_series(types: Sequence[SingType], max_r: int,
                             db: ResidualDB) -> bool:
    """Check 1 + sum n_t/|Aut t| = exp(sum f_*(R_J)/|Aut J|) coefficientwise.

    The left side is the engine's own: at a count vector m of the given
    mono-types its coefficient is expand_target(m) / |Aut m|.  The right
    side's coefficient E_m comes from the derivative recurrence
    m_n E_m = sum_{0 < k <= m} k_n S_k E_(m-k), with S_k the pushed residual
    of k over |Aut k| and n any name with m_n > 0.  The tuple-size
    truncation is max_r, and every multiset of the given mono-types up to
    that size must be in the db.
    """
    if max_r < 1:
        raise ValueError("max_r must be >= 1")
    kappas = {ty.kappa for ty in types}
    if len(kappas) != 1:
        raise ValueError("all mono-types must share one kappa")
    kappa = kappas.pop()
    names = sorted({ty.name for ty in types})

    def entries(m):
        return tuple(n for n, k in zip(names, m) for _ in range(k))

    # by size, so every E_(m-k) precedes E_m; a missing entry is reported smallest first
    vectors = sorted((m for m in product(range(max_r + 1), repeat=len(names))
                      if 0 < sum(m) <= max_r), key=lambda m: (sum(m), [-k for k in m]))
    S = {m: _push(db.get(entries(m), kappa), "s") / _aut_order(entries(m))
         for m in vectors}  # raises MissingResidual if absent
    E = {(0,) * len(names): SymbolicExpr.constant(1)}
    for m in vectors:
        n = next(i for i, k in enumerate(m) if k)
        acc = SymbolicExpr.zero()
        for k in product(*(range(e + 1) for e in m)):
            if k[n]:
                acc = acc + k[n] * S[k] * E[tuple(a - b for a, b in zip(m, k))]
        E[m] = acc / m[n]
        t = MultiSingType(entries(m), kappa, db)
        if expand_target(t, db) / t.aut_order != E[m]:
            return False
    return True
