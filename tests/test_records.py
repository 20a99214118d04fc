"""The six records against the dataclasses they replaced.

tpcalc defines its records as `typing.NamedTuple`s, `types.SimpleNamespace`s,
a plain class and a dict, so that importing the package or its command line
loads neither `dataclasses` nor `inspect`, which every CLI process would pay
for at start-up.  The dataclass definitions are kept below verbatim as
references; each replacement must match its reference in fields, equality,
hashing, repr, refused assignment and deletion, and validation errors.

Intended differences:
* `SingType` is a `typing.NamedTuple`, so it also unpacks, indexes and
  compares as the tuple (name, kappa, ell);
* `CurveParam` is a `typing.NamedTuple` too, so it also unpacks, indexes and
  compares as its (x, y) tuple; its `_make` and `_replace` skip the check in
  `__new__`, and nothing in tpcalc calls them;
* a `LinearSystem` or `SolveResult` is a `types.SimpleNamespace`, so it also
  compares equal to a plain `SimpleNamespace` with the same fields; it pickles
  with protocol 2 or later, the default, but not with protocols 0 and 1;
* the command line's report is a dict built in `cli.main`, internal to the
  command line and only ever written out; `cli.report_text` is the reference's
  `to_text`, and `json.dumps` of the dict its `to_json`.
"""

from __future__ import annotations

import copy
import json
import os
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError, asdict, dataclass, field
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpcalc import cli, interp, oracle, tpcore
from tpcalc.oracle import (
    OracleError,
    Poly,
    parse_poly,
    poly,
    poly_deg,
    poly_derivative,
)
from tpcalc.symbolic import Index, SymbolicExpr, c_monomial, render_expr
from tpcalc.tpcore import ResidualDB, SingTypeError, _aut_order, sing_ell

from poly_reference import poly_gcd

# -- the retired definitions, verbatim -----------------------------------------


@dataclass(frozen=True)
class SingType:
    """A mono-singularity type with its target codimension ell."""

    name: str
    kappa: int
    ell: int


@dataclass(frozen=True)
class MultiSingType:
    """An ordered tuple of mono-singularity type names at a fixed kappa, resolved
    against the types declared in the store `db` (the built-in ones only if None)."""

    entries: tuple[str, ...]
    kappa: int
    db: ResidualDB | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not self.entries:
            raise SingTypeError("multi-singularity type needs at least one entry")
        for name in self.entries:
            sing_ell(name, self.kappa, self.db)  # validates

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


@dataclass
class LinearSystem:
    """Rows are (coefficient vector, right-hand side, provenance label)."""

    unknowns: list[Index]
    rows: list[tuple[list[Fraction], Fraction, str]] = field(default_factory=list)

    def describe_unknowns(self) -> list[str]:
        return [render_expr(c_monomial(I)) for I in self.unknowns]


@dataclass
class SolveResult:
    status: str  # 'unique' | 'underdetermined' | 'inconsistent'
    solution: dict[Index, Fraction] | None = None
    kernel: list[dict[Index, Fraction]] = field(default_factory=list)
    violated: list[str] = field(default_factory=list)

    def residual(self) -> SymbolicExpr:
        """The solved polynomial sum a_I c^I (unique solutions only)."""
        if self.status != "unique":
            raise ValueError(f"system is {self.status}, no unique residual")
        terms = (c_monomial(I) * a for I, a in self.solution.items())
        return sum(terms, SymbolicExpr.zero())


@dataclass(frozen=True)
class CurveParam:
    """An affine chart of a map P^1 -> P^2, t -> (x(t), y(t))."""

    x: Poly
    y: Poly

    def __post_init__(self):
        if poly_deg(self.x) < 1 and poly_deg(self.y) < 1:
            raise OracleError("x and y must not both be constant")

    @property
    def degree(self) -> int:
        return max(poly_deg(self.x), poly_deg(self.y), 1)

    @staticmethod
    def parse(text: str, max_degree: int | None = None) -> "CurveParam":
        """Parse 'x(t), y(t)', e.g. 't^2, t^3'; no degree above max_degree."""
        pieces = text.split(",")
        if len(pieces) != 2:
            raise OracleError("curve must be given as 'x(t), y(t)'")
        return CurveParam(*(parse_poly(p, max_degree=max_degree) for p in pieces))

    def is_immersive(self) -> bool:
        g = poly_gcd(poly_derivative(self.x), poly_derivative(self.y))
        return poly_deg(g) < 1


@dataclass
class Report:
    command: str
    inputs: dict
    result: object = None
    checks: list = field(default_factory=list)
    elapsed_ms: float | None = None

    @property
    def all_pass(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, default=str)

    def to_text(self) -> str:
        lines = []
        if self.result is not None:
            if isinstance(self.result, dict):
                for key, value in self.result.items():
                    lines.append(f"{key}: {value}")
            else:
                lines.append(str(self.result))
        for c in self.checks:
            status = "PASS" if c["pass"] else "FAIL"
            lines.append(
                f"{status} {c['name']}: expected {c['expected']}, got {c['got']}"
            )
        if self.elapsed_ms is not None:
            lines.append(f"# elapsed: {self.elapsed_ms:.1f} ms")
        return "\n".join(lines)


# -- comparing a replacement with its reference ----------------------------------


def build(cls, *args):
    """(instance, None), or (None, (error class, message)) if cls refuses args."""
    try:
        return cls(*args), None
    except Exception as exc:  # the errors themselves are compared
        return None, (type(exc), str(exc))


def assert_same(new, ref, fields):
    assert [getattr(new, f) for f in fields] == [getattr(ref, f) for f in fields]
    assert repr(new) == repr(ref)


def assert_same_equality(new, ref, new_other, ref_other):
    assert (new == new_other) == (ref == ref_other)
    assert (new != new_other) == (ref != ref_other)
    assert (new == object()) is (ref == object()) is False


def assert_same_hash(new, ref, new_other, ref_other):
    assert hash(new) == hash(ref)
    if new == new_other:
        assert hash(new) == hash(new_other)


def assert_frozen(new, ref, fields, value):
    for name in (*fields, "other"):
        with pytest.raises(FrozenInstanceError):
            setattr(ref, name, value)
        with pytest.raises(AttributeError):
            setattr(new, name, value)
    for name in fields:
        with pytest.raises(FrozenInstanceError):
            delattr(ref, name)
        with pytest.raises(AttributeError):
            delattr(new, name)
    assert [getattr(new, f) for f in fields] == [getattr(ref, f) for f in fields]


def assert_unhashable(new, ref):
    for obj in (new, ref):
        with pytest.raises(TypeError):
            hash(obj)


small = st.integers(-3, 3)
fractions = st.builds(Fraction, small, st.integers(1, 3))
texts = st.text("ABc01_", max_size=4)

_DB = ResidualDB()
for _kappa in range(-2, 4):
    _DB.declare("B", _kappa, max(_kappa, 0) + 2)

sing_fields = st.tuples(texts, small, small)
multi_fields = st.tuples(
    st.lists(st.sampled_from(["A0", "A1", "B", "E8"]), max_size=4).map(tuple),
    st.integers(-2, 3),
    st.sampled_from([None, _DB]),
)
curve_fields = st.tuples(*[st.lists(fractions, max_size=4).map(poly)] * 2)
indices = st.lists(st.integers(0, 2), min_size=1, max_size=3).map(tuple)
system_fields = st.tuples(
    st.lists(indices, max_size=3),
    st.lists(st.tuples(st.lists(fractions, max_size=3), fractions, texts), max_size=3),
)
vectors = st.dictionaries(indices, fractions, max_size=3)
solve_fields = st.tuples(
    st.sampled_from(["unique", "underdetermined", "inconsistent"]),
    st.none() | vectors,
    st.lists(vectors, max_size=2),
    st.lists(texts, max_size=2),
)
checks = st.lists(st.fixed_dictionaries(
    {"name": texts, "expected": texts, "got": texts, "pass": st.booleans()}), max_size=3)
report_fields = st.tuples(
    texts,
    st.dictionaries(texts, st.none() | small | texts | st.lists(texts, max_size=2),
                    max_size=3),
    st.none() | texts | st.dictionaries(texts, texts | st.lists(texts), max_size=2),
    checks,
    st.none() | st.floats(0, 1e4),
)


def pairs(strategy):
    """Two sets of fields: the second is the first again, or a fresh draw."""
    return strategy.flatmap(lambda a: st.tuples(st.just(a), st.just(a) | strategy))


# -- the frozen three ------------------------------------------------------------


@settings(max_examples=60)
@given(pairs(sing_fields))
def test_sing_type_matches_reference(fields_pair):
    a, b = fields_pair
    new, ref = tpcore.SingType(*a), SingType(*a)
    new_b, ref_b = tpcore.SingType(*b), SingType(*b)
    assert_same(new, ref, ("name", "kappa", "ell"))
    assert_same_equality(new, ref, new_b, ref_b)
    assert_same_hash(new, ref, new_b, ref_b)
    assert_frozen(new, ref, ("name", "kappa", "ell"), 0)
    assert tpcore.SingType(*a) == tpcore.SingType(name=a[0], kappa=a[1], ell=a[2])
    # the one intended difference: a NamedTuple is also its tuple of fields
    assert new == a and tuple(new) == a and ref != a
    name, kappa, ell = new
    assert (name, kappa, ell) == a


@settings(max_examples=100)
@given(pairs(multi_fields))
def test_multi_sing_type_matches_reference(fields_pair):
    a, b = fields_pair
    new, error = build(tpcore.MultiSingType, *a)
    ref, ref_error = build(MultiSingType, *a)
    assert error == ref_error
    if ref is None:
        return
    fields = ("entries", "kappa", "db", "r", "ell_total", "aut_order",
              "aut_order_rest", "key")
    assert_same(new, ref, fields)
    assert str(new) == str(ref)
    assert_frozen(new, ref, ("entries", "kappa", "db"), ("A0",))
    new_b, _ = build(tpcore.MultiSingType, *b)
    ref_b, _ = build(MultiSingType, *b)
    if ref_b is not None:
        assert_same_equality(new, ref, new_b, ref_b)
        assert_same_hash(new, ref, new_b, ref_b)
    # the store is not part of the value
    entries, kappa, db = a
    other_db = _DB if db is None else None
    if "B" not in entries:
        same = tpcore.MultiSingType(entries, kappa, other_db)
        assert same == new and hash(same) == hash(new) and repr(same) == repr(new)
    assert tpcore.MultiSingType(entries, kappa, db=db) == tpcore.MultiSingType(
        kappa=kappa, entries=entries, db=db)


def test_multi_sing_type_refusals_match_reference():
    for args in [((), 1), (("E8",), 1), (("A0",), -1), (("A1",), 2), (("B",), 1)]:
        with pytest.raises(SingTypeError) as new:
            tpcore.MultiSingType(*args)
        with pytest.raises(SingTypeError) as ref:
            MultiSingType(*args)
        assert str(new.value) == str(ref.value)


@settings(max_examples=100)
@given(pairs(curve_fields))
def test_curve_param_matches_reference(fields_pair):
    a, b = fields_pair
    new, error = build(oracle.CurveParam, *a)
    ref, ref_error = build(CurveParam, *a)
    assert error == ref_error
    if ref is None:
        assert error[0] is OracleError
        return
    assert_same(new, ref, ("x", "y", "degree"))
    assert new.is_immersive() == ref.is_immersive()
    assert_frozen(new, ref, ("x", "y"), poly([0, 1]))
    new_b, _ = build(oracle.CurveParam, *b)
    ref_b, _ = build(CurveParam, *b)
    if ref_b is not None:
        assert_same_equality(new, ref, new_b, ref_b)
        assert_same_hash(new, ref, new_b, ref_b)
    assert oracle.CurveParam(*a) == oracle.CurveParam(y=a[1], x=a[0])
    # the intended difference: a NamedTuple is also its tuple of fields
    assert new == a and tuple(new) == a and ref != a
    x, y = new
    assert (x, y) == a


def test_curve_param_parse_matches_reference():
    for text in ["t^2, t^3", "t, 1/2*t^2 - t", "t^3 - t, t^2"]:
        new, ref = oracle.CurveParam.parse(text), CurveParam.parse(text)
        assert type(new) is oracle.CurveParam
        assert_same(new, ref, ("x", "y", "degree"))
    for text in ["1, 2", "t", "t^5, t"]:
        new, error = build(oracle.CurveParam.parse, text, 3)
        ref, ref_error = build(CurveParam.parse, text, 3)
        assert new is ref is None and error == ref_error


# -- the mutable three -----------------------------------------------------------


@settings(max_examples=60)
@given(pairs(system_fields))
def test_linear_system_matches_reference(fields_pair):
    a, b = fields_pair
    new, ref = interp.LinearSystem(*a), LinearSystem(*a)
    assert_same(new, ref, ("unknowns", "rows"))
    assert new.describe_unknowns() == ref.describe_unknowns()
    assert_same_equality(new, ref, interp.LinearSystem(*b), LinearSystem(*b))
    assert_unhashable(new, ref)
    assert_same(interp.LinearSystem(a[0]), LinearSystem(a[0]), ("unknowns", "rows"))
    # the intended difference: a SimpleNamespace equals one with the same fields
    plain = SimpleNamespace(unknowns=a[0], rows=a[1])
    assert new == plain and ref != plain


def test_linear_system_default_rows_are_per_instance():
    first, second = interp.LinearSystem([(1,)]), interp.LinearSystem(unknowns=[(1,)])
    first.rows.append(([Fraction(1)], Fraction(1), "x"))
    assert second.rows == [] and first != second


@settings(max_examples=60)
@given(pairs(solve_fields))
def test_solve_result_matches_reference(fields_pair):
    a, b = fields_pair
    new, ref = interp.SolveResult(*a), SolveResult(*a)
    fields = ("status", "solution", "kernel", "violated")
    assert_same(new, ref, fields)
    new_residual, error = build(new.residual)
    ref_residual, ref_error = build(ref.residual)
    assert (new_residual, error) == (ref_residual, ref_error)
    assert_same_equality(new, ref, interp.SolveResult(*b), SolveResult(*b))
    assert_unhashable(new, ref)
    assert_same(interp.SolveResult(a[0]), SolveResult(a[0]), fields)
    assert_same(interp.SolveResult(a[0], violated=a[3]), SolveResult(a[0], violated=a[3]),
                fields)
    plain = SimpleNamespace(**dict(zip(fields, a)))
    assert new == plain and ref != plain


def test_solve_result_default_lists_are_per_instance():
    first, second = interp.SolveResult("inconsistent"), interp.SolveResult("inconsistent")
    first.kernel.append({})
    first.violated.append("x")
    assert (second.kernel, second.violated) == ([], [])


def to_json(report: dict) -> str:
    """The command line's --json form of a report."""
    return json.dumps(report, indent=2, default=str)


@settings(max_examples=60)
@given(report_fields)
def test_report_matches_reference(fields):
    ref = Report(*fields)
    names = ("command", "inputs", "result", "checks", "elapsed_ms")
    new = dict(zip(names, fields))
    assert [new[f] for f in names] == [getattr(ref, f) for f in names]
    assert to_json(new) == ref.to_json()
    assert list(json.loads(to_json(new))) == list(names)
    assert cli.report_text(new) == ref.to_text()
    assert all(c["pass"] for c in new["checks"]) == ref.all_pass
    bare_new = {**dict(zip(names[:2], fields)), "result": None, "checks": [],
                "elapsed_ms": None}  # as cli.main starts every report
    bare_ref = Report(*fields[:2])
    assert to_json(bare_new) == bare_ref.to_json()
    assert cli.report_text(bare_new) == bare_ref.to_text()


@settings(max_examples=30)
@given(curve_fields, system_fields, solve_fields)
def test_records_copy_and_pickle(curve, system, solve):
    records = [interp.LinearSystem(*system), interp.SolveResult(*solve)]
    if poly_deg(curve[0]) >= 1 or poly_deg(curve[1]) >= 1:
        records.append(oracle.CurveParam(*curve))
    for record in records:
        for twin in (copy.copy(record), copy.deepcopy(record),
                     pickle.loads(pickle.dumps(record))):
            assert type(twin) is type(record) and twin == record


# -- what the plain classes are for ----------------------------------------------


@pytest.mark.parametrize("module", ["tpcalc", "tpcalc.cli"])
def test_import_loads_neither_dataclasses_nor_inspect(module):
    """Compared on the modules the import adds, so that a site which preloads
    either one cannot fail the test."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys; before = set(sys.modules); import " + module + "; "
            "print(*sorted(set(sys.modules) - before))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    added = set(out.split())
    assert module in added
    assert not added & {"dataclasses", "inspect"}
