import math
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpcalc import tpcore
from tpcalc.algebra import render_class
from tpcalc.maps import get_model
from tpcalc.symbolic import (SymbolicExpr, _push, c, c_monomial, canon_index, fs, parse_expr,
                             render_expr, s, sify)
from tpcalc.tpcore import (
    _partition_sum,
    InconsistentExtraction,
    MissingResidual,
    MultiSingType,
    ResidualDB,
    SingTypeError,
    bell_number,
    count_points,
    default_db,
    evaluate,
    expand_source,
    expand_target,
    extract_residual,
    get_sing_type,
    multi_type,
    residual_a0_family,
    residual_line,
    set_partitions,
    sing_ell,
    thom_porteous,
    verify_generating_series,
)


@pytest.fixture
def db():
    return default_db()


# -- reference implementations: the set-partition and permutation sums ---------


def _block_names(t, block):
    return tuple(sorted(t.entries[i - 1] for i in block))


def oracle_expand_target(t, db):
    total = SymbolicExpr.zero()
    for partition in set_partitions(t.r):
        term = SymbolicExpr.constant(1)
        for block in partition:
            term = term * _push(db.get(_block_names(t, block), t.kappa), "s")
        total = total + term
    return total


def oracle_expand_source(t, db):
    total = SymbolicExpr.zero()
    for partition in set_partitions(t.r):
        first = next(block for block in partition if 1 in block)
        term = db.get(_block_names(t, first), t.kappa)
        for block in partition:
            if block is first:
                continue
            term = term * _push(db.get(_block_names(t, block), t.kappa), "fs")
        total = total + term
    return total


def oracle_proper_part(t, db, side):
    total = SymbolicExpr.zero()
    for partition in set_partitions(t.r):
        if len(partition) == 1:
            continue
        if side == "target":
            term = SymbolicExpr.constant(1)
            for block in partition:
                term = term * _push(db.get(_block_names(t, block), t.kappa), "s")
        else:
            first = next(block for block in partition if 1 in block)
            term = db.get(_block_names(t, first), t.kappa)
            for block in partition:
                if block is first:
                    continue
                term = term * _push(db.get(_block_names(t, block), t.kappa), "fs")
        total = total + term
    return total


def proper_part(t, db, side):
    """The packed proper part of an expansion, decoded."""
    return SymbolicExpr._from_packed(*_partition_sum(t, db, side, proper=True))


def reference_extract(t, known, side, db):
    """The retired extraction route: `known` minus the decoded proper part on
    tuple keys, then the leftover checked in the same order."""
    want = t.ell_total if side == "target" else t.ell_total - t.kappa
    if not known.is_homogeneous(want, t.kappa):
        raise InconsistentExtraction(f"known expansion is not homogeneous of degree {want}")
    den, delta = (known - proper_part(t, db, side))._ints
    nums = {}
    for mono, n in delta.items():
        if side == "source" and any(kind != "c" for (kind, _), _e in mono):
            raise InconsistentExtraction(
                "no residual reproduces the given source expansion: "
                f"leftover non-Chern term {render_expr(SymbolicExpr({mono: 1}))!r}"
            )
        if side == "target":
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


def oracle_porteous(kappa, k):
    total = SymbolicExpr.zero()
    for perm in permutations(range(k)):
        sign = 1
        for a in range(k):
            for b in range(a + 1, k):
                if perm[a] > perm[b]:
                    sign = -sign
        term = SymbolicExpr.constant(sign)
        for i in range(k):
            j = perm[i]
            term = term * c(kappa + k + (j + 1) - (i + 1))
        total = total + term
    return total


def _chern_indices(degree, top=None):
    """Every exponent vector I with sum j * i_j = degree, slots 1..top."""
    top = degree if top is None else top
    if top == 0:
        return [()] if degree == 0 else []
    out = []
    for e in range(degree // top + 1):
        for rest in _chern_indices(degree - e * top, top - 1):
            out.append(rest + (0,) * (top - 1 - len(rest)) + (e,))
    return out


def seeded_db(names, kappa, seed):
    """A store holding a dense seeded integer residual for every nonempty
    sub-multiset of `names`: every Chern monomial of the degree gets a
    nonzero coefficient."""
    rng = random.Random(seed)
    db = ResidualDB()
    counts = Counter(names)
    kinds = sorted(counts)
    for combo in product(*(range(counts[n] + 1) for n in kinds)):
        sub = tuple(n for n, k in zip(kinds, combo) for _ in range(k))
        if not sub:
            continue
        R = SymbolicExpr.zero()
        for I in _chern_indices(MultiSingType(sub, kappa).ell_total - kappa):
            R = R + c_monomial(I) * (rng.choice([-1, 1]) * rng.randint(1, 9))
        db.insert(sub, kappa, R)
    return db


class TestRegistry:
    def test_immersion_ell_tracks_kappa(self):
        assert sing_ell("A0", 1) == 1
        assert sing_ell("A0", 3) == 3
        assert sing_ell("A0", 0) == 0

    def test_immersion_negative_kappa_rejected(self):
        with pytest.raises(SingTypeError):
            sing_ell("A0", -1)

    def test_crosscap_and_fold(self):
        assert sing_ell("A1", 1) == 3
        assert sing_ell("A1", -1) == 1

    def test_unknown_requires_registration(self):
        db = ResidualDB()
        with pytest.raises(SingTypeError):
            sing_ell("A2", 1, db)
        db.declare("A2", 1, 4)
        assert sing_ell("A2", 1, db) == 4
        with pytest.raises(SingTypeError):
            sing_ell("A2", 1)


class TestDeclaredTypes:
    def test_a_declaration_stays_in_its_store(self):
        before = default_db().dump()
        db, other = default_db(), default_db()
        db.declare("A2", 1, 4)
        assert multi_type("A2,A0", 1, db).ell_total == 5
        for store in (default_db(), other, None):
            with pytest.raises(SingTypeError, match="unknown singularity type 'A2'"):
                multi_type("A2", 1, store)
        assert default_db().dump() == other.dump() == before

    def test_copy_and_loads_carry_declarations(self):
        db = ResidualDB()
        db.declare("A2", -1, 2)
        for carried in (db.copy(), ResidualDB.loads("", base=db)):
            assert sing_ell("A2", -1, carried) == 2
        merged = ResidualDB.loads("types=[A2] kappa=-1 R= c1^3 - c3\n", base=db)
        assert merged.get(("A2",), -1) == c(1) ** 3 - c(3)
        db.copy().declare("B1", 1, 3)
        with pytest.raises(SingTypeError):
            sing_ell("B1", 1, db)

    def test_dump_loads_round_trip_with_types(self):
        db = default_db()
        db.declare("B1", 1, 3)
        db.declare("A2", -1, 2)
        db.insert(("B1", "A0"), 1, -c(1) ** 3 + c(3))
        text = db.dump()
        assert text.splitlines()[:2] == ["type=A2 kappa=-1 ell=2", "type=B1 kappa=1 ell=3"]
        assert "types=[A0,B1] kappa=1 R= -c1^3 + c3" in text.splitlines()
        assert ResidualDB.loads(text).dump() == text
        assert ResidualDB.loads(text, base=db).dump() == text  # a dump merges over its base

    @pytest.mark.parametrize("kappa", [1, True])
    def test_declare_dump_loads_round_trip(self, kappa):
        db = ResidualDB()
        db.declare("B1", kappa, 3)
        db.insert(("B1",), kappa, c(2))
        text = db.dump()
        assert text == "type=B1 kappa=1 ell=3\ntypes=[B1] kappa=1 R= c2\n"
        assert ResidualDB.loads(text).dump() == text

    def test_redeclaring_a_known_type_with_its_ell_is_a_no_op(self):
        db = ResidualDB()
        db.declare("A1", 1, 3)
        db.declare("A2", 1, 4)
        db.declare("A2", 1, 4)
        assert db.dump() == "type=A2 kappa=1 ell=4\n"

    @pytest.mark.parametrize("name, kappa, ell, match", [
        ("A0", 1, 1, "named 'A0'"),
        ("A-2", 1, 3, "named 'A-2'"),
        ("", 1, 3, "named ''"),
        ("A2", 2, 1, "below max"),  # a residual of degree ell - kappa < 0
        ("A2", -2, -1, "below max"),
        ("A1", 1, 4, "already has ell=3"),
        ("A1", -1, 2, "already has ell=1"),
        ("A2", 1, 5, "already has ell=4"),
    ])
    def test_declare_refuses(self, name, kappa, ell, match):
        db = ResidualDB()
        db.declare("A2", 1, 4)
        with pytest.raises(SingTypeError, match=match):
            db.declare(name, kappa, ell)
        assert db.dump() == "type=A2 kappa=1 ell=4\n"

    def test_the_type_table_is_not_part_of_a_type(self):
        db = ResidualDB()
        db.declare("A2", 1, 4)
        assert multi_type("A1,A0", 1, db) == multi_type("A1,A0", 1)
        assert hash(multi_type("A1,A0", 1, db)) == hash(multi_type("A1,A0", 1))

    def test_generating_series_resolves_through_the_store(self, db):
        text = "type=B1 kappa=-1 ell=1\n" + "".join(
            residual_line(("B1",) * len(k), -1, db.get(k, -1)) + "\n"
            for k, kappa in db.keys() if kappa == -1)
        renamed = ResidualDB.loads(text)
        assert verify_generating_series([get_sing_type("B1", -1, renamed)], 3, renamed)


class TestMultiSingType:
    def test_aut_orders(self):
        t = MultiSingType(("A0", "A0", "A0", "A1", "A1"), 1)
        assert t.aut_order == 12
        assert t.aut_order_rest == 4
        assert t.aut_order // t.aut_order_rest == 3  # entries of the lead type

    def test_ell_total(self):
        assert multi_type("A1,A1,A1", -1).ell_total == 3
        assert multi_type("A0,A1", 1).ell_total == 4

    def test_key_is_sorted(self):
        assert multi_type("A1,A0", 1).key == ("A0", "A1")

    def test_empty_rejected(self):
        with pytest.raises(SingTypeError):
            MultiSingType((), 1)

    @pytest.mark.parametrize("spec", ["A0,,A0", "A0,", ",A0", "A0, ,A1", ""])
    def test_empty_entry_in_spec_rejected(self, spec):
        with pytest.raises(SingTypeError, match=f"empty entry in multi-singularity type {spec!r}"):
            multi_type(spec, 1)


class TestSetPartitions:
    @pytest.mark.parametrize("r,count", [(1, 1), (2, 2), (3, 5), (4, 15)])
    def test_counts(self, r, count):
        assert len(set_partitions(r)) == count

    def test_counts_match_bell_triangle(self):
        for r in range(1, 8):
            assert len(set_partitions(r)) == bell_number(r)

    def test_blocks_partition_the_set(self):
        for p in set_partitions(4):
            seen = [i for block in p for i in block]
            assert sorted(seen) == [1, 2, 3, 4]

    def test_deterministic(self):
        assert set_partitions(3) == set_partitions(3)

    def test_bad_argument(self):
        with pytest.raises(ValueError):
            set_partitions(0)


class TestResidualDB:
    def test_a0_family_kappa_one(self):
        assert residual_a0_family(1, 1) == 1
        assert residual_a0_family(2, 1) == -c(1)
        assert residual_a0_family(3, 1) == 2 * (c(1) ** 2 + c(2))

    def test_a0_family_kappa_two(self):
        # sum over i: 2^i c_{k-i-1} c_{k+i+1} with c_0 = 1
        assert residual_a0_family(2, 2) == -c(2)
        assert residual_a0_family(3, 2) == 2 * (c(2) ** 2 + c(1) * c(3) + 2 * c(4))

    def test_a0_family_bad_kappa(self):
        with pytest.raises(SingTypeError):
            residual_a0_family(2, 0)

    def test_on_demand_generation(self, db):
        assert db.get(("A0", "A0"), 3) == -c(3)

    def test_lookup_does_not_store(self, db):
        keys, text = db.keys(), db.dump()
        db.get(("A0", "A0"), 3)
        assert db.keys() == keys and db.dump() == text

    def test_missing_reports_key(self, db):
        with pytest.raises(MissingResidual) as err:
            db.get(("A1", "A1"), 1)
        assert "A1" in str(err.value) and "kappa=1" in str(err.value)

    def test_insert_requires_chern_only(self, db):
        with pytest.raises(SingTypeError):
            db.insert(("A0",), 1, s())

    def test_insert_requires_homogeneous(self, db):
        with pytest.raises(SingTypeError):
            db.insert(("A0", "A0"), 1, c(1) + c(2))

    def test_dump_loads_round_trip(self, db):
        text = db.dump()
        again = ResidualDB.loads(text)
        assert again.keys() == db.keys()
        for names, kappa in db.keys():
            assert again.get(names, kappa) == db.get(names, kappa)

    def test_dump_is_one_residual_line_per_entry(self, db):
        lines = db.dump().splitlines()
        assert sorted(lines) == sorted(residual_line(k, kappa, db.get(k, kappa))
                                       for k, kappa in db.keys())
        assert residual_line(("A1", "A0"), 1, -2 * c(1) * c(2) - 2 * c(3)) == (
            "types=[A0,A1] kappa=1 R= -2*c1*c2 - 2*c3")
        assert ResidualDB().dump() == "\n"

    def test_loads_with_base_override(self, db):
        override = "types=[A1] kappa=1 R= 5*c2\n# comment\n"
        merged = ResidualDB.loads(override, base=db)
        assert merged.get(("A1",), 1) == 5 * c(2)
        assert merged.get(("A0", "A1"), 1) == db.get(("A0", "A1"), 1)

    def test_loads_bad_line(self):
        with pytest.raises(ValueError):
            ResidualDB.loads("types=A0 kappa=1 R= 1")


class TestExpandTarget:
    def test_double_point(self, db):
        assert expand_target(multi_type("A0,A0", 1), db) == s() ** 2 - s(1)

    def test_triple_point(self, db):
        expected = s() ** 3 - 3 * s() * s(1) + 2 * s(2) + 2 * s(0, 1)
        assert expand_target(multi_type("A0,A0,A0", 1), db) == expected

    def test_fold_curve(self, db):
        assert expand_target(multi_type("A1", -1), db) == s(2) - s(0, 1)

    def test_missing_entry(self, db):
        with pytest.raises(MissingResidual):
            expand_target(multi_type("A1,A1", 1), db)

    def test_summand_count_is_bell(self, db):
        # with three distinct pushed residuals no monomials collide
        t = multi_type("A0,A0,A0", 1)
        raw_terms = len(expand_target(t, db).terms)
        assert raw_terms <= len(set_partitions(3)) == bell_number(3)


class TestAgainstPartitionOracle:
    # at most two A1 entries: an A1 block raises the residual degree by 3 and
    # the reference enumerates all Bell(r) partitions of dense residuals
    @settings(max_examples=20, deadline=None)
    @given(st.tuples(st.integers(0, 2), st.integers(0, 6))
           .filter(lambda counts: 1 <= sum(counts) <= 6)
           .flatmap(lambda counts: st.permutations(["A1"] * counts[0] + ["A0"] * counts[1])),
           st.integers(0, 2 ** 16))
    def test_mixed_tuples(self, entries, seed):
        t = MultiSingType(tuple(entries), 1)
        db = seeded_db(entries, 1, seed)
        assert render_expr(expand_target(t, db)) == render_expr(oracle_expand_target(t, db))
        assert render_expr(expand_source(t, db)) == render_expr(oracle_expand_source(t, db))
        for side in ("target", "source"):
            assert (render_expr(proper_part(t, db, side))
                    == render_expr(oracle_proper_part(t, db, side)))

    @settings(max_examples=8, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2 ** 16))
    def test_fold_family(self, r, seed):
        t = MultiSingType(("A1",) * r, -1)
        db = seeded_db(t.entries, -1, seed)
        assert render_expr(expand_target(t, db)) == render_expr(oracle_expand_target(t, db))
        assert render_expr(expand_source(t, db)) == render_expr(oracle_expand_source(t, db))
        for side in ("target", "source"):
            assert (render_expr(proper_part(t, db, side))
                    == render_expr(oracle_proper_part(t, db, side)))

    def test_eight_immersion_points_push_forward(self):
        t = MultiSingType(("A0",) * 8, 1)
        db = seeded_db(t.entries, 1, 8)
        assert sify(expand_source(t, db)) == expand_target(t, db)

    @pytest.mark.parametrize("kappa", [-1, 0, 1, 2])
    @pytest.mark.parametrize("k", range(1, 7))
    def test_porteous(self, k, kappa):
        assert render_expr(thom_porteous(kappa, k)) == render_expr(oracle_porteous(kappa, k))


def fraction_db(names, kappa, seed):
    """seeded_db with every coefficient divided by a seeded denominator from
    1 to 6, so the entries' denominators differ and their lcm is not 1."""
    rng = random.Random(f"denominators:{seed}")
    base = seeded_db(names, kappa, seed)
    db = ResidualDB()
    for key, k in base.keys():
        R = base.get(key, k)
        db.insert(key, k, SymbolicExpr({m: x / rng.randint(1, 6) for m, x in R.terms.items()}))
    return db


class ReadLog(ResidualDB):
    """A store that records every key it is asked for."""

    def __init__(self, base):
        super().__init__()
        self._store = dict(base._store)
        self.reads = []

    def get(self, names, kappa):
        self.reads.append((tuple(sorted(names)), kappa))
        return super().get(names, kappa)


_MIXED = (st.tuples(st.integers(0, 2), st.integers(0, 5))
          .filter(lambda counts: 1 <= sum(counts) <= 5)
          .flatmap(lambda counts: st.permutations(["A1"] * counts[0] + ["A0"] * counts[1])))


class TestFractionResiduals:
    """The packed kernel scales block values by powers of the lcm of the
    residuals' denominators; the partition oracle multiplies Fractions."""

    def check(self, t, db):
        assert render_expr(expand_target(t, db)) == render_expr(oracle_expand_target(t, db))
        assert render_expr(expand_source(t, db)) == render_expr(oracle_expand_source(t, db))
        for side in ("target", "source"):
            want = render_expr(oracle_proper_part(t, db, side))
            log = ReadLog(db)
            assert render_expr(proper_part(t, log, side)) == want
            assert (t.key, t.kappa) not in log.reads  # extraction removes that entry
            log.remove(t.key, t.kappa)
            assert render_expr(proper_part(t, log, side)) == want

    @settings(max_examples=15, deadline=None)
    @given(_MIXED, st.integers(0, 2 ** 16))
    def test_mixed_tuples(self, entries, seed):
        t = MultiSingType(tuple(entries), 1)
        self.check(t, fraction_db(entries, 1, seed))

    @settings(max_examples=8, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 2 ** 16))
    def test_fold_family_kappa_minus_one(self, r, seed):
        # s_0 has degree -1 here
        t = MultiSingType(("A1",) * r, -1)
        self.check(t, fraction_db(t.entries, -1, seed))

    def test_denominators_reach_the_output(self):
        t = MultiSingType(("A0", "A0"), 1)
        db = ResidualDB()
        db.insert(("A0",), 1, SymbolicExpr.constant(Fraction(1, 2)))
        db.insert(("A0", "A0"), 1, -c(1) / 3)
        assert render_expr(expand_target(t, db)) == "1/4*s_0^2 - 1/3*s_1"
        assert render_expr(expand_source(t, db)) == "1/4*fs_0 - 1/3*c1"


@pytest.mark.parametrize("kappa", [1, 2, 3, 7, 40])
def test_a0_family_matches_the_termwise_sum(kappa):
    acc = c(kappa) ** 2
    for i in range(kappa):
        acc = acc + (2 ** i) * c(kappa - i - 1) * c(kappa + i + 1)
    assert render_expr(residual_a0_family(3, kappa)) == render_expr(2 * acc)


class TestExpandSource:
    @pytest.mark.parametrize("kappa", [1, 2, 3])
    def test_double_point_any_kappa(self, kappa, db):
        t = multi_type("A0,A0", kappa)
        assert expand_source(t, db) == fs() - c(kappa)

    def test_mixed_pair(self, db):
        t = multi_type("A0,A1", 1)
        assert expand_source(t, db) == fs(0, 1) - 2 * c(1) * c(2) - 2 * c(3)

    def test_order_matters_for_source(self, db):
        t = multi_type("A1,A0", 1)
        assert expand_source(t, db) == c(2) * fs() - 2 * c(1) * c(2) - 2 * c(3)

    def test_triple_normalized_matches_table(self, db):
        t = multi_type("A0,A0,A0", 1)
        expected = (fs() ** 2 - fs(1) - 2 * fs() * c(1)
                    + 2 * c(1) ** 2 + 2 * c(2)) / 2
        assert expand_source(t, db) / t.aut_order_rest == expected


class TestHomogeneityAndPushforward:
    def test_all_db_types(self, db):
        for names, kappa in db.keys():
            t = MultiSingType(names, kappa)
            target = expand_target(t, db)
            source = expand_source(t, db)
            assert target.is_homogeneous(t.ell_total, kappa)
            assert source.is_homogeneous(t.ell_total - kappa, kappa)
            assert sify(source) == target

    def test_pushforward_identity_permuted_entries(self, db):
        # the triple needs an A0,A0,A1 residual; a synthetic one suffices
        scratch = db.copy()
        scratch.insert(("A0", "A0", "A1"), 1, 4 * c(1) ** 4 - c(2) * c(2))
        for spec in ["A0,A1", "A1,A0", "A0,A0,A1", "A0,A1,A0", "A1,A0,A0"]:
            t = multi_type(spec, 1)
            assert sify(expand_source(t, scratch)) == expand_target(t, scratch)


class TestExtractResidual:
    def test_round_trip_every_db_entry(self, db):
        for names, kappa in db.keys():
            t = MultiSingType(names, kappa)
            for side in ("source", "target"):
                known = (expand_target(t, db) if side == "target"
                         else expand_source(t, db))
                scratch = db.copy()
                scratch.remove(names, kappa)
                got = extract_residual(t, known, side, scratch)
                assert got == db.get(names, kappa)
                assert scratch.contains(names, kappa)

    def test_table_row_pair_order_independent(self, db):
        known_a = parse_expr("fs_01 - 2*c1*c2 - 2*c3")
        known_b = parse_expr("fs_0*c2 - 2*c1*c2 - 2*c3")
        ra = extract_residual(multi_type("A0,A1", 1), known_a, "source", db.copy())
        rb = extract_residual(multi_type("A1,A0", 1), known_b, "source", db.copy())
        assert ra == rb == -2 * c(1) * c(2) - 2 * c(3)

    def test_triple_point_from_nested_formula(self, db):
        # the residual hiding inside the classical triple-point expression
        t = multi_type("A0,A0,A0", 1)
        known = expand_source(t, db)
        scratch = db.copy()
        scratch.remove(t.key, 1)
        assert extract_residual(t, known, "source", scratch) == 2 * (c(1) ** 2 + c(2))

    def test_degree_mismatch(self, db):
        with pytest.raises(InconsistentExtraction):
            extract_residual(multi_type("A0,A0", 1), s() * s(1), "target", db.copy())

    def test_inconsistent_target(self, db):
        bad = 2 * s() ** 2 - s(1)  # leftover s_0^2 is not a pushed residual
        with pytest.raises(InconsistentExtraction):
            extract_residual(multi_type("A0,A0", 1), bad, "target", db.copy())

    def test_inconsistent_source(self, db):
        bad = fs() ** 2  # cannot be absorbed into a Chern polynomial
        with pytest.raises(InconsistentExtraction):
            extract_residual(multi_type("A0,A0", 1), bad, "source", db.copy())


def _outcome(extract, t, known, side, db):
    """('residual', its numerators in order) or ('inconsistent', the message)."""
    try:
        R = extract(t, known, side, db.copy())
    except InconsistentExtraction as err:
        return "inconsistent", str(err)
    return "residual", R._ints[0], list(R._ints[1].items())


def _random_index(rng, d):
    """An index of c-degree d: c_1^a * c_(d-a) for a random a, so its last slot
    may be one the residuals never reach."""
    I = [0] * max(d, 1)
    a = rng.randint(0, d)
    I[0] += a
    if d > a:
        I[d - a - 1] += 1
    return canon_index(I)


def _stray_terms(rng, t, side, count):
    """`count` monomials of the degree `known` has at kappa = 1: on the target
    side s_I * s_J (several s-symbols) or one s_J, on the source side
    fs_I * c^K (a non-Chern term) or one c^K; the latter of each pair may still
    extract.  Their indices may be on symbols the proper part never forms."""
    want = t.ell_total - (side == "source")
    out = []
    for _ in range(count):
        if side == "target" and want >= 2 and rng.random() < 0.7:
            a = rng.randint(0, want - 2)
            mono = ((("s", _random_index(rng, a)), 1), (("s", _random_index(rng, want - 2 - a)), 1))
        elif side == "target":
            mono = ((("s", _random_index(rng, want - 1)), 1),)
        elif want >= 1 and rng.random() < 0.7:
            a = rng.randint(0, want - 1)
            K = _random_index(rng, want - 1 - a)
            mono = ((("fs", _random_index(rng, a)), 1),
                    *((("c", j), e) for j, e in enumerate(K, start=1) if e))
        else:
            mono = tuple((("c", j), e) for j, e in enumerate(_random_index(rng, want), start=1)
                         if e)
        out.append((mono, rng.choice([-1, 1]) * Fraction(rng.randint(1, 9), rng.randint(1, 4))))
    return out


class TestPackedExtraction:
    """`extract_residual` cancels on the packed keys of the proper part; the
    retired route subtracted the decoded proper part on tuple keys."""

    @settings(max_examples=20, deadline=None)
    @given(_MIXED, st.integers(0, 2 ** 16), st.booleans())
    def test_the_residual_matches_the_reference(self, entries, seed, fractions):
        t = MultiSingType(tuple(entries), 1)
        db = (fraction_db if fractions else seeded_db)(entries, 1, seed)
        scratch = db.copy()
        scratch.remove(t.key, t.kappa)
        for side, expand in (("target", expand_target), ("source", expand_source)):
            known = expand(t, db)
            got = _outcome(extract_residual, t, known, side, scratch)
            assert got == _outcome(reference_extract, t, known, side, scratch)
            assert got[0] == "residual" and (got[1], dict(got[2])) == db.get(t.key, 1)._ints

    @settings(max_examples=30, deadline=None)
    @given(_MIXED, st.integers(0, 2 ** 16), st.booleans(), st.sampled_from(["target", "source"]))
    def test_the_inconsistent_message_matches_the_reference(self, entries, seed, fractions,
                                                            side):
        """Stray terms on symbols the sum does and does not form, put before,
        among and after the expansion's terms, some of which are dropped, so
        the first leftover may come from `known` or from the proper part."""
        rng = random.Random(seed)
        t = MultiSingType(tuple(entries), 1)
        db = (fraction_db if fractions else seeded_db)(entries, 1, seed)
        scratch = db.copy()
        scratch.remove(t.key, t.kappa)
        known = list((expand_target if side == "target" else expand_source)(t, db).terms.items())
        known = [term for term in known if rng.random() < 0.9]
        for term in _stray_terms(rng, t, side, rng.randint(0, 3)):
            known.insert(rng.randint(0, len(known)), term)
        known = SymbolicExpr(dict(known))
        got = _outcome(extract_residual, t, known, side, scratch)
        assert got == _outcome(reference_extract, t, known, side, scratch)

    @pytest.mark.parametrize("side", ["target", "source"])
    def test_a_huge_exponent_is_a_leftover_at_once(self, db, side):
        """s_0^(10^50) * s_(N), or its fs twin, of the expansion's degree."""
        t = multi_type("A1,A1", -1)  # s_0 and fs_0 have degree -1
        want = t.ell_total if side == "target" else t.ell_total - t.kappa
        huge = 10 ** 50
        kind = "s" if side == "target" else "fs"
        mono = (((kind, ()), huge), ((kind, (huge + want - t.kappa,)), 1))
        expand = expand_target if side == "target" else expand_source
        known = expand(t, db) + SymbolicExpr({mono: 3})
        scratch = db.copy()
        scratch.remove(t.key, t.kappa)
        start = time.perf_counter()
        got = _outcome(extract_residual, t, known, side, scratch)
        assert time.perf_counter() - start < 1.0
        assert got[0] == "inconsistent" and str(huge) in got[1]
        assert got == _outcome(reference_extract, t, known, side, scratch)


class TestThomPorteous:
    def test_shipped_cases(self):
        assert thom_porteous(1, 1) == c(2)
        assert thom_porteous(0, 1) == c(1)
        assert thom_porteous(-1, 2) == c(1) ** 2 - c(2)

    def test_two_by_two(self):
        assert thom_porteous(1, 2) == c(3) ** 2 - c(2) * c(4)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            thom_porteous(1, 0)


class TestEvaluate:
    def test_pinch_points(self, db):
        got = evaluate(c(2), get_model("veronese-p3"))
        assert render_class(got) == "6*h^2"

    def test_double_point_class_on_veronese(self, db):
        f = get_model("veronese-p3")
        got = evaluate(fs() - c(1), f)
        assert got == 3 * f.source.ambient.gen("h")

    def test_discriminant(self, db):
        f = get_model("pencil:4")
        got = evaluate(s(2) - s(0, 1), f)
        assert got == 27 * f.target_ring.gen("H")

    def test_side_must_match_a_non_scalar_expression(self):
        f = get_model("veronese-p3")  # both rings name their generator h
        for expr in (c(2), fs() + 1):  # so counts, which integrate over Y, refuse them
            with pytest.raises(ValueError, match="source-side expression"):
                evaluate(expr, f, side="target")
        with pytest.raises(ValueError, match="target-side expression"):
            evaluate(s(), f, side="source")
        assert evaluate(c(2), f, side="source") == evaluate(c(2), f)
        assert evaluate(SymbolicExpr.constant(2), f, side="target").ring == f.target_ring

    @pytest.mark.parametrize("text", ["c1^3", "c3", "fs_1*c1", "s_0^4", "s_2*s_0",
                                      "c1^1500", "fs_(1500)", "s_(1500)", "c99999999"])
    def test_a_monomial_above_the_top_degree_is_zero(self, text):
        f = get_model("veronese-p3")  # dim X = 2, dim Y = 3
        expr = parse_expr(text)
        assert evaluate(expr, f).is_zero()
        assert evaluate(expr + 1, f) == evaluate(SymbolicExpr.constant(1), f, side=expr.side)

    def test_target_expression_lands_in_target_ring(self, db):
        f = get_model("veronese-p3")
        got = evaluate(expand_target(multi_type("A0,A0", 1), db), f)
        assert got.ring == f.target_ring
        assert got == 6 * f.target_ring.gen("h") ** 2


class TestCountPoints:
    def test_steiner_triple_point(self, db):
        assert count_points(
            get_model("veronese-p3"), multi_type("A0,A0,A0", 1), db
        ) == 1

    def test_salmon_cubic(self, db):
        assert count_points(
            get_model("dual-surface:3"), multi_type("A1,A1,A1", -1), db
        ) == 45

    def test_roberts_quartic(self, db):
        assert count_points(
            get_model("web3:4"), multi_type("A1,A1,A1", -1), db
        ) == 675

    def test_wrong_dimension(self, db):
        with pytest.raises(ValueError, match="zero-dimensional"):
            count_points(get_model("veronese-p3"), multi_type("A0,A0", 1), db)


class TestGeneratingSeries:
    def test_immersions(self, db):
        assert verify_generating_series([get_sing_type("A0", 1)], 3, db)

    def test_folds(self, db):
        assert verify_generating_series([get_sing_type("A1", -1)], 3, db)

    def test_trivial_truncation(self, db):
        assert verify_generating_series([get_sing_type("A0", 1)], 1, db)

    def test_mixed_types(self, db):
        # needs a pair entry for A1,A1 at kappa=1; any homogeneous stand-in
        # works because the identity is formal in the pushed residuals
        scratch = db.copy()
        scratch.insert(("A1", "A1"), 1, c(1) ** 5 - 3 * c(2) * c(3))
        types = [get_sing_type("A0", 1), get_sing_type("A1", 1)]
        assert verify_generating_series(types, 2, scratch)

    @pytest.mark.parametrize("names, kappa, max_r", [
        (("A0",) * 5, 1, 5),
        (("A1",) * 4, -1, 4),
        (("A0", "A0", "A0", "A1", "A1", "A1"), 1, 3),
    ])
    def test_dense_stores(self, names, kappa, max_r):
        types = [get_sing_type(n, kappa) for n in sorted(set(names))]
        assert verify_generating_series(types, max_r, seeded_db(names, kappa, 6))

    def test_wrong_partition_weight_fails(self, db, monkeypatch):
        def comb(n, k):  # one binomial weight of the A0^4 expansion off by one
            return math.comb(n, k) + ((n, k) == (3, 1))

        monkeypatch.setattr(tpcore, "math", SimpleNamespace(**{**vars(math), "comb": comb}))
        assert not verify_generating_series([get_sing_type("A0", 1)], 4, db)

    def test_missing_entries(self, db):
        scratch = db.copy()
        scratch.remove(("A1", "A1"), -1)
        with pytest.raises(MissingResidual):
            verify_generating_series([get_sing_type("A1", -1)], 2, scratch)

    def test_kappa_must_agree(self, db):
        types = [get_sing_type("A0", 1), get_sing_type("A1", -1)]
        with pytest.raises(ValueError):
            verify_generating_series(types, 2, db)


class TestTwoRouteAgreement:
    def test_triple_point_nested_vs_expansion(self, db):
        from tpcalc.verify import nested_triple_point_class

        t = multi_type("A0,A0,A0", 1)
        for name in ["veronese-p3", "scroll-q-p3", "ratcurve:2", "ratcurve:5"]:
            f = get_model(name)
            assert evaluate(expand_source(t, db), f) == nested_triple_point_class(f)


def test_small_cases_and_refusals():
    assert multi_type(iter(["A1", "A0"]), 1).entries == ("A1", "A0")
    assert bell_number(0) == 1
    with pytest.raises(MissingResidual, match=r"^no residual polynomial for "
                                              r"types=\[A0,A0,A0,A0\] kappa=1$"):
        residual_a0_family(4, 1)
    db = default_db()
    with pytest.raises(ValueError, match=r"^side must be 'source' or 'target'$"):
        extract_residual(multi_type("A1", 1), c(2), "both", db)
    with pytest.raises(ValueError, match=r"^max_r must be >= 1$"):
        verify_generating_series([get_sing_type("A0", 1)], 0, db)
