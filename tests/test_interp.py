from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpcalc.algebra import integrate_top
from tpcalc.interp import (
    LinearSystem,
    SolveResult,
    assemble_system,
    chern_monomials_of_degree,
    solve_exact,
)
from tpcalc.maps import get_model
from tpcalc.symbolic import SymbolicExpr, c, c_monomial, canon_index, s
from tpcalc.tpcore import count_points, default_db, evaluate, multi_type


@pytest.fixture
def db():
    return default_db()


def reference_chern_monomials(degree):
    """The depth-first enumeration, c_1 exponent descending, then c_2, ..."""
    out = []

    def rec(j, remaining, acc):
        if remaining == 0:
            out.append(canon_index(acc))
            return
        if j > remaining:
            return
        for e in range(remaining // j, -1, -1):
            rec(j + 1, remaining - j * e, acc + [e])

    rec(1, degree, [])
    return out


def reference_solve_exact(system: LinearSystem) -> SolveResult:
    """The three-list elimination solve_exact replaced, kept verbatim."""
    n = len(system.unknowns)
    m = len(system.rows)
    # work rows carry (coeff vector, rhs, combination of original rows)
    work = []
    for i, (vec, rhs, _label) in enumerate(system.rows):
        if len(vec) != n:
            raise ValueError("row length does not match unknown count")
        combo = [Fraction(0)] * m
        combo[i] = Fraction(1)
        work.append(([Fraction(x) for x in vec], Fraction(rhs), combo))

    pivot_of_col: dict[int, int] = {}
    row_idx = 0
    for col in range(n):
        pivot = next(
            (i for i in range(row_idx, m) if work[i][0][col] != 0), None
        )
        if pivot is None:
            continue
        work[row_idx], work[pivot] = work[pivot], work[row_idx]
        pvec, prhs, pcombo = work[row_idx]
        inv = Fraction(1) / pvec[col]
        pvec[:] = [x * inv for x in pvec]
        prhs *= inv
        pcombo[:] = [x * inv for x in pcombo]
        work[row_idx] = (pvec, prhs, pcombo)
        for i in range(m):
            if i == row_idx:
                continue
            factor = work[i][0][col]
            if factor == 0:
                continue
            ivec, irhs, icombo = work[i]
            ivec[:] = [a - factor * b for a, b in zip(ivec, pvec)]
            irhs -= factor * prhs
            icombo[:] = [a - factor * b for a, b in zip(icombo, pcombo)]
            work[i] = (ivec, irhs, icombo)
        pivot_of_col[col] = row_idx
        row_idx += 1

    violated: list[str] = []
    for i in range(row_idx, m):
        vec, rhs, combo = work[i]
        if any(x != 0 for x in vec):
            continue  # cannot happen after full elimination; defensive
        if rhs != 0:
            names = [system.rows[j][2] for j, x in enumerate(combo) if x != 0]
            violated.extend(nm for nm in names if nm not in violated)
    if violated:
        return SolveResult(status="inconsistent", violated=violated)

    free_cols = [c for c in range(n) if c not in pivot_of_col]
    solution = {}
    for col, row in pivot_of_col.items():
        solution[system.unknowns[col]] = work[row][1]
    for col in free_cols:
        solution[system.unknowns[col]] = Fraction(0)

    if not free_cols:
        return SolveResult(status="unique", solution=solution)

    kernel = []
    for fc in free_cols:
        vec = {system.unknowns[fc]: Fraction(1)}
        for col, row in pivot_of_col.items():
            coeff = work[row][0][fc]
            if coeff != 0:
                vec[system.unknowns[col]] = -coeff
        kernel.append(vec)
    return SolveResult(status="underdetermined", solution=solution, kernel=kernel)


ENTRIES = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))


@st.composite
def linear_systems(draw):
    """0-6 rows over 1-5 unknowns, zero-heavy; a row may combine earlier rows,
    consistently or off by a constant; labels repeat."""
    n = draw(st.integers(1, 5))
    system = LinearSystem(unknowns=[(0,) * k + (1,) for k in range(n)])
    for _ in range(draw(st.integers(0, 6))):
        if system.rows and draw(st.booleans()):
            weights = [draw(ENTRIES) for _ in system.rows]
            vec = [sum((w * row[0][j] for w, row in zip(weights, system.rows)), Fraction(0))
                   for j in range(n)]
            rhs = sum((w * row[1] for w, row in zip(weights, system.rows)), Fraction(0))
            rhs += draw(st.sampled_from([Fraction(0), Fraction(1), Fraction(-1, 2)]))
        else:
            vec, rhs = [draw(ENTRIES) for _ in range(n)], draw(ENTRIES)
        system.rows.append((vec, rhs, draw(st.sampled_from("abcd"))))
    return system


def outcome_items(outcome: SolveResult):
    solution = None if outcome.solution is None else list(outcome.solution.items())
    return (outcome.status, solution, [list(v.items()) for v in outcome.kernel],
            outcome.violated)


@given(linear_systems())
@settings(max_examples=400, deadline=None)
def test_solve_matches_reference(system):
    assert outcome_items(solve_exact(system)) == outcome_items(reference_solve_exact(system))


def reference_gauss_jordan(system: LinearSystem) -> SolveResult:
    """The one-pass Gauss-Jordan elimination over the rationals that the
    fraction-free elimination replaced, kept verbatim."""
    n, m = len(system.unknowns), len(system.rows)
    work = []
    for i, (vec, rhs, _label) in enumerate(system.rows):
        if len(vec) != n:
            raise ValueError("row length does not match unknown count")
        unit = [Fraction(int(j == i)) for j in range(m)]
        work.append([Fraction(x) for x in vec] + [Fraction(rhs)] + unit)

    pivots: list[int] = []  # the pivot column of each row, in row order
    for col in range(n):
        r = len(pivots)
        pivot = next((i for i in range(r, m) if work[i][col] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = Fraction(1) / work[r][col]
        prow = work[r] = [x * inv for x in work[r]]
        for i, row in enumerate(work):
            factor = row[col]
            if i != r and factor != 0:
                work[i] = [a - factor * b for a, b in zip(row, prow)]
        pivots.append(col)

    violated: list[str] = []
    for row in work[len(pivots):]:
        if row[n] != 0:
            names = [system.rows[j][2] for j, x in enumerate(row[n + 1:]) if x != 0]
            violated.extend(nm for nm in names if nm not in violated)
    if violated:
        return SolveResult(status="inconsistent", violated=violated)

    unknowns = system.unknowns
    free_cols = [col for col in range(n) if col not in pivots]
    solution = {unknowns[col]: work[r][n] for r, col in enumerate(pivots)}
    solution.update((unknowns[col], Fraction(0)) for col in free_cols)
    if not free_cols:
        return SolveResult(status="unique", solution=solution)

    kernel = []
    for fc in free_cols:
        vec = {unknowns[fc]: Fraction(1)}
        vec.update((unknowns[col], -work[r][fc])
                   for r, col in enumerate(pivots) if work[r][fc] != 0)
        kernel.append(vec)
    return SolveResult(status="underdetermined", solution=solution, kernel=kernel)


BIG = st.integers(-10**6, 10**6)
RECOVER_ENTRIES = st.one_of(st.just(0), BIG, st.builds(Fraction, BIG, st.integers(1, 10**6)))
WEIGHTS = st.one_of(st.just(0), st.integers(-3, 3), st.builds(Fraction, st.integers(-9, 9),
                                                              st.integers(1, 9)))


@st.composite
def recover_sized_systems(draw):
    """4-10 rows over 3-8 unknowns, as large as the recover systems, with integer
    and Fraction entries up to 10^6.  A row is drawn at random (in half of the
    systems never touching one or two dead columns, which stay free), zero, a
    repeat of an earlier row or a combination of earlier rows, with the
    right-hand side of a planted solution; in half of the systems some rows are
    then off by a constant, so unique, rank-deficient and inconsistent systems
    all come up."""
    n = draw(st.integers(3, 8))
    dead = draw(st.sets(st.integers(0, n - 1), max_size=2)) if draw(st.booleans()) else set()
    planted = [draw(WEIGHTS) for _ in range(n)]
    offsets = st.sampled_from([0, 0, 1, Fraction(-7, 3)] if draw(st.booleans()) else [0])
    system = LinearSystem(unknowns=[(0,) * k + (1,) for k in range(n)])
    for _ in range(draw(st.integers(4, 10))):
        shape = draw(st.sampled_from(["random"] * 4 + ["zero", "repeat", "combine"]))
        if shape == "random" or not system.rows:
            vec = [0 if j in dead else draw(RECOVER_ENTRIES) for j in range(n)]
        elif shape == "zero":
            vec = [0] * n
        elif shape == "repeat":
            vec = list(draw(st.sampled_from(system.rows))[0])
        else:
            weights = [draw(WEIGHTS) for _ in system.rows]
            vec = [sum(w * row[0][j] for w, row in zip(weights, system.rows)) for j in range(n)]
        rhs = sum(a * x for a, x in zip(vec, planted)) + draw(offsets)
        label = draw(st.sampled_from(["dual-surface:5", "web3:6", "veronese-p3", "ci-a"]))
        system.rows.append((vec, rhs, label))
    return system


def assert_matches_both_references(system):
    got = solve_exact(system)
    assert outcome_items(got) == outcome_items(reference_solve_exact(system))
    assert outcome_items(got) == outcome_items(reference_gauss_jordan(system))
    values = list((got.solution or {}).values()) + [x for v in got.kernel for x in v.values()]
    assert all(type(x) is Fraction for x in values)


@given(linear_systems())
@settings(max_examples=400, deadline=None)
def test_solve_matches_the_gauss_jordan_reference(system):
    assert_matches_both_references(system)


@given(recover_sized_systems())
@settings(max_examples=400, deadline=None)
def test_solve_matches_both_references_on_recover_sized_systems(system):
    assert_matches_both_references(system)


class TestChernMonomials:
    @pytest.mark.parametrize("degree", range(16))
    def test_matches_reference(self, degree):
        assert chern_monomials_of_degree(degree) == reference_chern_monomials(degree)

    def test_negative_degree(self):
        with pytest.raises(ValueError):
            chern_monomials_of_degree(-1)

    def test_degree_one(self):
        assert chern_monomials_of_degree(1) == [(1,)]

    def test_degree_two(self):
        assert chern_monomials_of_degree(2) == [(2,), (0, 1)]  # c1^2, c2

    def test_degree_three(self):
        assert chern_monomials_of_degree(3) == [(3,), (1, 1), (0, 0, 1)]

    def test_degree_zero(self):
        assert chern_monomials_of_degree(0) == [()]


class TestAssemble:
    def test_double_point_system(self, db):
        """One node-count constraint pins R_{A0^2} = -c1."""
        t = multi_type("A0,A0", 1)
        scratch = db.copy()
        scratch.remove(t.key, 1)
        system = assemble_system(
            t, scratch, [("ratcurve:4", get_model("ratcurve:4"), Fraction(3))]
        )
        assert system.unknowns == [(1,)]
        vec, rhs, label = system.rows[0]
        # s_0^2 integrates to 16, the unknown's s_1 to 10, ordered count = 6
        assert vec == [Fraction(10)]
        assert rhs == Fraction(6 - 16)
        assert label == "ratcurve:4"

    def test_triple_point_system(self, db):
        t = multi_type("A0,A0,A0", 1)
        scratch = db.copy()
        scratch.remove(t.key, 1)
        system = assemble_system(t, scratch, [
            ("veronese-p3", get_model("veronese-p3"), Fraction(1)),
            ("scroll-q-p3", get_model("scroll-q-p3"), Fraction(0)),
        ])
        assert system.describe_unknowns() == ["c1^2", "c2"]
        assert system.rows[0][0] == [Fraction(25), Fraction(6)]
        assert system.rows[0][1] == Fraction(62)
        assert system.rows[1][0] == [Fraction(24), Fraction(4)]
        assert system.rows[1][1] == Fraction(56)

    def test_empty_constraints(self, db):
        t = multi_type("A0,A0", 1)
        system = assemble_system(t, db.copy(), [])
        assert system.rows == []

    def test_two_element_constraint_refused(self, db):
        t = multi_type("A0,A0", 1)
        with pytest.raises(ValueError):
            assemble_system(t, db.copy(), [(get_model("ratcurve:4"), Fraction(3))])

    @pytest.mark.parametrize("spec, models", [
        ("A0,A0", ["ratcurve:3", "ratcurve:5"]),
        ("A0,A0,A0", ["veronese-p3", "scroll-q-p3", "web3:2"]),
        ("A1", ["veronese-p3", "web3:3"]),
    ])
    def test_rows_match_the_evaluate_route(self, db, spec, models):
        """Each coefficient is the integrated LN class, as evaluate(s_I) gives it."""
        t = multi_type(spec, 1)
        scratch = db.copy()
        scratch.remove(t.key, 1)
        constraints = [(name, get_model(name), Fraction(0)) for name in models]
        system = assemble_system(t, scratch, constraints)
        for (vec, _rhs, _label), (_name, model, _count) in zip(system.rows, constraints):
            assert vec == [integrate_top(model.target_ring, evaluate(s(*I), model, "target"))
                           for I in system.unknowns]

    def test_dimension_mismatch(self, db):
        t = multi_type("A0,A0,A0", 1)  # ell = 3, but ratcurve target is P^2
        with pytest.raises(ValueError):
            assemble_system(t, db.copy(),
                            [("ratcurve:3", get_model("ratcurve:3"), 1)])


class TestFloatScalars:
    """Entries are read as coefficients are: a float or a string is refused, not converted."""

    @pytest.mark.parametrize("row", [([0.1], 1, "a"), ([1], 0.1, "a"), (["1/3"], 1, "a")],
                             ids=["coefficient", "rhs", "string"])
    def test_solve_exact_refuses_a_non_scalar(self, row):
        with pytest.raises(TypeError, match="int or Fraction"):
            solve_exact(LinearSystem([(1,)], [row]))

    def test_assemble_system_refuses_a_float_count(self, db):
        t = multi_type("A0,A0", 1)
        scratch = db.copy()
        scratch.remove(t.key, 1)
        with pytest.raises(TypeError, match="float"):
            assemble_system(t, scratch, [("ratcurve:4", get_model("ratcurve:4"), 3.0)])

    def test_int_and_fraction_entries_still_work(self):
        outcome = solve_exact(LinearSystem([(1,)], [([Fraction(1, 3)], 1, "a")]))
        assert outcome.solution == {(1,): 3}


class TestSolve:
    def test_double_point_solution(self, db):
        t = multi_type("A0,A0", 1)
        scratch = db.copy()
        scratch.remove(t.key, 1)
        system = assemble_system(
            t, scratch, [("ratcurve:4", get_model("ratcurve:4"), Fraction(3))]
        )
        outcome = solve_exact(system)
        assert outcome.status == "unique"
        assert outcome.solution == {(1,): Fraction(-1)}
        assert outcome.residual() == -c(1)

    def test_triple_point_solution(self, db):
        t = multi_type("A0,A0,A0", 1)
        scratch = db.copy()
        scratch.remove(t.key, 1)
        system = assemble_system(t, scratch, [
            ("veronese-p3", get_model("veronese-p3"), Fraction(1)),
            ("scroll-q-p3", get_model("scroll-q-p3"), Fraction(0)),
        ])
        outcome = solve_exact(system)
        assert outcome.status == "unique"
        assert outcome.residual() == 2 * c(1) ** 2 + 2 * c(2)

    def test_solution_reproduces_constraints(self, db):
        t = multi_type("A0,A0,A0", 1)
        scratch = db.copy()
        scratch.remove(t.key, 1)
        system = assemble_system(t, scratch, [
            ("veronese-p3", get_model("veronese-p3"), Fraction(1)),
            ("scroll-q-p3", get_model("scroll-q-p3"), Fraction(0)),
        ])
        outcome = solve_exact(system)
        scratch.insert(t.key, 1, outcome.residual())
        assert count_points(get_model("veronese-p3"), t, scratch) == 1
        assert count_points(get_model("scroll-q-p3"), t, scratch) == 0

    def test_underdetermined_reports_kernel(self, db):
        t = multi_type("A0,A0,A0", 1)
        scratch = db.copy()
        scratch.remove(t.key, 1)
        system = assemble_system(t, scratch, [
            ("veronese-p3", get_model("veronese-p3"), Fraction(1)),
        ])
        outcome = solve_exact(system)
        assert outcome.status == "underdetermined"
        assert len(outcome.kernel) == 1
        # kernel direction of 25a + 6b = const
        (vec,) = outcome.kernel
        assert 25 * vec.get((2,), 0) + 6 * vec.get((0, 1), 0) == 0

    def test_inconsistent_names_rows(self):
        system = LinearSystem(unknowns=[(1,)])
        system.rows.append(([Fraction(0)], Fraction(1), "bogus-model"))
        outcome = solve_exact(system)
        assert outcome.status == "inconsistent"
        assert outcome.violated == ["bogus-model"]

    def test_inconsistent_combination(self, db):
        # two incompatible constraints on the same model family
        t = multi_type("A0,A0", 1)
        scratch = db.copy()
        scratch.remove(t.key, 1)
        system = assemble_system(t, scratch, [
            ("ratcurve:4 says 3", get_model("ratcurve:4"), Fraction(3)),
            ("ratcurve:4 says 4", get_model("ratcurve:4"), Fraction(4)),
        ])
        outcome = solve_exact(system)
        assert outcome.status == "inconsistent"
        assert set(outcome.violated) == {"ratcurve:4 says 3", "ratcurve:4 says 4"}

    def test_zero_rows_underdetermined(self):
        system = LinearSystem(unknowns=[(1,)])
        outcome = solve_exact(system)
        assert outcome.status == "underdetermined"
        assert outcome.kernel == [{(1,): Fraction(1)}]

    def test_residual_requires_uniqueness(self):
        system = LinearSystem(unknowns=[(1,)])
        outcome = solve_exact(system)
        with pytest.raises(ValueError):
            outcome.residual()


@given(st.dictionaries(st.lists(st.integers(0, 3), max_size=4).map(tuple), ENTRIES,
                       max_size=12))
@settings(max_examples=200, deadline=None)
def test_residual_matches_the_running_sum(solution):
    """Indices that meet once trimmed, such as (1,) and (1, 0), add up."""
    running = sum((c_monomial(I) * a for I, a in solution.items()), SymbolicExpr.zero())
    residual = SolveResult(status="unique", solution=solution).residual()
    assert residual == running


def test_row_of_the_wrong_length_is_refused():
    system = LinearSystem([canon_index((1,)), canon_index((0, 1))],
                          [([Fraction(1)], Fraction(2), "short")])
    with pytest.raises(ValueError, match=r"^row length does not match unknown count$"):
        solve_exact(system)
