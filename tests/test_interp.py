from fractions import Fraction

import pytest

from tpcalc.interp import (
    LinearSystem,
    assemble_system,
    chern_monomials_of_degree,
    solve_exact,
)
from tpcalc.maps import get_model
from tpcalc.symbolic import c, canon_index
from tpcalc.tpcore import count_points, default_db, multi_type


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

    def test_dimension_mismatch(self, db):
        t = multi_type("A0,A0,A0", 1)  # ell = 3, but ratcurve target is P^2
        with pytest.raises(ValueError):
            assemble_system(t, db.copy(),
                            [("ratcurve:3", get_model("ratcurve:3"), 1)])


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
