"""Recover unknown residual-polynomial coefficients from counts on models.

Writing the unknown residual as R = sum a_I c^I over the Chern monomials of
the right degree, the integrated target expansion of a multi-type is affine
in the a_I, so each constraint contributes one exact linear equation.  A
constraint has one shape, a (label, model, known count) triple.  Solving is
one Gauss-Jordan pass over the rationals: pivots are exact,
under-determination is reported as a kernel basis and inconsistency points
back at the labels of the offending constraints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .algebra import RingSpec, integrate_top
from .symbolic import Index, SymbolicExpr, c_monomial, canon_index, render_expr, s
from .tpcore import MultiSingType, ResidualDB, _partition_sum, evaluate


def chern_monomials_of_degree(degree: int) -> list[Index]:
    """Exponent vectors I with sum j*i_j = degree, c_1-heavy first."""
    if degree < 0:
        raise ValueError("degree must be non-negative")
    ring = RingSpec((f"c{j}", j, degree // j) for j in range(1, degree + 1))
    return [canon_index(I) for I in reversed(list(ring.monomials_of_degree(degree)))]


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


def assemble_system(t: MultiSingType, db: ResidualDB,
                    constraints: Sequence[tuple]) -> LinearSystem:
    """One equation per constraint, always a (label, model, count) triple.

    Each model must have dim Y = ell(t) so the count is a plain number.  The
    db must hold every strict sub-multiset of t; t itself is the unknown.
    """
    degree = t.ell_total - t.kappa
    system = LinearSystem(unknowns=chern_monomials_of_degree(degree))
    proper = _partition_sum(t, db, "target", proper=True)
    for label, model, count in constraints:
        if t.ell_total != model.target_ring.top_degree:
            raise ValueError(
                f"constraint {label!r}: ell(t) = {t.ell_total} but the model's "
                f"target has dimension {model.target_ring.top_degree}"
            )
        ring = model.target_ring
        base = integrate_top(ring, evaluate(proper, model, "target"))
        coeffs = [integrate_top(ring, evaluate(s(*I), model, "target")) for I in system.unknowns]
        system.rows.append((coeffs, t.aut_order * Fraction(count) - base, label))
    return system


def solve_exact(system: LinearSystem) -> SolveResult:
    """Exact Gauss-Jordan elimination; every outcome is a typed result.

    Each row is augmented by its right-hand side and a unit vector naming
    it, so one row operation updates all three.  Rows past the rank with a
    non-zero right-hand side name the violated constraints.
    """
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
