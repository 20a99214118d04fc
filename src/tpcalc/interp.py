"""Recover unknown residual-polynomial coefficients from counts on models.

Writing the unknown residual as R = sum a_I c^I over the Chern monomials of
the right degree, the integrated target expansion of a multi-type is affine
in the a_I, so each constraint contributes one exact linear equation.  A
constraint has one shape, a (label, model, known count) triple.  Solving is
one fraction-free Bareiss elimination on rows scaled to integers, the one the
curve oracle's resultant runs, then back-substitution on integers: pivots are
exact, under-determination is reported as a kernel basis and inconsistency
points back at the labels of the offending constraints.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import lcm
from types import SimpleNamespace

from .algebra import RingSpec, integrate_top
from .oracle import _bareiss
from .symbolic import Index, SymbolicExpr, c_monomial, canon_index, render_expr
from .tpcore import MultiSingType, ResidualDB, _partition_sum, evaluate


def chern_monomials_of_degree(degree: int) -> list[Index]:
    """Exponent vectors I with sum j*i_j = degree, c_1-heavy first."""
    if degree < 0:
        raise ValueError("degree must be non-negative")
    ring = RingSpec((f"c{j}", j, degree // j) for j in range(1, degree + 1))
    return [canon_index(I) for I in reversed(list(ring.monomials_of_degree(degree)))]


class LinearSystem(SimpleNamespace):
    """Rows are (coefficient vector, right-hand side, provenance label)."""

    __reduce__ = object.__reduce__  # SimpleNamespace's calls the class with no arguments

    def __init__(self, unknowns: list[Index],
                 rows: list[tuple[list[Fraction], Fraction, str]] | None = None):
        super().__init__(unknowns=unknowns, rows=[] if rows is None else rows)

    def describe_unknowns(self) -> list[str]:
        return [render_expr(c_monomial(I)) for I in self.unknowns]


class SolveResult(SimpleNamespace):
    __reduce__ = object.__reduce__

    def __init__(self, status: str, solution: dict[Index, Fraction] | None = None,
                 kernel: list[dict[Index, Fraction]] | None = None,
                 violated: list[str] | None = None):
        super().__init__(status=status,  # 'unique', 'underdetermined' or 'inconsistent'
                         solution=solution, kernel=[] if kernel is None else kernel,
                         violated=[] if violated is None else violated)

    def residual(self) -> SymbolicExpr:
        """The solved polynomial sum a_I c^I (unique solutions only), summed in one dict."""
        if self.status != "unique":
            raise ValueError(f"system is {self.status}, no unique residual")
        return SymbolicExpr({tuple((("c", j), e) for j, e in enumerate(I, start=1)): a
                             for I, a in self.solution.items()})


def assemble_system(t: MultiSingType, db: ResidualDB,
                    constraints: Sequence[tuple]) -> LinearSystem:
    """One equation per constraint, always a (label, model, count) triple.

    Each model must have dim Y = ell(t) so the count is a plain number.  The
    db must hold every strict sub-multiset of t; t itself is the unknown.
    """
    degree = t.ell_total - t.kappa
    system = LinearSystem(unknowns=chern_monomials_of_degree(degree))
    proper = SymbolicExpr._from_packed(*_partition_sum(t, db, "target", proper=True))
    for label, model, count in constraints:
        if t.ell_total != model.target_ring.top_degree:
            raise ValueError(
                f"constraint {label!r}: ell(t) = {t.ell_total} but the model's "
                f"target has dimension {model.target_ring.top_degree}"
            )
        ring = model.target_ring
        base = integrate_top(ring, evaluate(proper, model, "target"))
        coeffs = [integrate_top(ring, model.landweber_novikov(I)) for I in system.unknowns]
        system.rows.append((coeffs, t.aut_order * Fraction(count) - base, label))
    return system


def solve_exact(system: LinearSystem) -> SolveResult:
    """Exact fraction-free elimination; every outcome is a typed result.

    Rows scaled to integers, each augmented by its right-hand side and a unit
    vector naming it, go through `oracle._bareiss`.  Its entries are minors, so
    its zeros are Gauss-Jordan's: rows past the rank with a non-zero right-hand
    side name the violated constraints.  Integer back-substitution gives the
    reduced rows times the last pivot d, and each value is one Fraction over d.
    """
    n, m = len(system.unknowns), len(system.rows)
    work = []
    for i, (vec, rhs, _label) in enumerate(system.rows):
        if len(vec) != n:
            raise ValueError("row length does not match unknown count")
        row = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in (*vec, rhs)]
        scale = lcm(*(x.denominator for x in row))
        work.append([x.numerator * (scale // x.denominator) for x in row]
                    + [int(j == i) for j in range(m)])
    pivots = _bareiss(work, n)[0]

    violated: list[str] = []
    for row in work[len(pivots):]:
        if row[n]:
            names = [system.rows[j][2] for j, x in enumerate(row[n + 1:]) if x]
            violated.extend(nm for nm in names if nm not in violated)
    if violated:
        return SolveResult(status="inconsistent", violated=violated)

    d = work[len(pivots) - 1][pivots[-1]] if pivots else 1
    for r in reversed(range(len(pivots))):  # row r becomes d times the reduced row r
        row, p = work[r], pivots[r]
        work[r] = [0] * p + [d] + [
            (d * row[j] - sum(row[q] * work[k][j] for k, q in enumerate(pivots[r + 1:], r + 1)))
            // row[p] for j in range(p + 1, n + 1)]
    unknowns = system.unknowns
    free_cols = [col for col in range(n) if col not in pivots]
    solution = {unknowns[col]: Fraction(work[r][n], d) for r, col in enumerate(pivots)}
    solution.update((unknowns[col], Fraction(0)) for col in free_cols)
    if not free_cols:
        return SolveResult(status="unique", solution=solution)

    kernel = []
    for fc in free_cols:
        vec = {unknowns[fc]: Fraction(1)}
        vec.update((unknowns[col], Fraction(-work[r][fc], d))
                   for r, col in enumerate(pivots) if work[r][fc])
        kernel.append(vec)
    return SolveResult(status="underdetermined", solution=solution, kernel=kernel)
