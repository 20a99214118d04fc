"""Recover unknown residual-polynomial coefficients from counts on models.

Writing the unknown residual as R = sum a_I c^I over the Chern monomials of
the right degree, the integrated target expansion of a multi-type is affine
in the a_I, so each (model, known count) pair contributes one exact linear
equation.  Solving is plain Gaussian elimination over the rationals: pivots
are exact, under-determination is reported as a kernel basis and
inconsistency points back at the offending constraints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .algebra import RingSpec, integrate_top
from .symbolic import Index, SymbolicExpr, c_monomial, canon_index, render_expr
from .tpcore import MultiSingType, ResidualDB, _proper_part, evaluate


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
        total = SymbolicExpr.zero()
        for I, a in self.solution.items():
            total = total + c_monomial(I) * a
        return total


def assemble_system(t: MultiSingType, db: ResidualDB,
                    constraints: Sequence[tuple]) -> LinearSystem:
    """One equation per (model, count) constraint.

    Constraints are (model, count) or (label, model, count) tuples; each
    model must have dim Y = ell(t) so the count is a plain number.  The db
    must hold every strict sub-multiset of t; t itself is the unknown.
    """
    degree = t.ell_total - t.kappa
    system = LinearSystem(unknowns=chern_monomials_of_degree(degree))
    proper = _proper_part(t, db, "target")
    for entry in constraints:
        if len(entry) == 3:
            label, model, count = entry
        else:
            model, count = entry
            label = repr(model)
        count = Fraction(count)
        if t.ell_total != model.target_ring.top_degree:
            raise ValueError(
                f"constraint {label!r}: ell(t) = {t.ell_total} but the model's "
                f"target has dimension {model.target_ring.top_degree}"
            )
        base = Fraction(0)
        if not proper.is_zero():
            base = integrate_top(model.target_ring,
                                 evaluate(proper, model, side="target"))
        coeffs = [
            integrate_top(model.target_ring, model.landweber_novikov(I))
            for I in system.unknowns
        ]
        system.rows.append((coeffs, t.aut_order * count - base, label))
    return system


def solve_exact(system: LinearSystem) -> SolveResult:
    """Exact Gauss-Jordan elimination; every outcome is a typed result."""
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
