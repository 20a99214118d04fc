"""Recovering residual polynomials two ways.

1. Interpolation: write the unknown residual with undetermined coefficients,
   impose known counts on model maps, solve the exact linear system.
2. Extraction: subtract the proper-partition part from a known expansion and
   read the residual off the remainder.

Types beyond A0 and A1 are declared in the store that uses them; the last
part declares one and recovers its residual by interpolation.
"""

from fractions import Fraction

from tpcalc import (
    assemble_system,
    default_db,
    extract_residual,
    get_model,
    multi_type,
    parse_expr,
    render_expr,
    solve_exact,
)

db = default_db()

print("Interpolation: the double-point residual from one node count")
t2 = multi_type("A0,A0", 1)
scratch = db.copy()
scratch.remove(t2.key, 1)
system = assemble_system(
    t2, scratch, [("ratcurve:4", get_model("ratcurve:4"), Fraction(3))])
print("   unknowns:", system.describe_unknowns())
for vec, rhs, label in system.rows:
    print(f"   {label}: {[str(v) for v in vec]} . a = {rhs}")
print("   solution:", render_expr(solve_exact(system).residual()))

print("\nInterpolation: the triple-point residual from two surface counts")
t3 = multi_type("A0,A0,A0", 1)
scratch = db.copy()
scratch.remove(t3.key, 1)
system = assemble_system(t3, scratch, [
    ("veronese-p3", get_model("veronese-p3"), Fraction(1)),
    ("scroll-q-p3", get_model("scroll-q-p3"), Fraction(0)),
])
for vec, rhs, label in system.rows:
    print(f"   {label}: {[str(v) for v in vec]} . a = {rhs}")
print("   solution:", render_expr(solve_exact(system).residual()))

print("\nExtraction: inverting a known source expansion")
t = multi_type("A1,A0", 1)
known = parse_expr("fs_0*c2 - 2*c1*c2 - 2*c3")
scratch = db.copy()
scratch.remove(t.key, 1)
R = extract_residual(t, known, "source", scratch)
print("   known   :", render_expr(known))
print("   residual:", render_expr(R))

print("\nThe whole store serializes to a line-oriented text format:")
print(db.dump())

print("\nA type declared in a store: the crosscap A1 under the new name B1")
store = db.copy()
store.declare("B1", 1, 3)  # at kappa = 1, with A1's target codimension ell = 3
t1 = multi_type("B1", 1, store)
system = assemble_system(t1, store, [
    ("veronese-p3", get_model("veronese-p3"), Fraction(6)),  # Steiner's pinch points
    ("scroll-q-p3", get_model("scroll-q-p3"), Fraction(4)),
])
store.insert(t1.key, 1, solve_exact(system).residual())
print("   the store's lines for B1:")
for line in store.dump().splitlines():
    if "B1" in line:
        print("  ", line)
