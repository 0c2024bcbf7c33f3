"""The affine-action machine: split norms, the cocycle, and uniform bounds.

Mean-zero vectors carry the norm ||v||_E = ||v||_f + ||v||_1 built from a
displacement kernel.  Left translation is the representation, b(s) =
delta_s - delta_e its cocycle; the displacement constant M turns into the
operator-norm bound sqrt(M/2) + 1, and the cocycle norm formula
||b(s)||_E = sqrt(K(s,e)) + 2 makes growth along the group readable off the
kernel's first column.
"""

from l1comb import (
    EVector,
    GroupPresentation,
    ball,
    check_cocycle_identity,
    cocycle,
    kernel_from_bicombing,
    make_bicombing,
    norm_e,
    norm_f,
    op_norm_lower_bound,
    per_vector_bound_check,
    properness_report,
    rep_apply,
    uniform_bound,
)

f2 = GroupPresentation(("a", "b"))
b5 = ball(f2, 5)
K = kernel_from_bicombing(make_bicombing("tree_geodesic", b5))

print("=== cocycle identity (exact integers) ===")
print("b(ab) residual vs pi(a) b(b) + b(a):", check_cocycle_identity("a", "b", b5))

print()
print("=== norms ===")
v = cocycle("abab")
print("||b(abab)||_f =", norm_f(v, K), " ||b(abab)||_E =", norm_e(v, K))
w = rep_apply("BA", v, b5)  # support becomes {ab, BA}, still inside the ball
print("after translating by BA:   ||.||_E =", norm_e(w, K), "(isometric here)")

check = per_vector_bound_check("ab", EVector({"a": 1, "b": 1, "": -2}), K)
print(f"form growth {check.lhs} <= (excess/2) l1^2 = {check.rhs} (exact): {check.passed}")

print()
print("=== uniform bounds ===")
print("M = 0 ->", uniform_bound(0.0), " M = 2 ->", uniform_bound(2.0),
      " M = 8 ->", uniform_bound(8.0))
res = op_norm_lower_bound("ab", K, 2)
print(f"two-point lower bound for pi(ab): {res.value:.9f} "
      f"({res.iterations} vectors delta_x - delta_y)")

print()
print("=== properness: ||b(s)||_E = sqrt(d) + 2 on trees ===")
report = properness_report(K)
for r in report.rows[:4]:
    print(f"  {r.word:>4}  d={r.distance}  ||b||_E={r.norm_e:.6f}  bound={r.lower_bound:.6f}")
minima = report.sphere_minima()
print("sphere minima (nondecreasing):",
      [round(minima[r], 4) for r in sorted(minima)])
