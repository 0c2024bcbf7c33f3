"""Displacement kernels and their negative-type certificates.

K(x, y) = ||q[e,x] - q[e,y]||_1 is a squared Hilbert distance: the slot
embedding realizes it explicitly on integer chains, the centered eigenvalue
check certifies conditional negative definiteness, and the displacement scan
measures how far left translation can move the kernel.
"""

from l1comb import (
    GroupPresentation,
    SlotEmbedding,
    ball,
    cnd_min_eigenvalue,
    displacement_decomposition,
    kernel_cross_validate,
    kernel_from_bicombing,
    make_bicombing,
)

print("=== the slot embedding on integer chains ===")
# the rows u = 2 e_0 - e_1 and w = -e_0 of F, as (key, coefficient) pairs
F = SlotEmbedding([[(0, 2), (1, -1)], [(0, -1)]])
# form reads 1/2 |J(u) - J(w)|^2 off J's slots; row reads 2K(u, w) = |u - w|_1
print("||J(u) - J(w)||^2 =", 2 * F.form([(0, 1), (1, -1)]),
      " vs  ||u - w||_1 =", F.row(0, 1, 2)[0])

print()
print("=== free group: the kernel is the word metric ===")
f2 = GroupPresentation(("a", "b"))
tree = make_bicombing("tree_geodesic", ball(f2, 4))
K = kernel_from_bicombing(tree)
i, j = K.index_of("ab"), K.index_of("b")
print("K(ab, b) =", K.row(i, j, j + 1)[0] / 2)
print("centered min eigenvalue:", cnd_min_eigenvalue(K))
print("cross-validation discrepancy:", kernel_cross_validate(K))
print("displacement constant:", K.displacement_constant, "(translations are isometries)")

print()
print("=== surface group: displacement appears at radius 4 ===")
surface = GroupPresentation(("a", "b", "c", "d"), ("abABcdCD",), "dehn")
anti = make_bicombing("shortlex_antisymmetrized", ball(surface, 4))
Ks = kernel_from_bicombing(anti)
print("two-sided displacement over the scan split:", Ks.displacement_constant)
print("centered min eigenvalue on the radius-2 ball:",
      cnd_min_eigenvalue(Ks, range(Ks.ball.size_within(2))))

rows = displacement_decomposition(Ks, "ab", range(Ks.ball.size_within(1)))
moved = [r for r in rows if r.excess != 0] or rows
r = moved[0]
print(f"pair ({r.x or 'e'}, {r.y or 'e'}) under s=ab: excess {r.excess} "
      f"<= triangle areas {r.area_first} + {r.area_second}")
