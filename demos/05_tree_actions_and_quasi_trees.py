"""Actions on trees, orbit kernels, and validated quasi-tree inputs.

A homomorphism to a free group presents an isometric action on that group's
Cayley tree; the orbit kernel's measured displacement constant reads 0, so
the affine action is uniformly Lipschitz with bound 1, and orbit growth
decides boundedness on the scanned range.  Quasi-tree geometry enters only through
kernels validated against the sandwich d - delta <= K <= d.
"""

from l1comb import (
    GroupPresentation,
    ball,
    free_reduce,
    invert,
    orbit_growth_report,
    orbit_kernel,
    parse_action,
    parse_quasitree_csv,
    validate_quasitree_kernel,
)

print("=== the free group acting on its own tree ===")
f2 = GroupPresentation(("a", "b"))
identity = parse_action("target_rank: 2\na -> a\nb -> b\n", f2)
K = orbit_kernel(identity, ball(f2, 5))
print("measured displacement constant M =", K.displacement_constant)
growth = orbit_growth_report(K)
print("verdict:", growth.verdict, " fitted c =", round(growth.fitted_constant, 9))
print("sphere maxima:", {n: round(v, 4) for n, v in sorted(growth.sphere_maxima.items())})

print()
print("=== product group projecting onto one factor ===")
rules = tuple((x + y, y + x) for x in "cCdD" for y in "aAbB")
product = GroupPresentation(
    ("a", "b", "c", "d"), ("acAC", "adAD", "bcBC", "bdBD"), "rewriting", rules
)
projection = parse_action("target_rank: 2\na -> a\nb -> b\nc -> e\nd -> e\n", product)
Kp = orbit_kernel(projection, ball(product, 4))
second = orbit_growth_report(Kp, element_filter=lambda w: all(ch in "cCdD" for ch in w))
print("second factor only:", second.verdict,
      "(every row has ||b||_E = 2: the factor acts trivially)")
full = orbit_growth_report(Kp)
print("whole ball:        ", full.verdict, " fitted c =", round(full.fitted_constant, 9))

print()
print("=== quasi-tree kernel validation ===")
words = ball(f2, 2).elements
lines = ["delta: 0.0", "x,y,d,K"]
for i, x in enumerate(words):
    for y in words[i + 1:]:
        d = len(free_reduce(invert(x) + y))
        lines.append(f"{x or 'e'},{y or 'e'},{d},{d}")
data = parse_quasitree_csv("\n".join(lines))
print("exact tree kernel accepted:", validate_quasitree_kernel(data).passed)

bumped = dict(data.kernel_values)
key = next(iter(bumped))
bumped[key] += 0.5
from l1comb import QuasiTreeKernelInput

bad = QuasiTreeKernelInput(data.labels, data.distances, bumped, 0.0)
report = validate_quasitree_kernel(bad)
print("bumped kernel rejected:", not report.passed)
print("witness:", report.failures[0])
