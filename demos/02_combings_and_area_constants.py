"""Combings as 1-chains: boundaries, equivariance, and empirical area.

A combing assigns to each vertex pair (x, y) a chain q[x, y] with boundary
y - x.  On a tree the three sides of any triangle cancel exactly; on the
surface group the triangle defect is positive and its maximum over a scanned
ball is the empirical area constant that later feeds the uniform bound.
"""

from l1comb import (
    GroupPresentation,
    TriplePolicy,
    antisymmetrize,
    area,
    ball,
    boundary,
    combing_chain,
    empirical_area_constant,
    make_bicombing,
    quasi_geodesic_constants,
    translate_chain,
)

print("=== tree combing on the free group ===")
f2 = GroupPresentation(("a", "b"))
b4 = ball(f2, 4)
tree = make_bicombing("tree_geodesic", b4)
q = combing_chain(tree, "", "abA")
print("q[e, abA] edges:")
print(sorted(q.coeffs.items()))
print("boundary         ->", boundary(q, b4))
print("area(e, ab, ba)  ->", area(tree, "", "ab", "ba"), "(trees have zero area)")
scan = empirical_area_constant(tree, radius=3)
print(f"exhaustive scan  -> M_emp = {scan.value} over {scan.triples_scanned} triples")

print()
print("=== shortlex combing on the surface group ===")
surface = GroupPresentation(("a", "b", "c", "d"), ("abABcdCD",), "dehn")
bs = ball(surface, 4)
raw = make_bicombing("shortlex", bs)
anti = antisymmetrize(raw)

# equivariance is exact, coefficient for coefficient
s, z = "ab", "cd"
assert translate_chain(s, combing_chain(raw, "", z), bs) == combing_chain(raw, s, bs.name(s + z))
print("translate s.q[e,z] == q[s,sz] verified for s=ab, z=cd")

policy = TriplePolicy(samples=2000, seed=0, exhaustive_limit=0)
m_raw = empirical_area_constant(raw, radius=2, policy=policy)
m_anti = empirical_area_constant(anti, radius=2, policy=policy)
print(f"sampled area, raw           -> {m_raw.value} at {m_raw.witness}")
print(f"sampled area, antisymmetric -> {m_anti.value} at {m_anti.witness}")

qg = quasi_geodesic_constants(anti)
print(f"quasi-geodesic constants    -> lambda = {qg.lambda_emp}, c = {qg.c_emp}")
print("(shortlex words are geodesic, and chain norms never drop below distance)")
