"""Cayley balls and the word problem in three reduction regimes.

Walks through the free group, the genus-2 surface group (small cancellation,
Dehn's algorithm), and a direct product of free groups (confluent rewriting),
showing how normal forms, ball enumeration, and word distances behave in each.
The ball is the one naming authority: products are named by ``ball.name``,
and canonical words are geodesics, so a distance is a canonical word's length.
"""

from l1comb import GroupPresentation, ball, invert

print("=== free group on a, b ===")
f2 = GroupPresentation(("a", "b"))
print("reduce aAbB       ->", repr(f2.normal("aAbB")))
b = ball(f2, 5)
print("multiply ab * Ba  ->", repr(b.name("ab" + "Ba")))
print("sphere sizes      ->", b.sphere_sizes(), "(4 * 3^(n-1) per sphere)")
print("d(e, abab)        ->", len(b.geodesic("abab")))

print()
print("=== genus-2 surface group, relator abABcdCD, Dehn's algorithm ===")
surface = GroupPresentation(("a", "b", "c", "d"), ("abABcdCD",), "dehn")
print("relator reduces   ->", repr(surface.normal("abABcdCD")))
print("long subword      -> abABc becomes", repr(surface.normal("abABc")))

# greedy reduction alone cannot see that the two relator halves agree, so
# ball enumeration settles element identity with the triviality oracle
print("abAB == dcDC      ->", surface.is_identity(invert("abAB") + "dcDC"))
bs = ball(surface, 4)
print("sphere sizes      ->", bs.sphere_sizes(), "(eight pairs merge at radius 4)")
print("canonical of dcDC ->", repr(bs.name("dcDC")))
idx = bs.canonical_index("dcDC")
print("d(e, dcDC)        ->", len(bs.elements[idx]), "(index", idx, "in the ball)")

print()
print("=== product of two free groups, shortlex rewriting system ===")
rules = tuple((x + y, y + x) for x in "cCdD" for y in "aAbB")
product = GroupPresentation(
    ("a", "b", "c", "d"), ("acAC", "adAD", "bcBC", "bdBD"), "rewriting", rules
)
print("normal form of ca ->", repr(product.normal("ca")))
print("relator acAC      ->", repr(product.normal("acAC")))
print("sphere sizes      ->", ball(product, 3).sphere_sizes())
