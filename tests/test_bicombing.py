import random
from fractions import Fraction

import functools

import pytest
from conftest import SWAP_RULES, oracle_area, oracle_chain, scale
from hypothesis import given, settings
from hypothesis import strategies as st

from l1comb import (
    Chain1,
    GroupPresentation,
    TriplePolicy,
    antisymmetrize,
    area,
    ball,
    boundary,
    combing_chain,
    empirical_area_constant,
    invert,
    make_bicombing,
    quasi_geodesic_constants,
    translate_chain,
)
from l1comb.bicombing import KINDS
from l1comb.groups import OutOfBallError


def _random_chain(rng, cayley_ball, size=5, span=3, radius=None):
    """Random integer chain on edges whose sources lie within ``radius``
    (default: the whole ball)."""
    coeffs = {}
    n = cayley_ball.size_within(cayley_ball.radius if radius is None else radius)
    gens = cayley_ball.presentation.generators
    for _ in range(size):
        src = cayley_ball.elements[rng.randrange(n)]
        coeffs[(src, rng.choice(gens))] = rng.randint(-span, span)
    return Chain1(coeffs)


class TestCombingChains:
    def test_unique_geodesic_chain(self, tree_spec):
        q = combing_chain(tree_spec, "", "ab")  # the doubled chain 2 q
        assert q.coeffs == {("", "a"): 2, ("a", "b"): 2}

    def test_empty_chain_on_equal_endpoints(self, tree_spec, surface_anti):
        for spec in (tree_spec, surface_anti):
            assert combing_chain(spec, "ab", "ab").coeffs == {}

    def test_reverse_edge_is_negated_coefficient(self, tree_spec):
        q = combing_chain(tree_spec, "a", "")
        assert q.coeffs == {("", "a"): -2}

    def test_out_of_ball_pair_rejected(self, surface_anti):
        far = "abab"  # distance 4; squared against itself leaves ball(4)
        with pytest.raises(OutOfBallError):
            combing_chain(surface_anti, invert(far), far)

    def test_tree_requires_free_mode(self, surface_ball4):
        with pytest.raises(ValueError):
            make_bicombing("tree_geodesic", surface_ball4)


class TestBoundary:
    def test_boundary_of_combing_chains(self, tree_spec, f2_ball4):
        for i in range(1, len(f2_ball4.elements)):
            s = f2_ball4.elements[i]
            assert boundary(combing_chain(tree_spec, "", s), f2_ball4) == {s: 2, "": -2}

    def test_boundary_of_empty_chain(self, f2_ball4):
        assert boundary(Chain1(), f2_ball4) == {}

    def test_boundary_is_linear(self, f2_ball4):
        rng = random.Random(3)
        for _ in range(20):
            c1 = _random_chain(rng, f2_ball4)
            c2 = _random_chain(rng, f2_ball4)
            lhs = boundary(c1 + c2, f2_ball4)
            rhs = {}
            for part in (boundary(c1, f2_ball4), boundary(c2, f2_ball4)):
                for k, v in part.items():
                    t = rhs.get(k, 0) + v
                    if t:
                        rhs[k] = t
                    else:
                        rhs.pop(k, None)
            assert lhs == rhs


class TestChainNorm:
    def test_geodesic_chain_norm_is_word_length(self, tree_spec, f2_ball4):
        for i in range(len(f2_ball4.elements)):
            s = f2_ball4.elements[i]
            assert combing_chain(tree_spec, "", s).l1_norm() == 2 * len(s)

    def test_zero_norm(self):
        assert Chain1().l1_norm() == 0

    def test_homogeneity(self, tree_spec):
        c = combing_chain(tree_spec, "", "abAB"[:3])
        assert scale(c, Fraction(1, 2)).l1_norm() == Fraction(1, 2) * c.l1_norm()


class TestAntisymmetrize:
    def test_tree_chains_already_antisymmetric(self, tree_spec):
        anti = antisymmetrize(make_bicombing("shortlex", tree_spec.ball))
        rng = random.Random(5)
        words = tree_spec.ball.elements
        for _ in range(25):
            x = words[rng.randrange(len(words) // 2)]
            y = words[rng.randrange(len(words) // 2)]
            assert combing_chain(anti, x, y) == combing_chain(tree_spec, x, y)

    def test_exact_antisymmetry_on_surface(self, surface_anti, surface_ball4):
        rng = random.Random(6)
        inner = surface_ball4.size_within(2)
        for _ in range(25):
            x = surface_ball4.elements[rng.randrange(inner)]
            y = surface_ball4.elements[rng.randrange(inner)]
            total = combing_chain(surface_anti, x, y) + combing_chain(surface_anti, y, x)
            assert total.coeffs == {}

    def test_averaged_norm_bounded_by_max(self, surface_anti, surface_ball4):
        raw = make_bicombing("shortlex", surface_ball4)
        rng = random.Random(7)
        inner = surface_ball4.size_within(2)
        for _ in range(25):
            x = surface_ball4.elements[rng.randrange(inner)]
            y = surface_ball4.elements[rng.randrange(inner)]
            anti_norm = combing_chain(surface_anti, x, y).l1_norm()
            raw_norms = (
                combing_chain(raw, x, y).l1_norm(),
                combing_chain(raw, y, x).l1_norm(),
            )
            assert anti_norm <= max(raw_norms)

    def test_antisymmetrize_is_idempotent(self, surface_anti):
        assert antisymmetrize(surface_anti) is surface_anti


class TestTranslate:
    def test_equivariance_coefficient_for_coefficient(self, surface_anti, surface_ball4):
        rng = random.Random(8)
        inner = surface_ball4.size_within(2)
        for _ in range(25):
            s = surface_ball4.elements[rng.randrange(inner)]
            z = surface_ball4.elements[rng.randrange(inner)]
            lhs = translate_chain(s, combing_chain(surface_anti, "", z), surface_ball4)
            rhs = combing_chain(surface_anti, s, surface_ball4.name(s + z))
            assert lhs == rhs

    def test_identity_translation(self, f2_ball4):
        rng = random.Random(9)
        c = _random_chain(rng, f2_ball4)
        assert translate_chain("", c, f2_ball4) == c

    def test_l1_invariance(self, f2_ball4, surface_ball4):
        # surface sources stay within radius 2, so that s . src, with s
        # within radius 2 too, has a name in the radius-4 ball
        rng = random.Random(10)
        for b, radius in ((f2_ball4, 4), (surface_ball4, 2)):
            inner = b.size_within(2)
            for _ in range(15):
                c = _random_chain(rng, b, radius=radius)
                s = b.elements[rng.randrange(inner)]
                assert translate_chain(s, c, b).l1_norm() == c.l1_norm()


class TestArea:
    def test_tree_triples_have_zero_area(self, tree_spec, f2_ball4):
        words = f2_ball4.elements[: f2_ball4.size_within(2)]
        for x in words:
            for y in words:
                for z in words:
                    assert area(tree_spec, x, y, z) == 0

    def test_sampled_tree_triples_radius4(self, tree_spec, f2_ball4):
        rng = random.Random(12)
        n = len(f2_ball4.elements)
        for _ in range(200):
            triple = [f2_ball4.elements[rng.randrange(n)] for _ in range(3)]
            assert area(tree_spec, *triple) == 0

    def test_degenerate_triple_antisymmetric(self, surface_anti, surface_ball4):
        inner = surface_ball4.size_within(2)
        for i in range(0, inner, 7):
            x = surface_ball4.elements[i]
            assert area(surface_anti, x, x, "ab") == 0

    def test_surface_triangle_through_the_origin_is_a_tripod(self, surface_anti):
        # geodesics e->ab, ab->cd, cd->e all run through e, so edges cancel
        assert area(surface_anti, "", "ab", "cd") == 0

    def test_area_deterministic(self, surface_anti):
        v1 = area(surface_anti, "", "ab", "dcD")
        v2 = area(surface_anti, "", "ab", "dcD")
        assert v1 == v2 and v1 >= 0


class TestAreaScan:
    def test_tree_exhaustive_radius3(self, tree_spec):
        res = empirical_area_constant(tree_spec, radius=3)
        assert res.exhaustive
        assert res.value == 0
        assert res.witness == ("", "", "")

    def test_policy_switches_to_sampling(self, tree_spec):
        policy = TriplePolicy(exhaustive_limit=10, samples=100, seed=4)
        res = empirical_area_constant(tree_spec, radius=3, policy=policy)
        assert not res.exhaustive
        assert res.triples_scanned == 100
        assert res.value == 0

    def test_antisymmetrized_not_worse_than_raw(self, surface_ball4):
        raw = make_bicombing("shortlex", surface_ball4)
        anti = antisymmetrize(raw)
        policy = TriplePolicy(exhaustive_limit=0, samples=400, seed=13)
        m_raw = empirical_area_constant(raw, radius=2, policy=policy).value
        m_anti = empirical_area_constant(anti, radius=2, policy=policy).value
        assert m_anti <= m_raw

    def test_sampled_surface_scan_reduces_no_word(self, surface_anti, monkeypatch):
        # a path x -> y follows y's own word from e and otherwise x^-1 y
        # walked on the multiplication table, so no lookup runs the oracle
        calls = []
        normal = GroupPresentation.normal

        def counted(self, word):
            calls.append(word)
            return normal(self, word)

        monkeypatch.setattr(GroupPresentation, "normal", counted)
        policy = TriplePolicy(exhaustive_limit=0, samples=2000, seed=3)
        res = empirical_area_constant(surface_anti, radius=2, policy=policy)
        assert res.triples_scanned == 2000 and res.value > 0
        assert calls == []

    def test_surface_scan_finds_positive_constant(self, surface_anti):
        policy = TriplePolicy(exhaustive_limit=0, samples=500, seed=14)
        res = empirical_area_constant(surface_anti, radius=2, policy=policy)
        assert res.value > 0
        assert res.witness != ("", "", "")


class TestQuasiGeodesic:
    def test_tree_constants(self, tree_spec):
        qg = quasi_geodesic_constants(tree_spec)
        assert (qg.lambda_emp, qg.c_emp) == (1, 0)

    def test_shortlex_constants_on_surface(self, surface_anti, surface_ball4):
        raw = make_bicombing("shortlex", surface_ball4)
        qg = quasi_geodesic_constants(raw)
        assert (qg.lambda_emp, qg.c_emp) == (1, 0)
        # antisymmetrized chains still realize the distance exactly
        qga = quasi_geodesic_constants(surface_anti)
        assert (qga.lambda_emp, qga.c_emp) == (1, 0)
        assert qga.pairs_scanned == len(surface_ball4.elements) - 1


@pytest.mark.parametrize("scan, name", [(empirical_area_constant, "area scan"),
                                         (quasi_geodesic_constants, "quasi-geodesic scan")],
                         ids=["area", "quasi-geodesic"])
def test_scan_radius_must_lie_in_the_ball(f2, scan, name):
    # a radius beyond the ball would scan the whole ball under that radius's
    # name, and a negative one would scan nothing
    spec = make_bicombing("tree_geodesic", ball(f2, 2))
    with pytest.raises(OutOfBallError, match=f"{name} radius 10 exceeds the ball radius 2"):
        scan(spec, radius=10)
    with pytest.raises(ValueError, match=f"{name} radius must be >= 0"):
        scan(spec, radius=-1)
    assert scan(spec, radius=2) == scan(spec)


PRESENTATIONS = {
    "f2": lambda: GroupPresentation(("a", "b")),
    "surface": lambda: GroupPresentation(("a", "b", "c", "d"), ("abABcdCD",), "dehn"),
    "f2xf2": lambda: GroupPresentation(("a", "b", "c", "d"),
                                       ("acAC", "adAD", "bcBC", "bdBD"), "rewriting",
                                       SWAP_RULES),
}


@functools.cache
def _oracle_case(pres, radius, scan, kind):
    b = ball(PRESENTATIONS[pres](), radius)
    return make_bicombing(kind, b), b.elements[:b.size_within(scan)]


# (presentation, ball radius, radius of the scanned elements, kind): the
# surface ball holds every product of two elements of radius 2
ORACLE_CASES = [("f2", 3, 3, kind) for kind in KINDS] + [
    (pres, 4, 2, kind) for pres in ("surface", "f2xf2") for kind in KINDS[1:]]


@pytest.mark.parametrize("case", ORACLE_CASES, ids=lambda case: f"{case[0]}-{case[3]}")
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_doubled_chains_are_twice_the_fraction_oracle(case, data):
    # the int chains are 2 q of the Fraction oracle's q, coefficient for
    # coefficient, and so are their boundaries and triangle areas
    spec, words = _oracle_case(*case)
    x, y, z = (data.draw(st.sampled_from(words)) for _ in range(3))
    chain, half = combing_chain(spec, x, y), oracle_chain(spec, x, y)
    assert all(type(c) is int for c in chain.coeffs.values())
    assert chain.coeffs == {edge: 2 * c for edge, c in half.coeffs.items()}
    b = spec.ball
    assert boundary(chain, b) == {v: 2 * c for v, c in boundary(half, b).items()}
    twice = area(spec, x, y, z)
    assert type(twice) is int and twice == 2 * oracle_area(spec, x, y, z)
