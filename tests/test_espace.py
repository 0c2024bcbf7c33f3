import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from conftest import scale, serve_rows
from hypothesis import given, settings, strategies as st

from l1comb import (
    EVector,
    MeanZeroError,
    OutOfBallError,
    ball,
    check_cocycle_identity,
    cocycle,
    empirical_displacement_constant,
    invert,
    kernel_from_bicombing,
    make_bicombing,
    norm_e,
    norm_f,
    op_norm_lower_bound,
    per_vector_bound_check,
    properness_report,
    quadratic_form,
    rep_apply,
    uniform_bound,
)


def _random_mean_zero(rng, words, size=4, span=3):
    support = rng.sample(range(len(words)), min(size, len(words)))
    coeffs = [rng.randint(-span, span) for _ in support]
    coeffs[-1] -= sum(coeffs)
    return EVector({words[i]: c for i, c in zip(support, coeffs)})


def _wrong_product_ball(f2):
    """The F2 r=2 ball with a b read as bb on its multiplication table."""
    b = ball(f2, 2)
    b.adjacency[b.index["a"] * len(f2.alphabet) + f2.alphabet.index("b")] = b.index["bb"]
    return b


# a word of at most 2 letters with a cancelling pair t t^-1 spliced in
_short_unreduced_words = st.builds(
    lambda u, t, cut: u[:cut] + t + invert(t) + u[cut:],
    st.text("aAbBcCdD", max_size=2), st.text("aAbBcCdD", max_size=1),
    st.integers(0, 2),
)


class TestEVector:
    def test_mean_zero_enforced(self):
        with pytest.raises(MeanZeroError):
            EVector({"a": 1})
        with pytest.raises(MeanZeroError):
            EVector({"a": Fraction(1, 2), "": Fraction(-2, 5)})
        # a float mean cannot be decided exactly
        with pytest.raises(TypeError):
            EVector({"a": 0.5, "": -0.5})

    def test_zero_coefficients_dropped(self):
        v = EVector({"a": 1, "b": 0, "": -1})
        assert v.support() == ["", "a"]

    def test_arithmetic(self):
        v = EVector({"a": 1, "": -1})
        w = EVector({"b": 2, "": -2})
        assert (v + w).coeffs == {"a": 1, "b": 2, "": -3}
        assert (v - v).coeffs == {}
        assert scale(v, 3).l1_norm() == 6


class TestCocycle:
    def test_identity_maps_to_zero(self):
        assert cocycle("").coeffs == {}

    def test_l1_norm_two(self):
        for s in ("a", "ab", "BA"):
            assert cocycle(s).l1_norm() == 2
            assert cocycle(s).support() == sorted([s, ""])

    def test_cocycle_identity_exhaustive_small(self, f2_ball4):
        n = f2_ball4.size_within(2)
        for i in range(n):
            for j in range(n):
                s, t = f2_ball4.elements[i], f2_ball4.elements[j]
                assert check_cocycle_identity(s, t, f2_ball4) == 0

    def test_cocycle_identity_with_inverse(self, f2_ball4):
        for s in ("a", "ab", "bA"):
            assert check_cocycle_identity(s, s[::-1].swapcase(), f2_ball4) == 0

    def test_cocycle_identity_sees_a_wrong_product(self, f2):
        # one product inside the inner ball corrupted on the table, a b read
        # as bb: pi(a) b(b) walks the table, b(ab) names ab by the word
        # problem, so the residual is delta_ab - delta_bb there and 0 elsewhere
        b = _wrong_product_ball(f2)
        inner = b.elements[:b.size_within(1)]
        assert {(s, t) for s in inner for t in inner
                if check_cocycle_identity(s, t, b)} == {("a", "b")}
        assert check_cocycle_identity("a", "b", b) == 1

    def test_cocycle_identity_is_the_largest_residual_coefficient(self, f2,
                                                                  surface_ball4):
        # the residual b(st) - pi(s) b(t) - b(s) built from cocycle, with
        # pi(s) b(t) = b(s t walked) - b(s), on every pair of the surface
        # half-radius ball and of the corrupted table's inner ball
        def residual(s, t, b):
            walked = b.elements[b.walk(b.index[s], t)]
            res = cocycle(b.name(s + t)) - (cocycle(walked) - cocycle(s)) - cocycle(s)
            return max((abs(c) for c in res.coeffs.values()), default=0)

        for b, radius in ((surface_ball4, 2), (_wrong_product_ball(f2), 1)):
            inner = b.elements[:b.size_within(radius)]
            for s in inner:
                for t in inner:
                    assert check_cocycle_identity(s, t, b) == residual(s, t, b), (s, t)

    def test_cocycle_identity_surface(self, surface_ball4):
        rng = random.Random(41)
        inner = surface_ball4.size_within(2)
        for _ in range(50):
            s = surface_ball4.elements[rng.randrange(inner)]
            t = surface_ball4.elements[rng.randrange(inner)]
            assert check_cocycle_identity(s, t, surface_ball4) == 0


class TestRepresentation:
    def test_definition(self, f2_ball4):
        v = EVector({"b": 1, "": -1})
        assert rep_apply("a", v, f2_ball4).coeffs == {"ab": 1, "a": -1}

    def test_identity_acts_trivially(self, f2_ball4):
        rng = random.Random(42)
        for _ in range(10):
            v = _random_mean_zero(rng, f2_ball4.elements[:20])
            assert rep_apply("", v, f2_ball4) == v

    def test_homomorphism_exact(self, f2_ball4, surface_ball4):
        rng = random.Random(43)
        for b in (f2_ball4, surface_ball4):
            inner = b.size_within(1)
            words = b.elements[: b.size_within(2)]
            for _ in range(20):
                s = b.elements[rng.randrange(inner)]
                t = b.elements[rng.randrange(inner)]
                v = _random_mean_zero(rng, words)
                st = b.name(s + t)
                assert rep_apply(st, v, b) == rep_apply(s, rep_apply(t, v, b), b)

    def test_words_naming_one_element_are_summed(self, surface_ball4):
        # abAB = dcDC in the surface group: the two used to overwrite each
        # other, leaving {"aabAB": -1}, whose sum is -1
        v = EVector({"abAB": 1, "dcDC": -1})
        assert rep_apply("A", v, surface_ball4) == EVector()
        w = EVector({"abAB": 2, "dcDC": 1, "a": -3})
        assert rep_apply("A", w, surface_ball4) == EVector({"bAB": 3, "": -3})
        # aabAB lies outside the radius-4 ball, where dehn mode names nothing
        with pytest.raises(OutOfBallError):
            rep_apply("a", w, surface_ball4)

    @settings(max_examples=60, deadline=None)
    @given(coeffs=st.dictionaries(_short_unreduced_words, st.integers(-3, 3),
                                  min_size=1, max_size=6),
           s=st.sampled_from(["", "a", "Bc", "aA"]))
    def test_translate_keeps_mean_zero_for_any_words(self, surface_ball4, coeffs, s):
        # words need not be reduced or canonical, so several may name one
        # element; words and s name elements within radius 2, so every
        # translate has a name in the radius-4 ball
        coeffs[next(iter(coeffs))] -= sum(coeffs.values())
        v = EVector(coeffs)
        image = rep_apply(s, v, surface_ball4)
        assert sum(image.coeffs.values()) == 0
        assert all(image.coeffs.values())
        assert image.l1_norm() <= v.l1_norm()

    def test_l1_and_mean_zero_preserved(self, f2_ball4):
        rng = random.Random(44)
        for _ in range(20):
            v = _random_mean_zero(rng, f2_ball4.elements[:30])
            image = rep_apply("ab", v, f2_ball4)
            assert image.l1_norm() == v.l1_norm()
            assert sum(image.coeffs.values()) == 0


class TestNorms:
    def test_norm_f_of_cocycle_is_sqrt_kernel(self, tree_kernel):
        v = EVector({"ab": 1, "": -1})
        assert abs(norm_f(v, tree_kernel) - math.sqrt(2)) < 1e-12
        for s in ("a", "ba", "abA"):
            expected = math.sqrt(tree_kernel.row(tree_kernel.index_of(s), 0, 1)[0] / 2)
            assert abs(norm_f(cocycle(s), tree_kernel) - expected) < 1e-12

    def test_zero_vector(self, tree_kernel):
        assert norm_f(EVector(), tree_kernel) == 0.0
        assert norm_e(EVector(), tree_kernel) == 0.0

    def test_norm_e_splits(self, tree_kernel):
        for s in ("a", "ab"):
            b = cocycle(s)
            assert norm_e(b, tree_kernel) == norm_f(b, tree_kernel) + 2

    def test_homogeneity(self, tree_kernel, f2_ball4):
        rng = random.Random(45)
        for _ in range(10):
            v = _random_mean_zero(rng, f2_ball4.elements[:20])
            assert abs(norm_e(scale(v, 2), tree_kernel) - 2 * norm_e(v, tree_kernel)) < 1e-9

    def test_support_escape(self, tree_kernel):
        v = EVector({"ababa": 1, "": -1})  # length 5 > kernel radius 4
        with pytest.raises(OutOfBallError, match="'ababa' is outside the kernel's ball"):
            norm_f(v, tree_kernel)



class TestPerVectorBound:
    def test_invariant_kernel_gives_zero_lhs(self, tree_kernel, f2_ball4):
        rng = random.Random(46)
        inner = f2_ball4.size_within(2)
        for _ in range(30):
            s = f2_ball4.elements[rng.randrange(inner)]
            v = _random_mean_zero(rng, f2_ball4.elements[:inner])
            res = per_vector_bound_check(s, v, tree_kernel)
            assert res.passed
            assert res.lhs == 0.0 and res.excess == 0.0

    def test_zero_vector(self, tree_kernel):
        res = per_vector_bound_check("a", EVector(), tree_kernel)
        assert res == type(res)(0.0, 0.0, True, 0.0)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_surface_samples_pass(self, surface_kernel, surface_ball4, data):
        # s from the s ball and a 4-point mean-zero v on the pair ball of the
        # r=4 scan split (2, 2)
        s_ball, pair_ball = (surface_ball4.elements[:surface_ball4.size_within(r)]
                             for r in surface_kernel.scan_split)
        s = data.draw(st.sampled_from(s_ball))
        support = data.draw(st.lists(st.sampled_from(pair_ball), min_size=4, max_size=4,
                                     unique=True))
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=4, max_size=4))
        coeffs[-1] -= sum(coeffs)
        res = per_vector_bound_check(s, EVector(dict(zip(support, coeffs))), surface_kernel)
        assert res.passed
        # decided exactly, with no tolerance
        assert all(isinstance(x, Fraction) for x in (res.lhs, res.rhs, res.excess))


class TestUniformBound:
    def test_values(self):
        assert uniform_bound(0) == 1.0
        assert uniform_bound(2) == 2.0
        assert uniform_bound(8) == 3.0
        # rounded up, by the least step: the float sum lies below the exact
        # sqrt(M/2) + 1 at M = 1, 1.5, 3 and 6, among others
        for m in (Fraction(k, 2) for k in range(101)):
            x = uniform_bound(float(m))
            assert (Fraction(x) - 1) ** 2 >= m / 2
            assert m == 0 or (Fraction(math.nextafter(x, 0)) - 1) ** 2 < m / 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            uniform_bound(-1)


# the coordinate ascent the two-point bound replaced, at its former default:
# 32 restarts of 500 steps, the step halved every 50 steps from 1.0
ASCENT_RESTARTS, ASCENT_STEPS = 32, 500


def _dense_probe(s, kernel, radius, seed):
    """Best ||pi(s)v||_E / ||v||_E found by a seeded multi-start coordinate
    ascent on dense float blocks of K: the reference the two-point bound must
    never fall below."""
    ball = kernel.ball
    n = ball.size_within(radius)
    if s == "":
        return 1.0
    trans_idx = [kernel.translate_index(s, x) for x in ball.elements[:n]]
    k_base = np.array(kernel.entries(range(n), range(n))) / 2.0
    k_trans = np.array(kernel.entries(trans_idx, trans_idx)) / 2.0

    def ratio(vec):
        l1 = float(np.abs(vec).sum())
        if l1 <= 0.0:
            return 0.0
        qb = float(-0.5 * vec @ k_base @ vec)
        qt = float(-0.5 * vec @ k_trans @ vec)
        return (math.sqrt(max(qt, 0.0)) + l1) / (math.sqrt(max(qb, 0.0)) + l1)

    best = 0.0
    for restart in range(ASCENT_RESTARTS):
        rng = random.Random(seed * 100_003 + restart)
        vec = np.array([rng.gauss(0.0, 1.0) for _ in range(n)])
        vec -= vec.mean()
        current = ratio(vec)
        step = 1.0
        for it in range(ASCENT_STEPS):
            if it and it % 50 == 0:
                step *= 0.5
            j = rng.randrange(n)
            trial = vec.copy()
            trial[j] += step if rng.getrandbits(1) else -step
            trial -= trial.mean()
            val = ratio(trial)
            if val > current:
                vec, current = trial, val
        best = max(best, current)
    return best


def _scan(b):
    """The anti-shortlex kernel of ``b`` with the s and the pair radius of
    its scan split."""
    kernel = kernel_from_bicombing(make_bicombing("shortlex_antisymmetrized", b))
    s_radius, v_radius = kernel.scan_split
    return kernel, b.elements[:b.size_within(s_radius)], v_radius


class TestOpNorm:
    def test_identity_is_exactly_one(self, tree_kernel):
        assert op_norm_lower_bound("", tree_kernel, 2) == (1.0, 0)

    def test_fewer_than_two_elements_rejected(self, tree_kernel):
        with pytest.raises(ValueError):
            op_norm_lower_bound("a", tree_kernel, 0)

    def test_tree_kernel_is_isometric(self, tree_kernel, f2_ball4):
        n = f2_ball4.size_within(2)
        for i in range(1, n):
            res = op_norm_lower_bound(f2_ball4.elements[i], tree_kernel, 2)
            assert res == (1.0, n * (n - 1) // 2)

    def test_surface_below_theoretical_bound(self, surface):
        b = ball(surface, 3)
        spec = make_bicombing("shortlex_antisymmetrized", b)
        kernel = kernel_from_bicombing(spec)
        # s from the 2-ball, vectors from the 1-ball: M over that split
        upper = uniform_bound(empirical_displacement_constant(kernel, 2, 1))
        for i in range(b.size_within(2)):
            s = b.elements[i]
            res = op_norm_lower_bound(s, kernel, 1)
            assert res.value <= upper + 1e-6

    @pytest.mark.parametrize("pres, radius", [("f2xf2", 3), ("surface", 3)])
    def test_equals_the_two_point_norms(self, request, pres, radius):
        # an independent evaluation: the E-norms of delta_x - delta_y and its
        # translate, through the form on F and the word problem
        b = ball(request.getfixturevalue(pres), radius)
        kernel, scanned, v_radius = _scan(b)
        words = b.elements[:b.size_within(v_radius)]
        for s in scanned:
            want = max(norm_e(rep_apply(s, v, b), kernel) / norm_e(v, kernel)
                       for i, x in enumerate(words) for y in words[i + 1:]
                       for v in [EVector({x: 1, y: -1})])
            assert abs(op_norm_lower_bound(s, kernel, v_radius).value - want) <= 1e-12, s

    def test_bracket_at_surface_r4(self, surface_kernel):
        # 1 by the pair (e, s^-1), sqrt(M/2) + 1 by K(sx, sy) <= K(x, y) + M
        s_radius, v_radius = surface_kernel.scan_split
        assert surface_kernel.displacement_constant == 6.0
        upper = uniform_bound(6.0)
        b = surface_kernel.ball
        values = [op_norm_lower_bound(s, surface_kernel, v_radius).value
                  for s in b.elements[:b.size_within(s_radius)]]
        assert all(1.0 <= v <= upper for v in values)
        assert max(values) > 1.5  # some s moves a two-point vector

    # on surface r=2 M is 0 and both read exactly 1.0 for every s; surface r=3
    # (split (1, 2)) and F2 x F2 r=3 have s that move ||.||_f
    @pytest.mark.parametrize("pres, radius", [("f2xf2", 3), ("surface", 2), ("surface", 3)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_never_below_the_ascent(self, request, pres, radius, seed):
        kernel, scanned, v_radius = _scan(ball(request.getfixturevalue(pres), radius))
        for s in scanned:
            found = op_norm_lower_bound(s, kernel, v_radius).value
            assert found >= _dense_probe(s, kernel, v_radius, seed), s

    def test_holds_no_square_block(self, surface_kernel):
        # S = ball(2) at surface r=4 (65 elements): the translate and base
        # rows are read in pairs, never as a |S|^2 block
        b = surface_kernel.ball
        S = range(b.size_within(2))
        tracemalloc.start()
        try:
            block = surface_kernel.entries(S, S)
            size = tracemalloc.get_traced_memory()[0]
            del block
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            op_norm_lower_bound("cd", surface_kernel, 2)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert len(S) == 65
        assert peak < 1.5 * size, peak / size

    def test_two_calls_are_equal(self, surface_kernel):
        assert (op_norm_lower_bound("cd", surface_kernel, 2)
                == op_norm_lower_bound("cd", surface_kernel, 2))


class TestProperness:
    def test_tree_rows_are_exact(self, tree_kernel):
        report = properness_report(tree_kernel)
        for row in report.rows:
            assert row.norm_e == row.norm_f + row.norm_l1
            assert abs(row.norm_e - (math.sqrt(row.distance) + 2.0)) < 1e-12

    def test_distance_four_lower_bound_is_four(self, tree_kernel):
        row = next(r for r in properness_report(tree_kernel).rows if r.distance == 4)
        assert row.lower_bound == 4.0

    def test_surface_rows_pass(self, surface_kernel):
        report = properness_report(surface_kernel)
        assert len(report.rows) == surface_kernel.n - 1
        for row in report.rows:
            assert row.norm_e >= row.lower_bound - 1e-9

    def test_reads_row_zero_once(self, surface_kernel):
        # every read of 2K is counted, as a translate block or as a row
        # (entries reads rows)
        reads = []
        translate_rows, row = surface_kernel.translate_rows, surface_kernel.row

        def counted_translate_rows(s, indices):
            reads.append(("translate_rows", s))
            return translate_rows(s, indices)

        def counted_row(i, lo=0, hi=None):
            reads.append(("row", i, lo, hi))
            return row(i, lo, hi)

        surface_kernel.translate_rows, surface_kernel.row = counted_translate_rows, counted_row
        try:
            properness_report(surface_kernel)
        finally:
            del surface_kernel.translate_rows, surface_kernel.row
        assert reads == [("row", 0, 0, None)]

    def test_sphere_minima_nondecreasing(self, tree_kernel):
        minima = properness_report(tree_kernel).sphere_minima()
        values = [minima[r] for r in sorted(minima)]
        assert values == sorted(values)

    def test_failing_row_names_the_element(self, f2):
        from l1comb import PropernessError, kernel_from_bicombing

        kernel = kernel_from_bicombing(make_bicombing("tree_geodesic", ball(f2, 2)))
        i = kernel.index_of("ab")
        kernel = serve_rows(kernel, {(i, 0): 0, (0, i): 0})  # fake a collapsed norm
        with pytest.raises(PropernessError, match="ab"):
            properness_report(kernel)

    def test_quadratic_form_matches_norm(self, tree_kernel, f2_ball4):
        rng = random.Random(48)
        for _ in range(10):
            v = _random_mean_zero(rng, f2_ball4.elements[:17])
            q = quadratic_form(v, tree_kernel)
            assert abs(math.sqrt(max(q, 0.0)) - norm_f(v, tree_kernel)) < 1e-12
