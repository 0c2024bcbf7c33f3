import math
import random
from fractions import Fraction

import numpy as np
import pytest
from conftest import serve_rows
from hypothesis import given, settings, strategies as st

from l1comb import (
    EVector,
    MeanZeroError,
    OpNormConfig,
    SupportEscapeError,
    check_cocycle_identity,
    cocycle,
    empirical_displacement_constant,
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
        assert v.scale(3).l1_norm() == 6


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
        assert rep_apply("a", v, surface_ball4) == EVector()
        w = EVector({"abAB": 2, "dcDC": 1, "a": -3})
        assert rep_apply("a", w, surface_ball4) == EVector({"aabAB": 3, "aa": -3})

    @settings(max_examples=60, deadline=None)
    @given(coeffs=st.dictionaries(st.text("aAbBcCdD", max_size=4),
                                  st.integers(-3, 3), min_size=1, max_size=6),
           s=st.sampled_from(["", "a", "Bc", "abAB"]))
    def test_translate_keeps_mean_zero_for_any_words(self, surface_ball4, coeffs, s):
        # words need not be reduced or canonical, so several may name one element
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
            expected = math.sqrt(tree_kernel.value(tree_kernel.index_of(s), 0))
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
            assert abs(norm_e(v.scale(2), tree_kernel) - 2 * norm_e(v, tree_kernel)) < 1e-9

    def test_support_escape(self, tree_kernel):
        v = EVector({"ababa": 1, "": -1})  # length 5 > kernel radius 4
        with pytest.raises(SupportEscapeError):
            norm_f(v, tree_kernel)

    def test_non_cnd_kernel_detected_under_the_root(self, f2_ball4):
        from l1comb import Chain1, NonCndFormError
        from l1comb.kernel import DisplacementKernel, SlotEmbedding

        values = np.array([[0, 9, 1], [9, 0, 1], [1, 1, 0]], dtype=np.int8)
        bad = serve_rows(
            DisplacementKernel(ball=f2_ball4, embedding=SlotEmbedding([Chain1()] * 3),
                               radius=1),
            {(i, j): 2 * int(t) for (i, j), t in np.ndenumerate(values)})
        v = EVector({"": 1, "a": 1, "A": -2})
        with pytest.raises(NonCndFormError):
            norm_f(v, bad)


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

    def test_surface_samples_pass(self, surface_kernel, surface_ball4):
        rng = random.Random(47)
        inner = surface_ball4.size_within(2)
        for _ in range(30):
            s = surface_ball4.elements[rng.randrange(inner)]
            v = _random_mean_zero(rng, surface_ball4.elements[:inner])
            res = per_vector_bound_check(s, v, surface_kernel)
            assert res.passed
            # decided exactly, with no tolerance
            assert all(isinstance(x, Fraction) for x in (res.lhs, res.rhs, res.excess))


class TestUniformBound:
    def test_values(self):
        assert uniform_bound(0) == 1.0
        assert uniform_bound(2) == 2.0
        assert uniform_bound(8) == 3.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            uniform_bound(-1)


class TestOpNorm:
    def test_identity_is_exactly_one(self, tree_kernel):
        res = op_norm_lower_bound("", tree_kernel, 2)
        assert res.value == 1.0

    def test_tree_kernel_is_isometric(self, tree_kernel, f2_ball4):
        config = OpNormConfig(restarts=6, iterations=150, seed=3)
        for i in f2_ball4.indices_within(2):
            s = f2_ball4.elements[i]
            res = op_norm_lower_bound(s, tree_kernel, 2, config)
            assert abs(res.value - 1.0) <= 1e-9

    def test_surface_below_theoretical_bound(self, surface):
        from l1comb import ball

        b = ball(surface, 3)
        spec = make_bicombing("shortlex_antisymmetrized", b)
        kernel = kernel_from_bicombing(spec)
        # s from the 2-ball, vectors from the 1-ball: M over that split
        upper = uniform_bound(empirical_displacement_constant(kernel, 2, 1))
        config = OpNormConfig(restarts=6, iterations=150, seed=5)
        for i in b.indices_within(2):
            s = b.elements[i]
            res = op_norm_lower_bound(s, kernel, 1, config)
            assert res.value <= upper + 1e-6

    def test_deterministic_under_seed(self, tree_kernel):
        config = OpNormConfig(restarts=4, iterations=100, seed=9)
        a = op_norm_lower_bound("ab", tree_kernel, 2, config)
        b = op_norm_lower_bound("ab", tree_kernel, 2, config)
        assert a == b


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
        reads = []
        serve = surface_kernel.row

        def counted(i):
            reads.append(i)
            return serve(i)

        surface_kernel.row = counted
        try:
            properness_report(surface_kernel)
        finally:
            del surface_kernel.row
        assert reads == [0]

    def test_sphere_minima_nondecreasing(self, tree_kernel):
        minima = properness_report(tree_kernel).sphere_minima()
        values = [minima[r] for r in sorted(minima)]
        assert values == sorted(values)

    def test_failing_row_names_the_element(self, tree_spec):
        from l1comb import PropernessError, kernel_from_bicombing

        kernel = kernel_from_bicombing(tree_spec, radius=2)
        i = kernel.index_of("ab")
        serve_rows(kernel, {(i, 0): 0, (0, i): 0})  # fake a collapsed norm
        with pytest.raises(PropernessError, match="ab"):
            properness_report(kernel)

    def test_quadratic_form_matches_norm(self, tree_kernel, f2_ball4):
        rng = random.Random(48)
        for _ in range(10):
            v = _random_mean_zero(rng, f2_ball4.elements[:17])
            q = quadratic_form(v, tree_kernel)
            assert abs(math.sqrt(max(q, 0.0)) - norm_f(v, tree_kernel)) < 1e-12
