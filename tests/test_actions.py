import math
import random

import numpy as np
import pytest
from conftest import serve_rows

from l1comb import (
    ActionError,
    QuasiTreeKernelInput,
    ball,
    empirical_displacement_constant,
    free_reduce,
    invert,
    PropernessError,
    op_norm_lower_bound,
    orbit_growth_report,
    orbit_kernel,
    parse_action,
    parse_quasitree_csv,
    properness_report,
    validate_quasitree_kernel,
)
from l1comb.espace import OpNormConfig

IDENTITY_ACTION = "target_rank: 2\na -> a\nb -> b\n"
PROJECTION_ACTION = """\
# kill the second factor
target_rank: 2
a -> a
b -> b
c -> e
d -> e
"""


class TestParseAction:
    def test_identity_accepted(self, f2):
        action = parse_action(IDENTITY_ACTION, f2)
        assert action.apply("abAB") == "abAB"

    def test_projection_accepted(self, f2xf2):
        action = parse_action(PROJECTION_ACTION, f2xf2)
        # commutator relators map to freely trivial words
        for rel in f2xf2.relators:
            assert free_reduce(action.apply(rel)) == ""
        assert action.apply("cad") == "a"

    def test_non_homomorphism_rejected_with_relator(self, f2xf2):
        bad = "target_rank: 2\na -> a\nb -> b\nc -> ab\nd -> e\n"
        with pytest.raises(ActionError, match="acAC"):
            parse_action(bad, f2xf2)

    def test_missing_image_rejected(self, f2):
        with pytest.raises(ActionError, match="no image"):
            parse_action("target_rank: 1\na -> a\n", f2)

    def test_bad_target_letter_rejected(self, f2):
        with pytest.raises(ActionError, match="target alphabet"):
            parse_action("target_rank: 1\na -> a\nb -> b\n", f2)

    def test_homomorphism_property_sampled(self, f2xf2, f2xf2_ball3):
        action = parse_action(PROJECTION_ACTION, f2xf2)
        rng = random.Random(51)
        words = f2xf2_ball3.elements
        for _ in range(40):
            s = words[rng.randrange(len(words))]
            t = words[rng.randrange(len(words))]
            st = f2xf2_ball3.name(s + t)
            assert action.apply(st) == free_reduce(action.apply(s) + action.apply(t))

    @pytest.mark.parametrize("text, match", [
        ("target_rank: 0\na -> e\nb -> e\n", "target rank must be >= 1"),
        ("target_rank: 2\na -> a\nb -> b\nc -> a\n", "unknown generator 'c'"),
        ("target_rank: 26\na -> a\nb -> b\n", "26 exceeds the supported alphabet"),
        ("target_rank: 2\ntarget_rank: 2\na -> a\nb -> b\n",
         "target_rank specified twice"),
        ("target_rank: two\na -> a\nb -> b\n", "bad target_rank line"),
        ("target_rank: 2\na a\nb -> b\n", "'a a' lacks '->'"),
        ("target_rank: 2\na -> a\na -> b\nb -> b\n", "image of 'a' specified twice"),
        ("a -> a\nb -> b\n", "missing target_rank"),
    ], ids=["rank-zero", "unknown-generator", "rank-26", "rank-twice", "rank-not-int",
            "line-without-arrow", "image-twice", "no-rank"])
    def test_input_error_is_named(self, f2, text, match):
        with pytest.raises(ActionError, match=match):
            parse_action(text, f2)


class TestOrbitKernel:
    def test_identity_action_reproduces_tree_kernel(self, f2, f2_ball4, tree_kernel):
        action = parse_action(IDENTITY_ACTION, f2)
        kernel = orbit_kernel(action, f2_ball4)
        assert np.array_equal(kernel.values, tree_kernel.values)
        assert kernel.displacement_constant == 0.0
        assert kernel.bicombing is None

    def test_rows_are_tree_paths_not_combing_chains(self, f2xf2, f2xf2_ball3,
                                                    monkeypatch):
        import l1comb.bicombing as bicombing_module
        import l1comb.kernel as kernel_module

        def unused(*args):
            raise AssertionError("an orbit kernel builds no combing chain")

        for module, name in ((kernel_module, "combing_chain"),
                             (bicombing_module, "combing_chain"),
                             (kernel_module, "feature_embed")):
            monkeypatch.setattr(module, name, unused)
        action = parse_action(PROJECTION_ACTION, f2xf2)
        kernel = orbit_kernel(action, f2xf2_ball3)
        assert kernel.n == len(f2xf2_ball3) and kernel.bicombing is None
        # |F_s|^2 = 2 d_T(e, phi(s)): two slots per edge of phi(s)'s path
        assert kernel.embedding.norms.tolist() == [
            2 * len(action.apply(w)) for w in f2xf2_ball3.elements]

    def test_projection_kernel_values(self, f2xf2, f2xf2_ball3):
        action = parse_action(PROJECTION_ACTION, f2xf2)
        kernel = orbit_kernel(action, f2xf2_ball3)
        for n in (1, 2, 3):
            assert kernel.value(kernel.index_of("a" * n), 0) == n
            assert kernel.value(kernel.index_of("c" * n), 0) == 0

    def test_left_invariance(self, f2xf2, f2xf2_ball3):
        action = parse_action(PROJECTION_ACTION, f2xf2)
        kernel = orbit_kernel(action, f2xf2_ball3)
        rng = random.Random(52)
        inner = f2xf2_ball3.size_within(1)
        words = f2xf2_ball3.elements
        for _ in range(30):
            s = words[rng.randrange(inner)]
            i = rng.randrange(f2xf2_ball3.size_within(2))
            j = rng.randrange(f2xf2_ball3.size_within(2))
            si = f2xf2_ball3.canonical_index(s + words[i])
            sj = f2xf2_ball3.canonical_index(s + words[j])
            assert kernel.value(si, sj) == kernel.value(i, j)

    def test_zero_excess_and_isometric_opnorm(self, f2, f2_ball4):
        action = parse_action(IDENTITY_ACTION, f2)
        kernel = orbit_kernel(action, f2_ball4)
        config = OpNormConfig(restarts=4, iterations=100, seed=6)
        assert kernel.displacement_constant == 0.0
        assert empirical_displacement_constant(kernel, 2, 2) == 0.0
        pairs = list(f2_ball4.indices_within(2))
        for s in ("a", "bA"):
            trans = [kernel.index_of(s + f2_ball4.elements[i]) for i in pairs]
            assert np.array_equal(kernel.twice_block(trans), kernel.twice_block(pairs))
            assert op_norm_lower_bound(s, kernel, 2, config).value <= 1 + 1e-9


def _tree_kernel_input(cayley_ball, radius, delta=0.0):
    words = cayley_ball.elements[: cayley_ball.size_within(radius)]
    distances = {}
    values = {}
    for i, x in enumerate(words):
        for y in words[i + 1:]:
            d = len(free_reduce(invert(x) + y))
            key = (x, y) if x <= y else (y, x)
            distances[key] = float(d)
            values[key] = float(d)
    return QuasiTreeKernelInput(tuple(words), distances, values, delta)


class TestQuasiTreeValidation:
    def test_exact_tree_kernel_accepted(self, f2_ball4):
        report = validate_quasitree_kernel(_tree_kernel_input(f2_ball4, 2))
        assert report.passed
        assert report.min_eigenvalue >= -1e-9

    @pytest.mark.parametrize("labels", [(), ("e",)])
    def test_fewer_than_two_labels_fail(self, labels):
        # nothing to check is not a pass
        report = validate_quasitree_kernel(QuasiTreeKernelInput(labels, {}, {}))
        assert not report.passed
        assert "at least two" in report.failures[0]

    def test_upper_bound_violation_names_pair(self, f2_ball4):
        data = _tree_kernel_input(f2_ball4, 2)
        key = ("a", "b")
        data.kernel_values[key] += 0.5
        report = validate_quasitree_kernel(data)
        assert not report.passed
        assert any("'a'" in f and "'b'" in f and "upper" in f for f in report.failures)

    def test_truncated_kernel_decided_by_eigencheck(self, f2):
        # K = max(d - 1, 0) with delta = 1 on a six-point path
        labels = tuple(f"p{i}" for i in range(6))
        distances = {}
        values = {}
        for i in range(6):
            for j in range(i + 1, 6):
                key = (labels[i], labels[j])
                distances[key] = float(j - i)
                values[key] = float(max(j - i - 1, 0))
        data = QuasiTreeKernelInput(labels, distances, values, 1.0)
        report = validate_quasitree_kernel(data)
        # independent eigen decision
        mat = np.zeros((6, 6))
        for i in range(6):
            for j in range(6):
                if i != j:
                    mat[i, j] = max(abs(i - j) - 1, 0)
        ones = np.ones(6) / math.sqrt(6)
        proj = np.eye(6) - np.outer(ones, ones)
        centered = proj @ (-0.5 * mat) @ proj
        eigs = np.linalg.eigvalsh(centered)
        expected_pass = eigs.min() >= -1e-9
        assert report.passed == expected_pass

    def test_declared_delta_recorded_without_translates(self, f2_ball4):
        report = validate_quasitree_kernel(_tree_kernel_input(f2_ball4, 2, delta=0.25))
        assert report.passed and report.delta == 0.25


class TestQuasiTreeParsing:
    def test_round_trip(self):
        text = "delta: 0.5\nx,y,d,K\ne,a,1,0.75\ne,b,1,1\na,b,2,1.5\n"
        data = parse_quasitree_csv(text)
        assert data.delta == 0.5
        assert data.labels == ("e", "a", "b")
        assert data.kernel_values[("a", "e")] == 0.75

    def test_labels_keep_first_appearance_order(self):
        # neither sorted nor column order: y of one row precedes x of a later one
        text = "delta: 0\nx,y,d,K\nb,e,1,1\nc,e,2,2\nb,a,2,2\nc,a,1,1\nb,c,1,1\na,e,1,1\n"
        assert parse_quasitree_csv(text).labels == ("b", "e", "c", "a")

    def test_missing_pair_rejected(self):
        with pytest.raises(ActionError, match="missing kernel row"):
            parse_quasitree_csv("delta: 0\nx,y,d,K\ne,a,1,1\ne,b,1,1\n")

    def test_no_pair_rows_rejected(self):
        # used to exit 0 with min_eigenvalue: nan
        with pytest.raises(ActionError, match="no pair rows"):
            parse_quasitree_csv("delta: 0\nx,y,d,K\n")

    def test_repeated_delta_rejected(self):
        # the second line used to override the first silently
        with pytest.raises(ActionError, match="delta specified twice"):
            parse_quasitree_csv("delta: 0\nx,y,d,K\na,b,1,1\ndelta: 5\n")

    def test_missing_delta_rejected(self):
        with pytest.raises(ActionError, match="delta"):
            parse_quasitree_csv("x,y,d,K\ne,a,1,1\n")

    @pytest.mark.parametrize("text", [
        "delta: 0\nx,y,d,K\ne,a,1,nan\n",
        "delta: 0\nx,y,d,K\ne,a,inf,1\n",
        "delta: 0\nx,y,d,K\ne,a,1,-inf\n",
    ], ids=["K-nan", "d-inf", "K-minus-inf"])
    def test_non_finite_row_rejected(self, text):
        # every comparison with nan is false, so such a row used to pass
        with pytest.raises(ActionError, match="not finite"):
            parse_quasitree_csv(text)

    def test_non_finite_delta_rejected(self):
        # delta: nan skipped the lower bound: a,b,2,1.5 passed, yet fails at delta 0
        text = "x,y,d,K\ne,a,1,1\ne,b,1,1\na,b,2,1.5\n"
        assert not validate_quasitree_kernel(parse_quasitree_csv("delta: 0\n" + text)).passed
        with pytest.raises(ActionError, match="delta 'nan'.*not finite"):
            parse_quasitree_csv("delta: nan\n" + text)

    def test_negative_delta_rejected(self):
        with pytest.raises(ActionError, match="nonnegative"):
            parse_quasitree_csv("delta: -1\nx,y,d,K\ne,a,1,1\n")

    @pytest.mark.parametrize("second", ["e,a,1,1", "a,e,1,1"])
    def test_repeated_pair_rejected(self, second):
        # the last row used to overwrite the first: e,a,1,5 then e,a,1,1 passed
        with pytest.raises(ActionError, match="given twice"):
            parse_quasitree_csv(f"delta: 0\nx,y,d,K\ne,a,1,5\n{second}\n")

    @pytest.mark.parametrize("row", ["a,a,0,5", "a,a,0,0", "c,c,0,0"])
    def test_self_pair_rejected(self, row):
        # such a row used to be read and then ignored
        with pytest.raises(ActionError, match="with itself"):
            parse_quasitree_csv(f"delta: 0\nx,y,d,K\na,b,1,1\n{row}\n")

    @pytest.mark.parametrize("text, match", [
        ("delta: 0\nx,y,d,K\ne,a,1\n", "bad kernel row 'e,a,1'"),
        ("delta: 0\ne,a,1,1\n", "missing x,y,d,K column header"),
    ], ids=["short-row", "no-column-header"])
    def test_input_error_is_named(self, text, match):
        with pytest.raises(ActionError, match=match):
            parse_quasitree_csv(text)


class TestGrowthReport:
    def test_identity_action_grows_like_sqrt(self, f2, f2_ball4):
        action = parse_action(IDENTITY_ACTION, f2)
        kernel = orbit_kernel(action, f2_ball4)
        growth = orbit_growth_report(kernel)
        assert growth.verdict == "unbounded on scanned range"
        assert abs(growth.fitted_constant - 1.0) < 1e-9
        for n, value in growth.sphere_maxima.items():
            assert abs(value - (math.sqrt(n) + 2.0)) < 1e-9

    def test_trivially_acting_factor_is_bounded(self, f2xf2, f2xf2_ball3):
        action = parse_action(PROJECTION_ACTION, f2xf2)
        kernel = orbit_kernel(action, f2xf2_ball3)
        second_factor = lambda w: w and all(ch in "cCdD" for ch in w)
        growth = orbit_growth_report(kernel, element_filter=second_factor)
        assert growth.verdict == "bounded on scanned range"
        assert all(row.norm_e == 2.0 for row in growth.norm_report.rows)

    def test_orbit_rows_carry_the_l1_bound(self, f2xf2, f2xf2_ball3):
        # sqrt(d) + 2 is a combing bound: the projection kills the second factor
        kernel = orbit_kernel(parse_action(PROJECTION_ACTION, f2xf2), f2xf2_ball3)
        rows = properness_report(kernel).rows
        assert len(rows) == kernel.n - 1
        assert all(row.lower_bound == 2.0 and row.norm_e >= row.lower_bound
                   for row in rows)
        assert orbit_growth_report(kernel).norm_report.rows == rows

    def test_negative_orbit_row_raises(self, f2, f2_ball4):
        kernel = orbit_kernel(parse_action(IDENTITY_ACTION, f2), f2_ball4)
        i = kernel.index_of("ab")
        serve_rows(kernel, {(0, i): -2})
        with pytest.raises(PropernessError, match="ab"):
            orbit_growth_report(kernel)

    def test_one_flat_sphere_makes_the_verdict_bounded(self, f2xf2, f2xf2_ball3):
        kernel = orbit_kernel(parse_action(PROJECTION_ACTION, f2xf2), f2xf2_ball3)
        growth = orbit_growth_report(kernel, element_filter=lambda w: w in ("a", "cc"))
        assert sorted(growth.sphere_maxima) == [1, 2]
        assert growth.verdict == "bounded on scanned range"

    def test_full_ball_is_unbounded_through_first_factor(self, f2xf2, f2xf2_ball3):
        action = parse_action(PROJECTION_ACTION, f2xf2)
        kernel = orbit_kernel(action, f2xf2_ball3)
        growth = orbit_growth_report(kernel)
        assert growth.verdict == "unbounded on scanned range"
        assert growth.fitted_constant > 0
