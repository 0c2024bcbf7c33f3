import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import serve_rows
from hypothesis import example, given, settings, strategies as st

from l1comb import (
    Chain1,
    EVector,
    NonIntegralChainError,
    OutOfBallError,
    TreeActionSpec,
    ball,
    cnd_min_eigenvalue,
    combing_chain,
    displacement_decomposition,
    empirical_displacement_constant,
    feature_embed,
    free_reduce,
    invert,
    kernel_cross_validate,
    kernel_from_bicombing,
    make_bicombing,
    orbit_kernel,
    quadratic_form,
)
from l1comb.kernel import (
    DisplacementKernel,
    SlotEmbedding,
    centered_min_eigenvalue,
    served_rows,
)

EDGES = [(src, g) for src in ("", "a", "B", "ab", "ba") for g in "ab"]
integer_chains = st.dictionaries(
    st.sampled_from(EDGES), st.integers(-6, 6), max_size=6
).map(Chain1)
f2_words = st.text(alphabet="aAbB", max_size=3).map(free_reduce)
# enough edges for one chain of 8,400 slots
WIDE_EDGES = [("a" * k, g) for k in range(120) for g in "ab"]
wide_chains = st.dictionaries(
    st.sampled_from(WIDE_EDGES), st.integers(-40, 40), max_size=12
).map(Chain1)


def numbered(key_rows):
    """Slot-key rows with every key replaced by its number in order of first
    appearance, as :class:`SlotEmbedding` takes them."""
    ids = {}
    return [[ids.setdefault(key, len(ids)) for key in keys] for keys in key_rows]


def assert_engine_matches_chains(chains):
    F = SlotEmbedding(numbered(feature_embed(u).coeffs for u in chains))
    for i, u in enumerate(chains):
        row = F.row(i)
        assert row.dtype == np.int64
        assert row.tolist() == [(u - w).l1_norm() for w in chains]


@st.composite
def f2xf2_to_f2(draw):
    """Images of a, b, c, d under a homomorphism F2 x F2 -> F2: one factor
    maps anywhere and the other trivially, or all four are powers of one
    word (commuting elements of a free group)."""
    shape = draw(st.sampled_from(["left", "right", "cyclic"]))
    if shape == "cyclic":
        root = draw(f2_words)
        images = [invert(root) * -k if k < 0 else root * k
                  for k in draw(st.lists(st.integers(-2, 2), min_size=4, max_size=4))]
    else:
        images = [draw(f2_words), draw(f2_words), "", ""]
        if shape == "right":
            images = images[2:] + images[:2]
    return dict(zip("abcd", images))


class TestKernelFromBicombing:
    def test_tree_kernel_equals_word_metric(self, tree_kernel, f2_ball4):
        n = tree_kernel.n
        for i in range(n):
            xi = invert(f2_ball4.elements[i])
            for j in range(n):
                d = len(free_reduce(xi + f2_ball4.elements[j]))
                assert tree_kernel.value(i, j) == d

    def test_first_column_is_chain_norm(self, tree_kernel, tree_spec, f2_ball4):
        for i in range(tree_kernel.n):
            norm = combing_chain(tree_spec, "", f2_ball4.elements[i]).l1_norm()
            assert tree_kernel.exact(i, 0) == norm

    def test_structure(self, tree_kernel, surface_kernel):
        for k in (tree_kernel, surface_kernel):
            assert np.all(np.diag(k.values) == 0)
            assert np.array_equal(k.values, k.values.T)
            assert np.all(k.values >= 0)

    def test_tree_displacement_constant_zero(self, tree_kernel):
        assert tree_kernel.displacement_constant == 0.0

    def test_negative_radius_rejected(self, f2):
        spec = make_bicombing("tree_geodesic", ball(f2, 3))
        with pytest.raises(ValueError, match="radius must be >= 0"):
            kernel_from_bicombing(spec, radius=-2)

    def test_displacement_constant_measured_once_on_first_read(self, tree_spec,
                                                               monkeypatch):
        import l1comb.kernel as kernel_module

        calls = []
        measure = kernel_module.empirical_displacement_constant

        def counted(*args):
            calls.append(args[1:])
            return measure(*args)

        monkeypatch.setattr(kernel_module, "empirical_displacement_constant", counted)
        kernel = kernel_from_bicombing(tree_spec, radius=3)
        assert calls == [] and kernel.scan_split == (1, 2)
        assert kernel.displacement_constant == kernel.displacement_constant == 0.0
        assert calls == [(1, 2)]

    def test_displacement_constant_reads_the_served_rows(self, tree_spec):
        # split (1, 1): no translate block of s != e holds both a and b, so
        # raising 2K(a, b) by 6 raises the two-sided excess to 6 / 2
        kernel = kernel_from_bicombing(tree_spec, radius=2)
        i, j = kernel.index_of("a"), kernel.index_of("b")
        t = kernel.row(i)[j] + 6
        serve_rows(kernel, {(i, j): t, (j, i): t})
        assert kernel.displacement_constant == 3.0

    def test_exact_dtype(self, tree_kernel, tree_spec, surface_kernel, surface_anti):
        for k, spec in ((tree_kernel, tree_spec), (surface_kernel, surface_anti)):
            # the engine embeds the doubled chains 2 q[e, x]: |F_i|^2 is
            # their l1 norm, and rows of 2K are exact int64
            assert k.embedding.norms.tolist() == [
                combing_chain(spec, "", x).scale(2).l1_norm()
                for x in spec.ball.elements[:k.n]]
            assert all(k.row(i).dtype == np.int64 for i in range(0, k.n, 37))
            assert k.values.dtype == np.float64 and not k.values.flags.writeable

    def test_principal_block_reads_the_served_rows(self, tree_spec):
        kernel = kernel_from_bicombing(tree_spec, radius=2)
        i, j = kernel.index_of("ab"), kernel.index_of("b")
        serve_rows(kernel, {(i, j): 99})
        block = kernel.twice_block([i, j])
        assert block.tolist() == [[0, 99], [kernel.embedding.row(j)[i], 0]]

    @pytest.mark.parametrize("kind", ["tree_geodesic", "shortlex_antisymmetrized"])
    def test_radius_zero_kernel_is_signed_and_exact(self, f2, surface, kind):
        pres = f2 if kind == "tree_geodesic" else surface
        k = kernel_from_bicombing(make_bicombing(kind, ball(pres, 0)))
        assert k.n == 1 and k.row(0).dtype == np.int64
        assert k.values.tolist() == [[0.0]] and k.exact(0, 0) == 0


class TestEngineProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(integer_chains, min_size=1, max_size=6))
    def test_entries_equal_chain_arithmetic(self, chains):
        assert_engine_matches_chains(chains)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(wide_chains, min_size=1, max_size=4))
    @example([Chain1({WIDE_EDGES[0]: 40}), Chain1({WIDE_EDGES[1]: -40})])
    @example([Chain1(dict.fromkeys(WIDE_EDGES[:210], 40)), Chain1({})])
    def test_wide_coefficients_stay_exact(self, chains):
        assert_engine_matches_chains(chains)

    @settings(max_examples=25, deadline=None)
    @given(f2xf2_to_f2())
    def test_orbit_kernel_equals_reduced_word_length(self, f2xf2, images):
        b = ball(f2xf2, 2)
        action = TreeActionSpec(f2xf2, 2, images)
        kernel = orbit_kernel(action, b)
        assert kernel.displacement_constant == 0.0
        phi = [action.apply(w) for w in b.elements]
        for i, x in enumerate(phi):
            row = kernel.row(i)
            for j, y in enumerate(phi):
                assert row[j] == 2 * len(free_reduce(invert(x) + y))


class TestL1VectorProperties:
    @settings(max_examples=80, deadline=None)
    @given(integer_chains, integer_chains)
    def test_distance_is_symmetric(self, u, w):
        assert (u - w).l1_norm() == (w - u).l1_norm()

    @settings(max_examples=80, deadline=None)
    @given(integer_chains)
    def test_negation_is_additive_inverse(self, u):
        assert (u + (-u)).coeffs == {}

    @settings(max_examples=80, deadline=None)
    @given(integer_chains, integer_chains, integer_chains)
    def test_triangle_inequality(self, u, v, w):
        assert (u - w).l1_norm() <= (u - v).l1_norm() + (v - w).l1_norm()

    @settings(max_examples=80, deadline=None)
    @given(integer_chains, integer_chains)
    def test_slot_embedding_squares_to_l1_distance(self, u, w):
        diff = feature_embed(u) - feature_embed(w)
        assert diff.dot(diff) == (u - w).l1_norm()


class TestFeatureEmbedding:
    def test_single_edge(self):
        f = feature_embed(Chain1({("", "a"): 1}))
        assert f.coeffs == {((("", "a")), 1): 1}
        assert f.dot(f) == 1

    def test_slot_count_between_mixed_signs(self):
        v = feature_embed(Chain1({("", "a"): 2}))
        w = feature_embed(Chain1({("", "a"): -1}))
        assert (v - w).dot(v - w) == 3

    def test_matches_l1_distance_on_random_integer_chains(self, f2_ball4):
        rng = random.Random(21)
        gens = f2_ball4.presentation.generators
        words = f2_ball4.elements

        def rand_chain():
            return Chain1({
                (words[rng.randrange(len(words))], rng.choice(gens)):
                    rng.randint(-4, 4)
                for _ in range(rng.randint(0, 6))
            })

        for _ in range(100):
            u, w = rand_chain(), rand_chain()
            expected = (u - w).l1_norm()  # direct chain-arithmetic oracle
            diff = feature_embed(u) - feature_embed(w)
            assert diff.dot(diff) == expected

    def test_non_integer_coefficient_rejected(self):
        with pytest.raises(NonIntegralChainError):
            feature_embed(Chain1({("", "a"): Fraction(1, 2)}))

    def test_inner_products_integer(self):
        u = feature_embed(Chain1({("", "a"): 3, ("a", "b"): -2}))
        w = feature_embed(Chain1({("", "a"): 1, ("b", "a"): 5}))
        assert isinstance(u.dot(w), int)
        assert u.dot(w) == 1


class TestDisplacement:
    def test_tree_excess_vanishes(self, tree_kernel, f2_ball4):
        # every s in the 2-ball, "a", "B", "ab" and "ba" among them
        assert empirical_displacement_constant(tree_kernel, 2, 2) == 0.0
        for s in ("a", "B", "ab", "ba"):
            rows = displacement_decomposition(tree_kernel, s, f2_ball4.indices_within(2))
            assert rows and all(row.excess == 0 for row in rows)

    def test_tree_action_excess_vanishes(self, f2, f2_ball4):
        from l1comb import parse_action

        action = parse_action("target_rank: 2\na -> a\nb -> b\n", f2)
        kernel = orbit_kernel(action, f2_ball4)
        assert kernel.displacement_constant == 0.0  # measured over the (2, 2) split
        assert empirical_displacement_constant(kernel, 2, 2) == 0.0

    def test_surface_pairwise_decomposition(self, surface_kernel, surface_ball4):
        # every pairwise excess is bounded by its exact two-triangle area sum
        rows = displacement_decomposition(
            surface_kernel, "a", surface_ball4.indices_within(2)
        )
        assert rows
        for row in rows:
            assert row.excess <= row.area_first + row.area_second

    def test_surface_excess_verified_against_decomposition(self, surface_kernel,
                                                           surface_ball4):
        rows = displacement_decomposition(
            surface_kernel, "ab", surface_ball4.indices_within(2)
        )
        assert rows
        for row in rows:
            assert row.excess <= row.area_first + row.area_second

    def test_translate_out_of_ball_rejected(self, tree_kernel, f2_ball4):
        from l1comb import OutOfBallError

        with pytest.raises(OutOfBallError):
            displacement_decomposition(tree_kernel, "abab", f2_ball4.indices_within(2))

    def test_two_sided_constant_dominates_one_sided(self, surface_kernel,
                                                    surface_ball4):
        m = empirical_displacement_constant(surface_kernel, 2, 2)
        assert m == surface_kernel.displacement_constant
        pairs = list(surface_ball4.indices_within(2))
        base = surface_kernel.twice_block(pairs)
        for i in pairs:
            s = surface_ball4.elements[i]
            if s == "":
                continue
            trans = [surface_kernel.index_of(s + surface_ball4.elements[j]) for j in pairs]
            one_sided = (surface_kernel.twice_block(trans) - base).max() / 2
            assert one_sided <= m


class TestCnd:
    def test_zero_kernel(self, f2_ball4):
        n = f2_ball4.size_within(1)
        kernel = DisplacementKernel(
            ball=f2_ball4, embedding=SlotEmbedding([()] * n), radius=1,
        )
        assert cnd_min_eigenvalue(kernel) == 0.0

    def test_tree_kernel_cnd(self, tree_kernel, f2_ball4):
        assert cnd_min_eigenvalue(
            tree_kernel, f2_ball4.indices_within(3)
        ) >= -1e-9

    def test_surface_kernel_cnd(self, surface_kernel, surface_ball4):
        assert cnd_min_eigenvalue(
            surface_kernel, surface_ball4.indices_within(2)
        ) >= -1e-9

    def test_centered_form_matches_feature_gram(self, surface_anti, surface_ball4,
                                                surface_kernel):
        # oracle: for mean-zero integer v, -1/2 v K v' equals the Gram form of
        # the doubled slot embeddings scaled by 1/2 (integers throughout), and
        # quadratic_form returns it exactly
        n = surface_ball4.size_within(2)
        feats = [
            feature_embed(combing_chain(surface_anti, "", surface_ball4.elements[i]).scale(2))
            for i in range(n)
        ]
        kernel2 = [
            [(feats[i] - feats[j]).dot(feats[i] - feats[j]) for j in range(n)]
            for i in range(n)
        ]
        rng = random.Random(31)
        for _ in range(25):
            support = rng.sample(range(n), 5)
            coeffs = [rng.randint(-3, 3) for _ in support]
            coeffs[-1] -= sum(coeffs)
            # -1/2 sum v v K  ==  sum v v <J_x, J_y> for mean-zero v
            form2 = -sum(
                ci * cj * kernel2[i][j]
                for i, ci in zip(support, coeffs)
                for j, cj in zip(support, coeffs)
            )
            gram2 = 2 * sum(
                ci * cj * feats[i].dot(feats[j])
                for i, ci in zip(support, coeffs)
                for j, cj in zip(support, coeffs)
            )
            assert form2 == gram2
            assert form2 >= 0
            v = EVector({surface_ball4.elements[i]: c for i, c in zip(support, coeffs)})
            q = quadratic_form(v, surface_kernel)
            assert isinstance(q, Fraction)
            assert q == Fraction(form2, 4)

    def test_needs_two_elements(self, tree_kernel):
        with pytest.raises(ValueError):
            cnd_min_eigenvalue(tree_kernel, [0])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 9).flatmap(lambda n: st.lists(
        st.integers(-20, 20), min_size=n * n, max_size=n * n).map(
        lambda xs: np.array(xs, dtype=float).reshape(n, n))))
    def test_matches_an_explicit_mean_zero_basis(self, m):
        m = m + m.T
        n = len(m)
        # reference: -M/2 in an orthonormal basis of the mean-zero vectors,
        # the last n - 1 columns of a QR basis whose first column is all-ones
        q = np.linalg.qr(np.column_stack([np.ones(n), np.eye(n)[:, :-1]]))[0][:, 1:]
        expected = np.linalg.eigvalsh(q.T @ (-0.5 * m) @ q).min()
        # float64 rounding of O(n) operations on entries up to 40
        assert abs(centered_min_eigenvalue(m.copy()) - expected) <= 1e-12 * n * 40


class TestKernelDump:
    def test_upper_triangle_with_header(self, f2):
        b = ball(f2, 1)
        kernel = kernel_from_bicombing(make_bicombing("tree_geodesic", b))
        lines = __import__("l1comb").kernel_dump(kernel).splitlines()
        assert lines[0] == "i,j,K"
        assert lines[1] == "0,0,0"
        assert lines[2] == "0,1,1"  # K(e, a) = 1
        pairs = [tuple(map(int, ln.split(",")[:2])) for ln in lines[1:]]
        assert all(i <= j for i, j in pairs)
        assert len(pairs) == kernel.n * (kernel.n + 1) // 2

    def test_half_integer_values_render_as_fractions(self, f2_ball4):
        from l1comb import kernel_dump

        # 2K(0, 1) = ||0 - 1 edge||_1 = 1
        chains = [Chain1(), Chain1({("", "a"): 1})]
        kernel = DisplacementKernel(
            ball=f2_ball4,
            embedding=SlotEmbedding(numbered(feature_embed(c).coeffs for c in chains)),
            radius=0,
        )
        assert "0,1,1/2" in kernel_dump(kernel).splitlines()

    def test_row_dumps_concatenate_to_the_whole_dump(self, tree_kernel, surface):
        from l1comb import kernel_dump

        small = kernel_from_bicombing(
            make_bicombing("shortlex_antisymmetrized", ball(surface, 2))
        )
        for k in (tree_kernel, small):
            whole = kernel_dump(k)
            assert "".join(kernel_dump(k, [i]) for i in range(k.n)) == whole
            assert whole.startswith("i,j,K\n0,0,0")


class TestCrossValidation:
    def test_tree_ball3_exact(self, tree_spec, tree_kernel):
        assert kernel_cross_validate(tree_spec, radius=3, kernel=tree_kernel) == 0

    def test_single_pair(self, f2):
        b = ball(f2, 1)
        spec = make_bicombing("tree_geodesic", b)
        assert kernel_cross_validate(spec, radius=1) == 0

    def test_surface_ball2_exact(self, surface_anti, surface_kernel):
        assert kernel_cross_validate(
            surface_anti, radius=2, kernel=surface_kernel
        ) == 0


@pytest.mark.parametrize("call, error, match", [
    (lambda spec: kernel_from_bicombing(spec, radius=5),
     OutOfBallError, "kernel radius 5 exceeds the ball radius 4"),
    (lambda spec: displacement_decomposition(orbit_kernel(
        TreeActionSpec(spec.ball.presentation, 2, {"a": "a", "b": "b"}), spec.ball),
        "a", [0]),
     ValueError, "requires a combing-backed kernel"),
    (lambda spec: displacement_decomposition(
        kernel_from_bicombing(make_bicombing("shortlex", spec.ball), radius=1), "a", [0]),
     ValueError, "needs an antisymmetric combing"),
    (lambda spec: empirical_displacement_constant(
        kernel_from_bicombing(spec, radius=2), 1, 2),
     OutOfBallError, r"scan split \(1, 2\) exceeds the kernel radius"),
    (lambda spec: kernel_cross_validate(
        spec, radius=3, kernel=kernel_from_bicombing(spec, radius=2)),
     OutOfBallError, "cross-validation radius exceeds the kernel radius"),
], ids=["kernel-radius", "no-combing", "not-antisymmetric", "scan-split",
        "cross-validation-radius"])
def test_guard_rejects_its_input(tree_spec, call, error, match):
    with pytest.raises(error, match=match):
        call(tree_spec)


def test_engine_peak_memory_stays_near_its_output(f2):
    # values is filled from F one row at a time and halved in place: no
    # strip, product or second n x n array may exist beside it
    kernel = kernel_from_bicombing(make_bicombing("tree_geodesic", ball(f2, 6)))
    tracemalloc.start()
    try:
        values = kernel.values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kernel.n == 1457
    assert peak <= 1.05 * values.nbytes, peak / values.nbytes


@pytest.mark.parametrize("pres, radius, kind", [
    ("f2", 4, "tree_geodesic"),
    ("surface", 3, "shortlex"),
    ("surface", 3, "shortlex_antisymmetrized"),
    ("f2xf2", 3, "shortlex_antisymmetrized"),
])
def test_walked_rows_equal_the_word_chain_embedding(request, pres, radius, kind):
    # the rows walked on the multiplication table number F's columns as the
    # slot embedding of the word chains 2 q[e, x] does, on every element
    b = ball(request.getfixturevalue(pres), radius)
    spec = make_bicombing(kind, b)
    walked = kernel_from_bicombing(spec).embedding
    words = SlotEmbedding(numbered(feature_embed(combing_chain(spec, "", x).scale(2)).coeffs
                                   for x in b.elements))
    assert walked.norms.size == len(b)
    for name in ("cols", "norms", "col_ptr"):
        assert np.array_equal(getattr(walked, name), getattr(words, name)), name


def test_walked_kernel_build_makes_no_oracle_call(surface, monkeypatch):
    from l1comb import CayleyBall, GroupPresentation

    b = ball(surface, 3)
    calls = []

    def counting(owner, name):
        method = getattr(owner, name)

        def counted(*args):
            calls.append(name)
            return method(*args)

        monkeypatch.setattr(owner, name, counted)

    counting(GroupPresentation, "normal")
    counting(CayleyBall, "name")
    kernel = kernel_from_bicombing(make_bicombing("shortlex_antisymmetrized", b))
    assert kernel.n == len(b) == 457
    assert calls == []
    b.name("abAB")  # the counters do see a call
    assert calls[0] == "name" and "normal" in calls


def test_kernel_build_retains_only_f(surface):
    # the walked build leaves nothing behind but F: no name-cache entries, no
    # chains, no column-key table
    b = ball(surface, 4)
    spec = make_bicombing("shortlex_antisymmetrized", b)
    kernel_from_bicombing(spec, radius=1)  # numpy and the lazy imports load here
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kernel = kernel_from_bicombing(spec)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    F = kernel.embedding
    f_bytes = sum(a.nbytes for a in (F.cols, F.norms, F.ptr, F.col_rows, F.col_ptr))
    assert kernel.n == 3193
    assert retained <= f_bytes + 16_384, (retained, f_bytes)


@pytest.mark.parametrize("pres, radius, kind", [
    ("surface", 4, "shortlex_antisymmetrized"),
    ("f2", 7, "tree_geodesic"),
])
def test_kernel_build_peak_stays_within_twice_f(request, pres, radius, kind):
    # the one-pass build holds F, the flat key table and one column cursor:
    # no key dict, no growing buffer, no int64 sort order, no repeated rows
    spec = make_bicombing(kind, ball(request.getfixturevalue(pres), radius))
    kernel_from_bicombing(spec, radius=1)  # numpy and the lazy imports load here
    tracemalloc.start()
    try:
        kernel = kernel_from_bicombing(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    F = kernel.embedding
    f_bytes = sum(a.nbytes for a in (F.cols, F.norms, F.ptr, F.col_rows, F.col_ptr))
    assert kernel.n == {4: 3193, 7: 4373}[radius]
    assert peak <= 2 * f_bytes, peak / f_bytes


@pytest.mark.parametrize("pres", ["f2", "surface", "f2xf2"])
def test_walked_translates_equal_the_oracle_lookup(request, pres):
    # on every kernel radius 2..4 and every split of it into an s radius and
    # a pair radius, s x walked on the table is the element index_of finds
    presentation = request.getfixturevalue(pres)
    for radius in (2, 3, 4):
        b = ball(presentation, radius)
        kernel = kernel_from_bicombing(make_bicombing("shortlex", b))
        for s_radius in range(radius + 1):
            pairs = b.elements[:b.size_within(radius - s_radius)]
            for s in b.elements[:b.size_within(s_radius)]:
                assert [kernel.translate_index(s, x) for x in pairs] == \
                    [kernel.index_of(s + x) for x in pairs], (radius, s)
    # a walk that leaves the ball or the kernel falls back to the same error
    small = kernel_from_bicombing(make_bicombing("shortlex", b), radius=2)
    for s, x in (("ab", "ab"), ("aaaa", "a")):
        with pytest.raises(OutOfBallError, match=f"{s + x!r} is outside"):
            small.translate_index(s, x)


def test_slot_embedding_rows_match_the_matrix(tree_kernel, surface_kernel):
    for k in (tree_kernel, surface_kernel):
        for i in range(0, k.n, 37):
            assert np.array_equal(k.row(i), 2 * k.values[i])
        assert not any(dev.any() for _, _, dev in served_rows(k))
        serve_rows(k, {(5, 3): k.row(5)[3] + 1})
        try:
            assert [(i, j) for i, _, dev in served_rows(k)
                    for j in np.flatnonzero(dev).tolist()] == [(5, 3)]
        finally:
            del k.row


F2_ACTION = ["action", "--presentation", "prod.txt", "--action", "proj.txt",
             "--radius", "2"]
SURFACE_COMBING = [["ball", "--presentation", "surface.txt", "--radius", "1"],
                   ["bicombing-stats", "--presentation", "surface.txt", "--radius", "1"]]


@pytest.mark.parametrize("commands, unloaded", [
    # the kernel engine is numpy only
    pytest.param([["verify", "--presentation", "f2.txt", "--radius", "3"], F2_ACTION],
                 "scipy", id="kernel-engine-without-scipy"),
    # numpy's __init__ loads numpy.linalg, so numpy itself never ran: the
    # combing layer is integer and rational arithmetic only
    pytest.param(SURFACE_COMBING, "numpy.linalg", id="combing-layer-without-numpy"),
    # the start-up budget: records are NamedTuples and plain classes, and the
    # report header's timestamp comes from time.gmtime
    pytest.param(SURFACE_COMBING, "dataclasses", id="startup-without-dataclasses"),
    pytest.param(SURFACE_COMBING, "inspect", id="startup-without-inspect"),
    pytest.param(SURFACE_COMBING, "datetime", id="startup-without-datetime"),
    pytest.param([F2_ACTION, ["opnorm", "--presentation", "prod.txt", "--radius", "2"]],
                 "numpy.random", id="opnorm-probe-without-numpy-random"),
])
def test_commands_leave_module_unloaded(tmp_path, commands, unloaded):
    (tmp_path / "f2.txt").write_text("generators: a b\nrelators: (none)\nmode: free\n")
    (tmp_path / "surface.txt").write_text(
        "generators: a b c d\nrelators: abABcdCD\nmode: dehn\n")
    (tmp_path / "prod.txt").write_text(
        "generators: a b c d\nrelators: acAC adAD bcBC bdBD\nmode: rewriting\n"
        "rules:\n" + "".join(f"{x}{y} -> {y}{x}\n" for x in "cCdD" for y in "aAbB")
    )
    (tmp_path / "proj.txt").write_text("target_rank: 2\na -> a\nb -> b\nc -> e\nd -> e\n")
    script = (
        "import sys\n"
        "import l1comb\n"
        "from l1comb.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    assert main(argv + ['--out', 'out']) == 0, argv\n"
        f"assert {unloaded!r} not in sys.modules\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path,
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
