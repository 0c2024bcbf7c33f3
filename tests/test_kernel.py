import ast
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

import l1comb
from l1comb import (
    Chain1,
    EVector,
    NonIntegralChainError,
    OutOfBallError,
    TreeActionSpec,
    area,
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
    op_norm_lower_bound,
    orbit_kernel,
    quadratic_form,
    two_triangle_bound,
)
from l1comb.kernel import (
    DisplacementKernel,
    SlotEmbedding,
    centered_min_eigenvalue,
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


def numbered(vectors):
    """The (key, coefficient) rows of integer L1Vectors, every key replaced by
    its number in order of first appearance, as :class:`SlotEmbedding` takes
    them."""
    ids = {}
    rows = [[(ids.setdefault(key, len(ids)), int(c)) for key, c in v.coeffs.items()]
            for v in vectors]
    assert all(c == int(c) for v in vectors for c in v.coeffs.values())
    return rows


def assert_engine_matches_chains(chains):
    # F from the chains' (edge, coefficient) rows, one entry per edge, reads
    # as F from their +-1 slot embeddings, one entry per slot
    F = SlotEmbedding(numbered(chains))
    slots = SlotEmbedding(numbered(map(feature_embed, chains)))
    assert len(F.cols) == sum(len(u.coeffs) for u in chains)
    for i, u in enumerate(chains):
        row = F.row(i)
        assert all(type(t) is int for t in row)
        assert row == [(u - w).l1_norm() for w in chains]
        assert slots.row(i) == row
        assert F.row(i, i, len(chains)) == slots.row(i, i, len(chains)) == row[i:]
    for order in (range(len(chains)), range(len(chains) - 1, -1, -1)):
        assert list(F.upper_rows(order)) == list(slots.upper_rows(order))
    pairs = [(i, (-1) ** i * (i + 1)) for i in range(len(chains))]
    pairs += [(0, Fraction(-1, 3)), (len(chains) - 1, Fraction(5, 2))]
    assert F.form(pairs) == slots.form(pairs)
    assert F.form(pairs[:1]) == Fraction(chains[0].l1_norm(), 2)
    assert F.defect() is slots.defect() is None


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


@pytest.fixture(scope="module")
def f2xf2_kernel4(f2xf2):
    return kernel_from_bicombing(make_bicombing("shortlex_antisymmetrized", ball(f2xf2, 4)))


@pytest.fixture(scope="module")
def block_kernels(tree_kernel, f2, surface, f2xf2, f2xf2_ball3):
    from l1comb import parse_action

    projection = parse_action("target_rank: 2\na -> a\nb -> b\nc -> e\nd -> e\n", f2xf2)
    return {
        "f2-tree-r3": kernel_from_bicombing(make_bicombing("tree_geodesic", ball(f2, 3))),
        "f2-tree-r4": tree_kernel,
        "surface-anti-r3": kernel_from_bicombing(
            make_bicombing("shortlex_antisymmetrized", ball(surface, 3))),
        "f2xf2-anti-r3": kernel_from_bicombing(
            make_bicombing("shortlex_antisymmetrized", f2xf2_ball3)),
        "f2xf2-orbit-r3": orbit_kernel(projection, f2xf2_ball3),
    }


@pytest.mark.parametrize("name", ["f2-tree-r4", "surface-anti-r3", "f2xf2-anti-r3",
                                  "f2xf2-orbit-r3"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_block_entries_equal_the_dense_rows(block_kernels, name, data):
    # index lists with duplicates, empty lists, and one row against every column
    kernel = block_kernels[name]
    indices = st.lists(st.integers(0, kernel.n - 1), max_size=12)
    rows = data.draw(indices, "rows")
    cols = list(range(kernel.n)) if data.draw(st.booleans(), "all cols") else \
        data.draw(indices, "cols")
    assert kernel.entries(rows, cols) == [[kernel.row(i)[j] for j in cols] for i in rows]
    # a row read over lo..hi-1 is that slice of the dense row, and a served
    # override shows in it exactly when it lies in the range
    i = data.draw(st.integers(0, kernel.n - 1), "row")
    lo = data.draw(st.integers(0, kernel.n), "lo")
    hi = data.draw(st.integers(lo, kernel.n), "hi")
    inside = lo < hi and data.draw(st.booleans(), "override inside")
    outside = range(lo) if lo else range(hi, kernel.n)
    j = data.draw(st.sampled_from(range(lo, hi) if inside else outside or range(kernel.n)),
                  "override column")
    dense = kernel.row(i)
    assert kernel.row(i, lo, hi) == dense[lo:hi]
    served = serve_rows(kernel, {(i, j): dense[j] + 1})
    dense[j] += 1
    assert served.row(i) == dense
    assert served.row(i, lo, hi) == dense[lo:hi]
    assert (served.row(i, lo, hi) != served.embedding.row(i, lo, hi)) == (lo <= j < hi)


@pytest.mark.parametrize("name", ["f2-tree-r4", "surface-anti-r3", "f2xf2-orbit-r3"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_quadratic_form_is_the_centered_block_form(block_kernels, name, data):
    # Q(v) = 1/2 |sum c_i J(F_i)|^2, read off F's rows, equals -1/4 sum c_i c_j 2K(i, j)
    # read through entries, for int and Fraction coefficients; "aA" and "e"
    # are two words for one element, whose coefficients add up
    kernel = block_kernels[name]
    coefficients = st.one_of(st.integers(-5, 5),
                             st.fractions(-3, 3, max_denominator=6))
    coeffs = data.draw(st.dictionaries(st.sampled_from(kernel.ball.elements[:kernel.n]),
                                       coefficients, max_size=6), "coefficients")
    if data.draw(st.booleans(), "two words for e"):
        coeffs["aA"] = data.draw(coefficients, "aA")
    coeffs[""] = coeffs.get("", 0) - sum(coeffs.values())
    v = EVector(coeffs)
    idx = [kernel.index_of(w) for w in v.coeffs]
    c = list(v.coeffs.values())
    block = kernel.entries(idx, idx)
    q = quadratic_form(v, kernel)
    assert type(q) is Fraction
    assert q == Fraction(-sum(ci * cj * t for ci, row in zip(c, block)
                              for cj, t in zip(c, row)), 4)


@pytest.mark.parametrize("name", ["f2-tree-r3", "surface-anti-r3"])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_served_kernel_reads_what_its_rows_serve(block_kernels, name, data):
    # a kernel is fixed when built: serving entries gives a new kernel whose
    # M, translate pairs and values read its rows, recomputed here from
    # entries blocks over the scan split, while the source kernel keeps the
    # M, pairs and values it read before
    source = block_kernels[name]
    b, (s_radius, pair_radius) = source.ball, source.scan_split
    words = b.elements[1:b.size_within(s_radius)]
    old = (source.displacement_constant, source.values.copy(),
           [source.translate_pairs(s, pair_radius) for s in words])
    entries = {}
    for _ in range(data.draw(st.integers(1, 3), "served pairs")):
        j = data.draw(st.integers(1, source.n - 1), "j")
        i = data.draw(st.integers(0, j - 1), "i")
        t = source.row(i)[j] + data.draw(st.integers(-6, 6), "delta")
        entries[i, j] = entries[j, i] = t
    served = serve_rows(source, entries)
    idx = list(range(b.size_within(pair_radius)))
    expected = []
    for s in words:
        trans = [served.translate_index(s, b.elements[x]) for x in idx]
        fixed, moved = served.entries(idx, idx), served.entries(trans, trans)
        expected.append({(fixed[x][y], moved[x][y]) for x in idx for y in idx[x + 1:]})
    assert served.displacement_constant == max(
        (abs(t - u) for pairs in expected for u, t in pairs), default=0) / 2
    assert [served.translate_pairs(s, pair_radius) for s in words] == expected
    assert np.array_equal(2 * served.values, [served.row(i) for i in range(served.n)])
    assert all(served.row(i)[j] == t for (i, j), t in entries.items())
    assert source.displacement_constant == old[0]
    assert np.array_equal(source.values, old[1])
    assert [source.translate_pairs(s, pair_radius) for s in words] == old[2]
    assert all(source.row(i) == source.embedding.row(i) for i, _ in entries)


def test_quadratic_form_reads_f_not_the_served_entries(tree_kernel):
    # the form is a sum of squares over F's columns; an entry served in
    # place of F's reaches the reads of 2K but not the form
    v = EVector({"a": 1, "b": -1})
    i, j = tree_kernel.index_of("a"), tree_kernel.index_of("b")
    assert quadratic_form(v, tree_kernel) == 2  # K(a, b) = 2
    served = serve_rows(tree_kernel, {(i, j): 0, (j, i): 0})
    assert served.entries([i], [j]) == [[0]]
    assert quadratic_form(v, served) == 2


def test_only_kernel_reads_the_layout_of_f():
    # F's arrays are read by kernel.py alone, so its layout is decided in
    # one module; and no other module assigns, augments or deletes a
    # kernel's served entries, which are fixed when the kernel is built
    layout = {"cols", "vals", "ptr", "col_ptr", "col_rows", "col_vals"}
    reads, writes = [], []
    for path in sorted(Path(l1comb.__file__).parent.glob("*.py")):
        if path.name == "kernel.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in layout:
                reads.append(f"{path.name}:{node.lineno} .{node.attr}")
            targets = (node.targets if isinstance(node, (ast.Assign, ast.Delete))
                       else [node.target] if isinstance(node, ast.AugAssign) else [])
            writes += [f"{path.name}:{node.lineno} .overrides" for target in targets
                       for sub in ast.walk(target)
                       if isinstance(sub, ast.Attribute) and sub.attr == "overrides"]
    assert reads == []
    assert writes == []


def test_every_radius_parameter_is_guarded_by_scan_size():
    # a radius that reaches a scan is checked once, by CayleyBall.scan_size,
    # before the scan reads anything: every function outside groups.py that
    # takes a *radius parameter calls it
    unguarded = []
    for path in sorted(Path(l1comb.__file__).parent.glob("*.py")):
        if path.name == "groups.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            if not any(arg.arg.endswith("radius") for arg in args):
                continue
            calls = {getattr(sub.func, "attr", getattr(sub.func, "id", None))
                     for sub in ast.walk(node) if isinstance(sub, ast.Call)}
            if "scan_size" not in calls:
                unguarded.append(f"{path.name}:{node.lineno} {node.name}")
    assert unguarded == []


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

    def test_displacement_constant_measured_once_on_first_read(self, f2, monkeypatch):
        import l1comb.kernel as kernel_module

        calls = []
        measure = kernel_module.empirical_displacement_constant

        def counted(*args):
            calls.append(args[1:])
            return measure(*args)

        monkeypatch.setattr(kernel_module, "empirical_displacement_constant", counted)
        kernel = kernel_from_bicombing(make_bicombing("tree_geodesic", ball(f2, 3)))
        assert calls == [] and kernel.scan_split == (1, 2)
        assert kernel.displacement_constant == kernel.displacement_constant == 0.0
        assert calls == [(1, 2)]

    def test_displacement_constant_reads_the_served_rows(self, f2):
        # split (1, 1): no translate block of s != e holds both a and b, so
        # raising 2K(a, b) by 6 raises the two-sided excess to 6 / 2
        kernel = kernel_from_bicombing(make_bicombing("tree_geodesic", ball(f2, 2)))
        i, j = kernel.index_of("a"), kernel.index_of("b")
        t = kernel.row(i)[j] + 6
        kernel = serve_rows(kernel, {(i, j): t, (j, i): t})
        assert kernel.displacement_constant == 3.0

    def test_exact_dtype(self, tree_kernel, tree_spec, surface_kernel, surface_anti):
        for k, spec in ((tree_kernel, tree_spec), (surface_kernel, surface_anti)):
            # the engine embeds the doubled chains 2 q[e, x]: |F_i|^2 is
            # their l1 norm, and rows of 2K are lists of exact Python ints
            assert k.embedding.norms.tolist() == [
                combing_chain(spec, "", x).scale(2).l1_norm()
                for x in spec.ball.elements[:k.n]]
            assert all(type(t) is int for i in range(0, k.n, 37) for t in k.row(i))
            assert k.values.dtype == np.float64 and not k.values.flags.writeable

    def test_principal_block_reads_the_served_rows(self, f2):
        kernel = kernel_from_bicombing(make_bicombing("tree_geodesic", ball(f2, 2)))
        i, j = kernel.index_of("ab"), kernel.index_of("b")
        kernel = serve_rows(kernel, {(i, j): 99})
        block = kernel.entries([i, j], [i, j])
        assert block == [[0, 99], [kernel.embedding.row(j)[i], 0]]

    @pytest.mark.parametrize("kind", ["tree_geodesic", "shortlex_antisymmetrized"])
    def test_radius_zero_kernel_is_signed_and_exact(self, f2, surface, kind):
        pres = f2 if kind == "tree_geodesic" else surface
        k = kernel_from_bicombing(make_bicombing(kind, ball(pres, 0)))
        assert k.n == 1 and k.row(0) == [0] and type(k.row(0)[0]) is int
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

    @pytest.mark.parametrize("coefficient", [128, -129, 200, -256])
    def test_coefficient_beyond_a_signed_byte_raises(self, coefficient):
        # an entry is a signed byte: a coefficient outside -128..127 raises
        # rather than wrap to another entry
        with pytest.raises(OverflowError):
            SlotEmbedding(numbered([Chain1({WIDE_EDGES[0]: coefficient})]))
        F = SlotEmbedding(numbered([Chain1({WIDE_EDGES[0]: 127}),
                                    Chain1({WIDE_EDGES[0]: -128})]))
        assert F.vals.tolist() == [127, -128] and F.row(0) == [0, 255]

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

    @pytest.mark.parametrize("kind", ["shortlex", "shortlex_antisymmetrized"])
    def test_two_triangle_bound_is_the_untranslated_pair(self, surface_ball4, kind):
        # with s, x and y within radius 1 the untranslated triangles
        # (e, sx, sy) and (sy, sx, s) stay in the radius-4 ball, and the
        # bound read translated by s^-1 gives their areas exactly
        b = surface_ball4
        spec = make_bicombing(kind, b)
        words = b.elements[: b.size_within(1)]
        for s in words:
            for x in words:
                for y in words:
                    sx, sy = b.name(s + x), b.name(s + y)
                    assert two_triangle_bound(spec, s, x, y) == (
                        area(spec, "", sx, sy), area(spec, sy, sx, s)
                    ), (s, x, y)

    def test_translate_out_of_ball_rejected(self, tree_kernel, f2_ball4):
        from l1comb import OutOfBallError

        with pytest.raises(OutOfBallError):
            displacement_decomposition(tree_kernel, "abab", f2_ball4.indices_within(2))

    def test_two_sided_constant_dominates_one_sided(self, surface_kernel,
                                                    surface_ball4):
        m = empirical_displacement_constant(surface_kernel, 2, 2)
        assert m == surface_kernel.displacement_constant
        pairs = list(surface_ball4.indices_within(2))
        base = surface_kernel.entries(pairs, pairs)
        for i in pairs:
            s = surface_ball4.elements[i]
            if s == "":
                continue
            trans = [surface_kernel.index_of(s + surface_ball4.elements[j]) for j in pairs]
            one_sided = max(t - u for rows in zip(surface_kernel.entries(trans, trans), base)
                            for t, u in zip(*rows)) / 2
            assert one_sided <= m


class TestCnd:
    def test_zero_kernel(self, f2):
        b = ball(f2, 1)
        kernel = DisplacementKernel(ball=b, embedding=SlotEmbedding([()] * len(b)))
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

    def test_half_integer_values_render_as_fractions(self, f2):
        from l1comb import kernel_dump

        # 2K(0, 1) = ||0 - 1 edge||_1 = 1, one row per element of the r=1 ball
        b = ball(f2, 1)
        chains = [Chain1(), Chain1({("", "a"): 1})] + [Chain1()] * (len(b) - 2)
        kernel = DisplacementKernel(ball=b, embedding=SlotEmbedding(numbered(chains)))
        assert "0,1,1/2" in kernel_dump(kernel).splitlines()

    @pytest.mark.parametrize("rows", [2, 6])
    def test_row_count_other_than_the_ball_rejected(self, f2, rows):
        # every reader takes one row of F per ball element
        b = ball(f2, 1)
        with pytest.raises(ValueError, match=f"^F has {rows} rows, but the ball has 5 elements$"):
            DisplacementKernel(ball=b, embedding=SlotEmbedding([()] * rows))

    def test_row_dumps_concatenate_to_the_whole_dump(self, tree_kernel, surface):
        from l1comb import kernel_dump

        small = kernel_from_bicombing(
            make_bicombing("shortlex_antisymmetrized", ball(surface, 2))
        )
        for k in (tree_kernel, small):
            whole = kernel_dump(k)
            assert "".join(kernel_dump(k, [i]) for i in range(k.n)) == whole
            assert whole.startswith("i,j,K\n0,0,0")

    @pytest.mark.parametrize("big", ["tree_kernel", "surface_kernel", "f2xf2_kernel4"],
                             ids=["f2", "surface", "f2xf2"])
    def test_leading_block_dumps_the_smaller_radius_kernel(self, request, big):
        # a walked row does not depend on the ball around it: for every r' <= 3
        # the leading block of the radius-4 kernel dumps the kernel over the
        # radius-r' ball, and M agrees on every split (s, p) with s + p <= r'
        from l1comb import kernel_dump

        big = request.getfixturevalue(big)
        for radius in range(4):
            small = kernel_from_bicombing(_small(big.bicombing, radius))
            assert kernel_dump(big, size=big.ball.size_within(radius)) == kernel_dump(small)
            for s_radius in range(radius + 1):
                for pair_radius in range(radius + 1 - s_radius):
                    assert empirical_displacement_constant(big, s_radius, pair_radius) == \
                        empirical_displacement_constant(small, s_radius, pair_radius), \
                        (radius, s_radius, pair_radius)


class TestCrossValidation:
    def test_tree_ball3_exact(self, tree_kernel):
        assert kernel_cross_validate(tree_kernel, radius=3) == 0

    def test_single_pair(self, f2):
        b = ball(f2, 1)
        spec = make_bicombing("tree_geodesic", b)
        assert kernel_cross_validate(kernel_from_bicombing(spec), radius=1) == 0

    def test_surface_ball2_exact(self, surface_kernel):
        assert kernel_cross_validate(surface_kernel, radius=2) == 0


def _unread(kernel):
    """``kernel`` with a translate-block reader that fails the test when
    called, so that a guard is seen to raise before any block is read."""
    kernel.translate_rows = lambda *args: pytest.fail("a translate block was read")
    return kernel


def _small(spec, radius):
    """The combing of ``spec``'s kind over the ball of the given radius."""
    return make_bicombing(spec.kind, ball(spec.ball.presentation, radius))


@pytest.mark.parametrize("call, error, match", [
    (lambda spec: displacement_decomposition(orbit_kernel(
        TreeActionSpec(spec.ball.presentation, 2, {"a": "a", "b": "b"}), spec.ball),
        "a", [0]),
     ValueError, "requires a combing-backed kernel"),
    (lambda spec: displacement_decomposition(
        kernel_from_bicombing(make_bicombing("shortlex", spec.ball)), "a", [0]),
     ValueError, "needs an antisymmetric combing"),
    (lambda spec: empirical_displacement_constant(
        _unread(kernel_from_bicombing(_small(spec, 2))), 1, 2),
     OutOfBallError, r"^scan split \(1, 2\) radius 3 exceeds the ball radius 2$"),
    (lambda spec: empirical_displacement_constant(
        _unread(kernel_from_bicombing(spec)), 2, 3),
     OutOfBallError, r"^scan split \(2, 3\) radius 5 exceeds the ball radius 4$"),
    (lambda spec: empirical_displacement_constant(kernel_from_bicombing(spec), -1, 1),
     ValueError, "s radius must be >= 0"),
    (lambda spec: empirical_displacement_constant(kernel_from_bicombing(spec), 1, -1),
     ValueError, "pair radius must be >= 0"),
    (lambda spec: kernel_cross_validate(kernel_from_bicombing(_small(spec, 2)), radius=3),
     OutOfBallError, "^cross-validation radius 3 exceeds the ball radius 2$"),
    (lambda spec: op_norm_lower_bound("a", _unread(kernel_from_bicombing(spec)), 5),
     OutOfBallError, "^pair radius 5 exceeds the ball radius 4$"),
    (lambda spec: _unread(kernel_from_bicombing(spec)).translate_pairs("ab", 5),
     OutOfBallError, "^pair radius 5 exceeds the ball radius 4$"),
    (lambda spec: op_norm_lower_bound("a", _unread(kernel_from_bicombing(spec)), -1),
     ValueError, "^pair radius must be >= 0$"),
    (lambda spec: kernel_cross_validate(orbit_kernel(
        TreeActionSpec(spec.ball.presentation, 2, {"a": "a", "b": "b"}), spec.ball)),
     ValueError, "requires a combing-backed kernel"),
], ids=["no-combing", "not-antisymmetric", "scan-split", "scan-split-beyond-the-ball",
        "negative-s-radius", "negative-pair-radius", "cross-validation-radius",
        "opnorm-pair-radius", "translate-pairs-radius", "opnorm-negative-pair-radius",
        "no-combing-cross-validation"])
def test_guard_rejects_its_input(tree_spec, call, error, match):
    with pytest.raises(error, match=match):
        call(tree_spec)


@pytest.mark.parametrize("pres, radius", [("f2", 4), ("surface", 3), ("f2xf2", 3)])
def test_translate_reader_equals_the_full_blocks(request, pres, radius):
    # the one translate-block reader reads y after x only, as 2K is symmetric
    # and zero on the diagonal: against both full entries blocks, for every s
    # of the scan split, e included; M against the full blocks' largest
    # |2K(sx, sy) - 2K(x, y)|, diagonal included
    b = ball(request.getfixturevalue(pres), radius)
    kernel = kernel_from_bicombing(make_bicombing("shortlex_antisymmetrized", b))
    s_radius, pair_radius = kernel.scan_split
    pairs = range(b.size_within(pair_radius))
    worst = 0
    for s in b.elements[:b.size_within(s_radius)]:
        trans = [kernel.translate_index(s, b.elements[i]) for i in pairs]
        fixed, moved = kernel.entries(pairs, pairs), kernel.entries(trans, trans)
        assert list(kernel.translate_rows(s, pairs)) == [
            (fixed[a][a + 1:], moved[a][a + 1:]) for a in pairs]
        assert kernel.translate_pairs(s, pair_radius) == {
            (fixed[a][c], moved[a][c]) for a in pairs for c in pairs if a != c}
        worst = max(worst, *(abs(t - u) for fr, mr in zip(fixed, moved)
                             for u, t in zip(fr, mr)))
    assert empirical_displacement_constant(kernel, s_radius, pair_radius) == worst / 2


def test_displacement_scan_holds_no_block(f2):
    # the scan split (3, 4) of the F2 r=7 kernel reads 161 pairs: each s's
    # row pairs are reduced in turn into its set of distinct pairs, so no
    # |P|^2 block is held, not even the base block 2K[P, P]
    kernel = kernel_from_bicombing(make_bicombing("tree_geodesic", ball(f2, 7)))
    pairs = range(kernel.ball.size_within(4))
    tracemalloc.start()
    try:
        block = kernel.entries(pairs, pairs)
        size = tracemalloc.get_traced_memory()[0]
        del block
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        assert empirical_displacement_constant(kernel, 3, 4) == 0.0
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert len(pairs) == 161
    assert peak < size


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
    # the rows walked on the multiplication table are the numbered (edge,
    # coefficient) rows of the word chains 2 q[e, x], on every element
    b = ball(request.getfixturevalue(pres), radius)
    spec = make_bicombing(kind, b)
    walked = kernel_from_bicombing(spec).embedding
    words = SlotEmbedding(numbered(combing_chain(spec, "", x).scale(2) for x in b.elements))
    assert len(walked.norms) == len(b)
    for name in ("cols", "vals", "norms", "ptr", "col_ptr", "col_rows", "col_vals"):
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
    b.name("aA")  # the counters do see a call
    assert calls[0] == "name" and "normal" in calls


def test_index_of_a_ball_element_solves_no_word_problem(surface, monkeypatch):
    from l1comb import GroupPresentation

    b = ball(surface, 3)
    kernel = kernel_from_bicombing(make_bicombing("shortlex_antisymmetrized", b))
    calls = []
    normal = GroupPresentation.normal

    def counted(self, word):
        calls.append(word)
        return normal(self, word)

    monkeypatch.setattr(GroupPresentation, "normal", counted)
    assert [kernel.index_of(w) for w in b.elements] == list(range(len(b)))
    assert calls == []
    assert kernel.index_of("aAb") == b.index["b"]  # the counter does see a call
    assert calls


def test_kernel_build_retains_only_f(surface):
    # the walked build leaves nothing behind but F: no name-cache entries, no
    # chains, no column-key table
    b = ball(surface, 4)
    spec = make_bicombing("shortlex_antisymmetrized", b)
    kernel_from_bicombing(_small(spec, 1))  # the lazy imports load here
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kernel = kernel_from_bicombing(spec)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    F = kernel.embedding
    f_bytes = sum(memoryview(a).nbytes for a in (F.cols, F.vals, F.norms, F.ptr,
                                                 F.col_rows, F.col_vals, F.col_ptr))
    assert kernel.n == 3193
    assert retained <= f_bytes + 16_384, (retained, f_bytes)


@pytest.mark.parametrize("pres, radius, kind", [
    ("surface", 4, "shortlex_antisymmetrized"),
    ("f2", 7, "tree_geodesic"),
])
def test_kernel_build_peak_stays_within_twice_f(request, pres, radius, kind):
    # the one-pass build holds F, the flat key table and one column cursor:
    # no key dict, no growing buffer, no int64 sort order, no repeated rows;
    # F holds one entry per edge of the doubled chains
    spec = make_bicombing(kind, ball(request.getfixturevalue(pres), radius))
    kernel_from_bicombing(_small(spec, 1))  # the lazy imports load here
    tracemalloc.start()
    try:
        kernel = kernel_from_bicombing(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    F = kernel.embedding
    f_bytes = sum(memoryview(a).nbytes for a in (F.cols, F.vals, F.norms, F.ptr,
                                                 F.col_rows, F.col_vals, F.col_ptr))
    assert kernel.n == {4: 3193, 7: 4373}[radius]
    assert len(F.cols) == len(F.col_rows) == {4: 12_264, 7: 28_432}[radius]
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
    # a translate outside the radius-2 ball has no index: the error names
    # the product
    small = kernel_from_bicombing(make_bicombing("shortlex", ball(presentation, 2)))
    for s, x in (("ab", "ab"), ("aaaa", "a")):
        with pytest.raises(OutOfBallError, match=repr(s + x)):
            small.translate_index(s, x)


def test_slot_embedding_rows_match_the_matrix(tree_kernel, surface_kernel):
    for k in (tree_kernel, surface_kernel):
        for i in range(0, k.n, 37):
            assert np.array_equal(k.row(i), 2 * k.values[i])
        assert k.embedding.defect() is None
        k = serve_rows(k, {(5, 3): k.row(5)[3] + 1})
        # the served rows differ from F's own at the override alone
        assert [i for i in range(k.n) if k.row(i) != k.embedding.row(i)] == [5]
        served, own = k.row(5), k.embedding.row(5)
        assert [j for j in range(k.n) if served[j] != own[j]] == [3]


F2_ACTION = ["action", "--presentation", "prod.txt", "--action", "proj.txt",
             "--radius", "2"]
SURFACE_COMBING = [["ball", "--presentation", "surface.txt", "--radius", "1"],
                   ["bicombing-stats", "--presentation", "surface.txt", "--radius", "1"]]


@pytest.mark.parametrize("commands, unloaded", [
    # no module imports scipy: eigenvalues come from numpy.linalg
    pytest.param([["verify", "--presentation", "f2.txt", "--radius", "3"], F2_ACTION],
                 "scipy", id="kernel-engine-without-scipy"),
    # the combing layer is integer and rational arithmetic only
    pytest.param(SURFACE_COMBING, "numpy", id="combing-layer-without-numpy"),
    # the start-up budget: records are NamedTuples and plain classes, and the
    # report header's timestamp comes from time.gmtime
    pytest.param(SURFACE_COMBING, "dataclasses", id="startup-without-dataclasses"),
    pytest.param(SURFACE_COMBING, "inspect", id="startup-without-inspect"),
    pytest.param(SURFACE_COMBING, "datetime", id="startup-without-datetime"),
    pytest.param([F2_ACTION, ["opnorm", "--presentation", "prod.txt", "--radius", "2"]],
                 "numpy.random", id="opnorm-probe-without-numpy-random"),
    # blocks of 2K are Python ints and the probe is pure Python: only the
    # float matrix and eigenvalues (--quasitree) import numpy
    pytest.param([F2_ACTION, ["opnorm", "--presentation", "prod.txt", "--radius", "3"]],
                 "numpy", id="action-and-opnorm-without-numpy"),
    # F's structure certifies the kernel and dumped rows are Python ints
    pytest.param([["verify", "--presentation", "f2.txt", "--radius", "3"],
                  ["verify", "--presentation", "surface.txt", "--radius", "2"],
                  ["norms", "--presentation", "surface.txt", "--radius", "2"]],
                 "numpy", id="verify-and-norms-without-numpy"),
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
