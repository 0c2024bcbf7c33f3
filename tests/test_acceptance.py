"""Acceptance suite: one test per criterion, each self-contained and timed,
printing one pass/fail line on the live terminal."""

import math
import random
import time
from contextlib import contextmanager

from l1comb import (
    EVector,
    GroupPresentation,
    QuasiTreeKernelInput,
    TriplePolicy,
    ball,
    check_cocycle_identity,
    cnd_min_eigenvalue,
    cocycle,
    combing_chain,
    displacement_decomposition,
    empirical_area_constant,
    free_reduce,
    invert,
    kernel_cross_validate,
    kernel_from_bicombing,
    make_bicombing,
    norm_e,
    op_norm_lower_bound,
    orbit_growth_report,
    orbit_kernel,
    parse_action,
    per_vector_bound_check,
    properness_report,
    validate_quasitree_kernel,
)
from l1comb.cli import main

SWAP_RULES = tuple((x + y, y + x) for x in "cCdD" for y in "aAbB")


@contextmanager
def criterion(capsys, number, label, limit=None):
    state = {"t0": time.monotonic()}
    try:
        yield state
    except BaseException:
        with capsys.disabled():
            print(f"\nFAIL criterion {number}: {label}")
        raise
    elapsed = time.monotonic() - state["t0"]
    if limit is not None:
        assert elapsed < limit, f"criterion {number} took {elapsed:.1f}s >= {limit}s"
    with capsys.disabled():
        print(f"\nPASS criterion {number}: {label} ({elapsed:.1f}s)")


def test_criterion_1_free_group_exactness(capsys):
    with criterion(capsys, 1, "free-group exactness on the radius-5 ball", 10.0):
        f2 = GroupPresentation(("a", "b"))
        b5 = ball(f2, 5)
        assert len(b5) == 485
        spec = make_bicombing("tree_geodesic", b5)
        kernel = kernel_from_bicombing(spec)

        # area constant 0: 5000 seeded triples on ball(5), exhaustive on ball(3)
        sampled = empirical_area_constant(
            spec, radius=5, policy=TriplePolicy(samples=5000, seed=1)
        )
        assert not sampled.exhaustive and sampled.triples_scanned == 5000
        assert sampled.value == 0
        exhaustive = empirical_area_constant(spec, radius=3)
        assert exhaustive.exhaustive
        assert exhaustive.value == 0

        # K(x, y) = d(x, y) exactly on all pairs
        inverses = [invert(w) for w in b5.elements]
        for i in range(len(b5.elements)):
            row = kernel.values[i]
            for j in range(len(b5.elements)):
                assert row[j] == len(free_reduce(inverses[i] + b5.elements[j]))

        # cocycle norms match sqrt(d) + 2 through the quadratic form
        for i in range(1, len(b5.elements)):
            s = b5.elements[i]
            direct = norm_e(cocycle(s), kernel)
            assert abs(direct - (math.sqrt(len(b5.elements[i])) + 2.0)) <= 1e-9

        # cocycle identity residual exactly 0 on all pairs of the radius-2 ball
        n2 = b5.size_within(2)
        for i in range(n2):
            for j in range(n2):
                assert check_cocycle_identity(b5.elements[i], b5.elements[j], b5) == 0

        # translation operators are isometric: lower bounds stay at 1
        for i in range(n2):
            res = op_norm_lower_bound(b5.elements[i], kernel, 2)
            assert res.value <= 1.0 + 1e-9


def test_criterion_2_cnd_certification(capsys):
    with criterion(capsys, 2, "conditional negative definiteness certificates", 30.0):
        f2 = GroupPresentation(("a", "b"))
        tree = make_bicombing("tree_geodesic", ball(f2, 4))
        tree_kernel = kernel_from_bicombing(tree)
        assert cnd_min_eigenvalue(tree_kernel) >= -1e-9
        assert kernel_cross_validate(tree_kernel) == 0

        surface = GroupPresentation(("a", "b", "c", "d"), ("abABcdCD",), "dehn")
        anti = make_bicombing("shortlex_antisymmetrized", ball(surface, 2))
        surf_kernel = kernel_from_bicombing(anti)
        assert cnd_min_eigenvalue(surf_kernel) >= -1e-9
        assert kernel_cross_validate(surf_kernel) == 0


def test_criterion_3_proof_inequality_replay(capsys):
    with criterion(capsys, 3, "displacement inequality replay on the surface group", 60.0):
        surface = GroupPresentation(("a", "b", "c", "d"), ("abABcdCD",), "dehn")
        b4 = ball(surface, 4)
        spec = make_bicombing("shortlex_antisymmetrized", b4)
        kernel = kernel_from_bicombing(spec)
        rng = random.Random(2024)
        n2 = b4.size_within(2)
        checked_pairs = 0
        for _ in range(200):
            s = b4.elements[rng.randrange(n2)]
            support = rng.sample(range(n2), rng.randint(2, 4))
            coeffs = [rng.randint(-3, 3) for _ in support]
            coeffs[-1] -= sum(coeffs)
            v = EVector({b4.elements[i]: c for i, c in zip(support, coeffs)})
            if not v.coeffs:
                continue
            res = per_vector_bound_check(s, v, kernel)
            assert res.passed
            assert res.lhs <= res.rhs + 1e-9
            # each pairwise excess is bounded by its exact two-triangle areas
            idx = [b4.canonical_index(w) for w in v.support()]
            for row in displacement_decomposition(kernel, s, idx):
                assert row.excess <= row.area_first + row.area_second
                checked_pairs += 1
        assert checked_pairs > 200


def test_criterion_4_properness_lower_bounds(capsys):
    with criterion(capsys, 4, "combing norms dominate distances; norm rows proper"):
        f2 = GroupPresentation(("a", "b"))
        b5 = ball(f2, 5)
        tree = make_bicombing("tree_geodesic", b5)
        for i in range(len(b5.elements)):
            length = combing_chain(tree, "", b5.elements[i]).l1_norm()  # of 2 q
            assert length >= 2 * len(b5.elements[i])
        tree_kernel = kernel_from_bicombing(tree)
        for row in properness_report(tree_kernel).rows:
            assert row.norm_e >= row.lower_bound - 1e-9

        surface = GroupPresentation(("a", "b", "c", "d"), ("abABcdCD",), "dehn")
        b3 = ball(surface, 3)
        anti = make_bicombing("shortlex_antisymmetrized", b3)
        for i in range(len(b3.elements)):
            length = combing_chain(anti, "", b3.elements[i]).l1_norm()
            assert length >= 2 * len(b3.elements[i])
        surf_kernel = kernel_from_bicombing(anti)
        for row in properness_report(surf_kernel).rows:
            assert row.norm_e >= row.lower_bound - 1e-9


def test_criterion_5_tree_action_pipeline(capsys):
    with criterion(capsys, 5, "isometric tree actions and quasi-tree inputs", 10.0):
        f2 = GroupPresentation(("a", "b"))
        b5 = ball(f2, 5)
        identity_action = parse_action("target_rank: 2\na -> a\nb -> b\n", f2)
        kernel = orbit_kernel(identity_action, b5)
        assert kernel.displacement_constant == 0.0
        growth = orbit_growth_report(kernel)
        assert growth.verdict == "unbounded on scanned range"
        for n in range(1, 6):
            assert abs(growth.sphere_maxima[n] - (math.sqrt(n) + 2.0)) <= 1e-9

        product = GroupPresentation(
            ("a", "b", "c", "d"),
            ("acAC", "adAD", "bcBC", "bdBD"),
            "rewriting",
            SWAP_RULES,
        )
        b4 = ball(product, 4)
        projection = parse_action(
            "target_rank: 2\na -> a\nb -> b\nc -> e\nd -> e\n", product
        )
        proj_kernel = orbit_kernel(projection, b4)
        assert proj_kernel.displacement_constant == 0.0
        trivial_factor = orbit_growth_report(
            proj_kernel, element_filter=lambda w: all(ch in "cCdD" for ch in w)
        )
        assert trivial_factor.verdict == "bounded on scanned range"
        assert all(row.norm_e == 2.0 for row in trivial_factor.norm_report.rows)
        full = orbit_growth_report(proj_kernel)
        assert full.verdict == "unbounded on scanned range"

        # quasi-tree input: the exact tree kernel passes, a bumped pair fails
        words = b5.elements[: b5.size_within(2)]
        distances, values = {}, {}
        for i, x in enumerate(words):
            for y in words[i + 1:]:
                key = (x, y) if x <= y else (y, x)
                d = float(len(free_reduce(invert(x) + y)))
                distances[key] = d
                values[key] = d
        good = QuasiTreeKernelInput(tuple(words), distances, dict(values), 0.0)
        assert validate_quasitree_kernel(good).passed
        bumped = dict(values)
        bumped[("a", "b")] += 0.5
        bad = QuasiTreeKernelInput(tuple(words), distances, bumped, 0.0)
        report = validate_quasitree_kernel(bad)
        assert not report.passed
        assert any("'a'" in f and "'b'" in f for f in report.failures)


def test_criterion_6_sabotage_sensitivity(capsys, tmp_path):
    with criterion(capsys, 6, "verifier detects a corrupted kernel entry"):
        pres = tmp_path / "f2.txt"
        pres.write_text("generators: a b\nrelators: (none)\nmode: free\n")
        out = tmp_path / "reports"
        clean = main(["verify", "--presentation", str(pres), "--radius", "3",
                      "--out", str(out)])
        assert clean == 0
        capsys.readouterr()
        corrupted = main(["verify", "--presentation", str(pres), "--radius", "3",
                          "--out", str(out), "--sabotage-diagonal", "4"])
        printed = capsys.readouterr().out
        assert corrupted == 1
        assert "FAIL" in printed and "K(4,4)" in printed
