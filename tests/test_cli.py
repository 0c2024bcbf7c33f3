import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from conftest import SWAP_RULES, serve_rows

from l1comb import GroupPresentation, ball, cli
from l1comb.cli import main
from l1comb.espace import NonCndFormError, PropernessError
from l1comb.groups import OutOfBallError
from l1comb.kernel import DecompositionError

ROOT = Path(__file__).resolve().parent.parent

F2 = "generators: a b\nrelators: (none)\nmode: free\n"
SURFACE = "generators: a b c d\nrelators: abABcdCD\nmode: dehn\n"
PRODUCT = (
    "generators: a b c d\n"
    "relators: acAC adAD bcBC bdBD\n"
    "mode: rewriting\n"
    "rules:\n"
    + "\n".join(f"{x}{y} -> {y}{x}" for x in "cCdD" for y in "aAbB")
    + "\n"
)
PROJECTION = "target_rank: 2\na -> a\nb -> b\nc -> e\nd -> e\n"


@pytest.fixture
def f2_file(tmp_path):
    path = tmp_path / "f2.txt"
    path.write_text(F2)
    return path


@pytest.fixture
def surface_file(tmp_path):
    path = tmp_path / "surface.txt"
    path.write_text(SURFACE)
    return path


def _body(path):
    # CSV body minus the informational timestamp line
    return [
        line for line in path.read_text().splitlines()
        if not line.startswith("# timestamp:")
    ]


class TestBallCommand:
    def test_sphere_counts(self, f2_file, tmp_path):
        out = tmp_path / "out"
        assert main(["ball", "--presentation", str(f2_file), "--radius", "3",
                     "--out", str(out)]) == 0
        lines = _body(out / "ball.csv")
        assert lines[-4:] == ["0,1", "1,4", "2,12", "3,36"]

    def test_radius_zero(self, f2_file, tmp_path):
        out = tmp_path / "out"
        assert main(["ball", "--presentation", str(f2_file), "--radius", "0",
                     "--out", str(out)]) == 0
        assert _body(out / "ball.csv")[-1] == "0,1"

    def test_header_records_seed_and_generators(self, f2_file, tmp_path):
        out = tmp_path / "out"
        main(["ball", "--presentation", str(f2_file), "--seed", "7",
              "--out", str(out)])
        text = (out / "ball.csv").read_text()
        assert "# seed: 7" in text
        assert "# generators: a b" in text

    def test_missing_file_is_input_error(self, tmp_path):
        assert main(["ball", "--presentation", str(tmp_path / "nope.txt")]) == 2

    def test_bad_presentation_is_input_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("generators: a\nrelators: ab\nmode: dehn\n")
        assert main(["ball", "--presentation", str(path)]) == 2

    def test_cap_exceeded_is_resource_error(self, f2_file, tmp_path):
        assert main(["ball", "--presentation", str(f2_file), "--radius", "6",
                     "--cap", "50", "--out", str(tmp_path / "out")]) == 3

    @pytest.mark.parametrize("cap", [-5, 0])
    def test_cap_below_one_is_input_error(self, f2_file, tmp_path, capsys, cap):
        # every ball holds the identity, so such a cap can never be met
        assert main(["ball", "--presentation", str(f2_file), "--cap", str(cap),
                     "--out", str(tmp_path / "out")]) == 2
        assert "cap" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestBicombingStats:
    def test_tree_stats_vanish(self, f2_file, tmp_path):
        out = tmp_path / "out"
        assert main(["bicombing-stats", "--presentation", str(f2_file),
                     "--radius", "3", "--out", str(out)]) == 0
        rows = _body(out / "bicombing.csv")
        assert rows[-1].startswith("tree_geodesic,0,e,e,e,1,0")

    def test_surface_emits_raw_and_antisymmetrized(self, surface_file, tmp_path):
        out = tmp_path / "out"
        assert main(["bicombing-stats", "--presentation", str(surface_file),
                     "--radius", "2", "--out", str(out)]) == 0
        rows = _body(out / "bicombing.csv")
        raw = rows[-2].split(",")
        anti = rows[-1].split(",")
        assert raw[0] == "shortlex" and anti[0] == "shortlex_antisymmetrized"
        from fractions import Fraction
        assert Fraction(anti[1]) <= Fraction(raw[1])


class TestNormsAndOpnorm:
    def test_norms_rows_follow_tree_formula(self, f2_file, tmp_path):
        import math

        out = tmp_path / "out"
        assert main(["norms", "--presentation", str(f2_file), "--radius", "3",
                     "--out", str(out)]) == 0
        rows = _body(out / "norms.csv")
        header = rows[rows.index("word,d,norm_f,norm_l1,norm_E,lower_bound")]
        assert header == "word,d,norm_f,norm_l1,norm_E,lower_bound"
        for line in rows[rows.index(header) + 1:]:
            word, d, nf, nl1, ne, lower = line.split(",")
            assert abs(float(ne) - (math.sqrt(int(d)) + 2.0)) < 1e-9

    def test_opnorm_bounded_by_one_on_tree(self, f2_file, tmp_path):
        out = tmp_path / "out"
        assert main(["opnorm", "--presentation", str(f2_file), "--radius", "2",
                     "--out", str(out)]) == 0
        rows = _body(out / "opnorm.csv")
        start = rows.index("word,lower_bound_found,theoretical_upper,iters,seed")
        for line in rows[start + 1:]:
            word, found, upper, iters, seed = line.split(",")
            assert float(found) <= 1 + 1e-9
            assert float(upper) == 1.0

    def test_determinism_modulo_timestamp(self, f2_file, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for out in (out1, out2):
            assert main(["norms", "--presentation", str(f2_file), "--radius", "3",
                         "--seed", "5", "--out", str(out)]) == 0
        first = _body(out1 / "norms.csv")
        second = _body(out2 / "norms.csv")
        # identical config and seed give byte-identical bodies, but the
        # header paths differ; compare everything from the column header on
        assert first[first.index("word,d,norm_f,norm_l1,norm_E,lower_bound"):] == \
            second[second.index("word,d,norm_f,norm_l1,norm_E,lower_bound"):]


class TestVerify:
    def test_free_group_passes(self, f2_file, tmp_path):
        assert main(["verify", "--presentation", str(f2_file), "--radius", "4",
                     "--out", str(tmp_path / "out")]) == 0

    def test_surface_passes(self, surface_file, tmp_path):
        assert main(["verify", "--presentation", str(surface_file), "--radius", "2",
                     "--out", str(tmp_path / "out")]) == 0

    def test_product_rewriting_passes(self, tmp_path):
        path = tmp_path / "prod.txt"
        path.write_text(PRODUCT)
        assert main(["verify", "--presentation", str(path), "--radius", "2",
                     "--out", str(tmp_path / "out")]) == 0

    def test_sabotage_flips_exit_code_with_witness(self, f2_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["verify", "--presentation", str(f2_file), "--radius", "3",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        code = main(["verify", "--presentation", str(f2_file), "--radius", "3",
                     "--out", str(out), "--sabotage-diagonal", "5"])
        captured = capsys.readouterr().out
        assert code == 1
        assert "FAIL kernel_diagonal_zero" in captured
        assert "K(5,5)" in captured

    def test_norm_formula_verdict_ignores_tol(self, f2_file, tmp_path, capsys):
        # --tol governs only the float kernel_cnd cross-check: the sabotaged
        # diagonal puts Q(b(s)) 1/2 below K(s, e), whatever the tolerance
        code = main(["verify", "--presentation", str(f2_file), "--radius", "3",
                     "--out", str(tmp_path / "out"), "--tol", "1e9",
                     "--sabotage-diagonal", "4"])
        assert code == 1
        assert "FAIL norm_formula" in capsys.readouterr().out

    def test_negative_entry_fails_with_its_position(self, f2_file, tmp_path,
                                                     capsys, monkeypatch):
        build = cli.kernel_from_bicombing

        def negative(spec):
            return serve_rows(build(spec), {(1, 2): -2, (2, 1): -2})

        monkeypatch.setattr(cli, "kernel_from_bicombing", negative)
        code = main(["verify", "--presentation", str(f2_file), "--radius", "2",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "FAIL kernel_nonnegative [K(1, 2) < 0]" in capsys.readouterr().out

    def test_corrupted_far_pair_fails_exact_cnd(self, f2_file, tmp_path,
                                                 capsys, monkeypatch):
        # 2K(484, 483) lies outside the float cross-check's 600 elements and
        # the cross-validation's 200; --tol 1e9 makes the float test vacuous
        build = cli.kernel_from_bicombing

        def corrupted(spec):
            kernel = build(spec)
            t = kernel.row(484)[483] + 1
            return serve_rows(kernel, {(484, 483): t, (483, 484): t})

        monkeypatch.setattr(cli, "kernel_from_bicombing", corrupted)
        code = main(["verify", "--presentation", str(f2_file), "--radius", "5",
                     "--tol", "1e9", "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL kernel_cnd [2K(483, 484)" in out
        assert out.count("FAIL") == 1

    def test_norm_formula_compares_with_chain_arithmetic(self, f2_file, tmp_path,
                                                         capsys, monkeypatch):
        build = cli.kernel_from_bicombing

        def raised(spec):
            kernel = build(spec)
            t = kernel.row(700)[0] + 2
            return serve_rows(kernel, {(700, 0): t, (0, 700): t})

        monkeypatch.setattr(cli, "kernel_from_bicombing", raised)
        code = main(["verify", "--presentation", str(f2_file), "--radius", "6",
                     "--tol", "1e9", "--out", str(tmp_path / "out")])
        assert code == 1
        assert "FAIL norm_formula" in capsys.readouterr().out

    def test_asymmetric_pair_is_named(self, f2_file, tmp_path, capsys, monkeypatch):
        build = cli.kernel_from_bicombing

        def asymmetric(spec):
            kernel = build(spec)
            return serve_rows(kernel, {(7, 3): kernel.row(7)[3] + 2})

        monkeypatch.setattr(cli, "kernel_from_bicombing", asymmetric)
        code = main(["verify", "--presentation", str(f2_file), "--radius", "2",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "FAIL kernel_symmetry [K(3, 7) != K(7, 3)]" in capsys.readouterr().out

    @pytest.mark.parametrize("index", ["99999", "-1"])
    def test_sabotage_index_out_of_range_is_input_error(self, f2_file, tmp_path,
                                                        capsys, index):
        code = main(["verify", "--presentation", str(f2_file), "--radius", "2",
                     "--out", str(tmp_path / "out"), "--sabotage-diagonal", index])
        assert code == 2
        assert "sabotage-diagonal" in capsys.readouterr().err

    @pytest.mark.parametrize("radius", [0, 1])
    def test_radius_below_two_is_input_error(self, surface_file, tmp_path,
                                             capsys, radius):
        # the sampled checks would see only the identity
        out = tmp_path / "out"
        assert main(["verify", "--presentation", str(surface_file),
                     "--radius", str(radius), "--out", str(out)]) == 2
        assert "radius" in capsys.readouterr().err
        assert not (out / "verify.csv").exists()


class TestExitCodes:
    def _run_raising(self, exc, f2_file, tmp_path, monkeypatch):
        def handler(config):
            raise exc

        monkeypatch.setitem(cli._HANDLERS, "ball", handler)
        return main(["ball", "--presentation", str(f2_file),
                     "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("exc", [
        PropernessError("row s has norm below its bound"),
        DecompositionError("excess above the triangle bound"),
        NonCndFormError("quadratic form below the floor"),
    ], ids=lambda exc: type(exc).__name__)
    def test_invariant_violation_exits_1(self, f2_file, tmp_path, monkeypatch,
                                         capsys, exc):
        assert self._run_raising(exc, f2_file, tmp_path, monkeypatch) == 1
        err = capsys.readouterr().err
        assert err == f"invariant violation: {exc}\n"

    @pytest.mark.parametrize("exc", [
        IndexError("list index out of range"),
        KeyError("missing"),
        AssertionError("internal check"),
        OutOfBallError("translate left the ball"),
        ZeroDivisionError("division by zero"),
    ], ids=lambda exc: type(exc).__name__)
    def test_other_exceptions_are_internal_errors(self, f2_file, tmp_path,
                                                  monkeypatch, capsys, exc):
        assert self._run_raising(exc, f2_file, tmp_path, monkeypatch) == 4
        err = capsys.readouterr().err
        assert err.startswith("Traceback") and type(exc).__name__ in err


class TestActionCommand:
    def test_projection_action_verdict(self, tmp_path):
        pres = tmp_path / "prod.txt"
        pres.write_text(PRODUCT)
        act = tmp_path / "proj.txt"
        act.write_text(PROJECTION)
        out = tmp_path / "out"
        assert main(["action", "--presentation", str(pres), "--action", str(act),
                     "--radius", "3", "--out", str(out)]) == 0
        text = (out / "action.csv").read_text()
        assert "# verdict: unbounded on scanned range" in text

    def test_quasitree_accept_and_reject(self, f2_file, tmp_path):
        good = tmp_path / "good.csv"
        good.write_text("delta: 0\nx,y,d,K\ne,a,1,1\ne,b,1,1\na,b,2,2\n")
        bad = tmp_path / "bad.csv"
        bad.write_text("delta: 0\nx,y,d,K\ne,a,1,1.5\ne,b,1,1\na,b,2,2\n")
        out = tmp_path / "out"
        assert main(["action", "--presentation", str(f2_file),
                     "--quasitree", str(good), "--out", str(out)]) == 0
        assert main(["action", "--presentation", str(f2_file),
                     "--quasitree", str(bad), "--out", str(out)]) == 1

    def test_action_without_inputs_is_input_error(self, f2_file, tmp_path):
        assert main(["action", "--presentation", str(f2_file),
                     "--out", str(tmp_path / "out")]) == 2


# run-dependent header lines, left out of every body comparison
UNSTABLE_HEADER = ("# timestamp:", "# presentation:", "# seed:")

# sha256 of each CSV body (header lines other than UNSTABLE_HEADER included),
# recorded before the word-problem engine became one rewriter
GOLDEN_DIGESTS = {
    "ball.csv":
        "deaadf37cb7c1a12ed41926a96fcb3159990b62bf285160a85233f68840ecd69",
    "bicombing.csv":
        "b392222488387d2263951565b516bfb853e8acb462708ab7ebd75e3414877059",
    "norms.csv":
        "c62783170e5b7169682ef1ac193bfe6a299fbcd5477f250d701a04750c742dd5",
    "kernel.csv":
        "830edc1069058062fb57a49dad78cef7905ae00f7010d7274d49cf9f16ff78ac",
    "action.csv":
        "acddec993731ce7f7936f873173adc2052781afafbf956659d07aa8b984e090b",
}


def _body_digest(path):
    lines = path.read_text().splitlines(keepends=True)
    return hashlib.sha256("".join(
        line for line in lines if not line.startswith(UNSTABLE_HEADER)
    ).encode()).hexdigest()


def test_csv_bodies_match_golden_digests(surface_file, tmp_path):
    prod = tmp_path / "prod.txt"
    prod.write_text(PRODUCT)
    proj = tmp_path / "proj.txt"
    proj.write_text(PROJECTION)
    runs = [
        ["ball", "--presentation", str(surface_file), "--radius", "3"],
        ["bicombing-stats", "--presentation", str(surface_file), "--radius", "1"],
        ["norms", "--presentation", str(surface_file), "--radius", "2"],
        ["action", "--presentation", str(prod), "--action", str(proj),
         "--radius", "3"],
    ]
    out = tmp_path / "out"
    for argv in runs:
        assert main(argv + ["--out", str(out)]) == 0
    digests = {name: _body_digest(out / name) for name in GOLDEN_DIGESTS}
    assert digests == GOLDEN_DIGESTS


def test_kernel_csv_is_streamed(surface_file, tmp_path, monkeypatch):
    # trace allocations from the first dump call on: by then the ball, chains
    # and kernel exist, and only the writing of kernel.csv is left
    dump = cli.kernel_dump
    base = []

    def traced_dump(*args, **kwargs):
        if not base:
            tracemalloc.start()
            base.append(tracemalloc.get_traced_memory()[0])
        return dump(*args, **kwargs)

    monkeypatch.setattr(cli, "kernel_dump", traced_dump)
    out = tmp_path / "out"
    try:
        assert main(["norms", "--presentation", str(surface_file), "--radius", "3",
                     "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1] - base[0]
    finally:
        tracemalloc.stop()
    size = (out / "kernel.csv").stat().st_size
    assert size > 900_000  # ~1 MB: 104,653 rows for 457 elements
    assert peak < size / 10, peak


@pytest.mark.parametrize("command, radius", [("verify", 7), ("norms", 6)])
def test_commands_store_no_n_by_n_matrix(f2_file, tmp_path, command, radius):
    # at these radii one int8 n x n matrix (n^2 bytes: 19 MB for verify, whose
    # float cross-check block on 485 elements is ~2 MB, and 2.1 MB for norms)
    # would outweigh everything else the command allocates
    n = 2 * 3**radius - 1  # |ball(radius)| in F2
    tracemalloc.start()
    try:
        assert main([command, "--presentation", str(f2_file), "--radius", str(radius),
                     "--out", str(tmp_path / "out")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n, (peak, n * n)


def test_benchmark_tracer_counts_the_streamed_kernel_csv(surface_file, f2_file,
                                                          tmp_path):
    # perfbench/tracer.py sums len() of every kernel_dump result and reads the
    # kernel's n, values and twice; run it in a child, since installing it
    # patches l1comb for the rest of the process
    prod = tmp_path / "prod.txt"
    prod.write_text(PRODUCT)
    proj = tmp_path / "proj.txt"
    proj.write_text(PROJECTION)
    out = tmp_path / "out"
    runs = [
        ["norms", "--presentation", str(surface_file), "--radius", "2"],
        ["verify", "--presentation", str(f2_file), "--radius", "3"],
        ["action", "--presentation", str(prod), "--action", str(proj), "--radius", "2"],
        ["opnorm", "--presentation", str(prod), "--radius", "2"],
    ]
    script = (
        "import json, sys\n"
        "from tracer import Tracer, install\n"
        "from l1comb import cli\n"
        "tracer = Tracer()\n"
        "install(tracer)\n"
        "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps({'codes': codes, 'counters': tracer.report()['counters']}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH"))
        if p
    )
    result = subprocess.run(
        [sys.executable, "-c", script,
         json.dumps([argv + ["--out", str(out)] for argv in runs])],
        capture_output=True, text=True, env=env, check=True,
    )
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0, 0, 0]
    surface = GroupPresentation(("a", "b", "c", "d"), ("abABcdCD",), "dehn")
    product = GroupPresentation(("a", "b", "c", "d"), ("acAC", "adAD", "bcBC", "bdBD"),
                                "rewriting", SWAP_RULES)
    # kernels built: surface norms r=2, F2 verify r=3 and F2 x F2 opnorm r=2
    assert report["counters"]["kernel.n"] == (
        len(ball(surface, 2)) + 2 * 3**3 - 1 + len(ball(product, 2)))
    assert report["counters"]["kernel.dump_bytes"] == (out / "kernel.csv").stat().st_size
