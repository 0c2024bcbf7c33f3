import copy
import csv
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import SWAP_RULES, serve_rows
from hypothesis import HealthCheck, given, settings, strategies as st

from l1comb import BoundCheck, CayleyBall, Chain1, GroupPresentation, ball, boundary, cli
from l1comb import kernel as kernel_module
from l1comb.cli import main
from l1comb.espace import PropernessError
from l1comb.groups import OutOfBallError

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


@pytest.mark.parametrize("flag, text, kind", [
    ("tree", F2, "tree_geodesic"),
    ("shortlex", F2, "shortlex"),
    ("shortlex-anti", F2, "shortlex_antisymmetrized"),
    ("auto", F2, "tree_geodesic"),
    ("auto", SURFACE, "shortlex_antisymmetrized"),
], ids=["tree", "shortlex", "shortlex-anti", "auto-free", "auto-surface"])
def test_bicombing_flag_names_the_kind(tmp_path, flag, text, kind):
    pres = tmp_path / "pres.txt"
    pres.write_text(text)
    out = tmp_path / "out"
    assert main(["bicombing-stats", "--presentation", str(pres), "--radius", "1",
                 "--bicombing", flag, "--out", str(out)]) == 0
    assert f"# bicombing: {kind}" in _body(out / "bicombing.csv")


# each command's options: every one acts on that command's run or its report
COMMON_OPTIONS = {"--presentation", "--radius", "--seed", "--out", "--cap"}
OPTIONS = {
    "ball": COMMON_OPTIONS,
    "bicombing-stats": COMMON_OPTIONS | {"--bicombing"},
    "norms": COMMON_OPTIONS | {"--bicombing", "--kernel-radius"},
    "opnorm": COMMON_OPTIONS | {"--bicombing"},
    "verify": COMMON_OPTIONS | {"--bicombing", "--sabotage-diagonal"},
    "action": COMMON_OPTIONS | {"--action", "--quasitree"},
}


def test_each_command_takes_only_the_options_it_reads():
    (commands,) = cli._build_parser()._subparsers._group_actions
    assert {name: {opt for action in p._actions for opt in action.option_strings}
            - {"-h", "--help"} for name, p in commands.choices.items()} == OPTIONS


@pytest.mark.parametrize("command, flag", [
    *((command, ["--tol", "1"])
      for command in ("verify", "norms", "opnorm", "ball", "bicombing-stats", "action")),
    ("ball", ["--bicombing", "tree"]),
    ("action", ["--bicombing", "tree"]),
    *((command, ["--kernel-radius", "1"])
      for command in ("verify", "opnorm", "ball", "bicombing-stats", "action")),
], ids=lambda v: v if isinstance(v, str) else v[0][2:])
def test_a_flag_the_command_never_reads_is_rejected(f2_file, tmp_path, capsys,
                                                    command, flag):
    # main returns argparse's usage-error code, so in-process callers get 2
    out = tmp_path / "out"
    assert main([command, "--presentation", str(f2_file), "--radius", "2",
                 "--out", str(out), *flag]) == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify"])
def test_tree_bicombing_needs_a_free_presentation(surface_file, tmp_path, capsys,
                                                   monkeypatch, command):
    def no_ball(*args, **kwargs):
        raise AssertionError("the ball was built")

    monkeypatch.setattr(cli, "ball", no_ball)
    out = tmp_path / "out"
    assert main([command, "--presentation", str(surface_file), "--radius", "2",
                 "--bicombing", "tree", "--out", str(out)]) == 2
    assert "free presentation" in capsys.readouterr().err
    assert not out.exists()


def _count_norm_rows(monkeypatch):
    """Count the cocycle norm rows made ([made]) and the most alive at once
    ([peak]) from here to the end of the test."""
    from l1comb import espace

    made, live, peak = [0], [0], [0]

    class CountedRow(espace.NormRow):
        def __new__(cls, *args, **kwargs):
            made[0] += 1
            live[0] += 1
            peak[0] = max(peak[0], live[0])
            return super().__new__(cls, *args, **kwargs)

        def __del__(self):
            live[0] -= 1

    monkeypatch.setattr(espace, "NormRow", CountedRow)
    return made, peak


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

    def test_opnorm_reads_each_translate_block_once(self, f2xf2, tmp_path, monkeypatch):
        # M and the op-norm rows reduce one kept set of pairs per (s, radius),
        # so the split (1, 1) reads the translate block of each s != e once
        calls = []
        read = kernel_module.DisplacementKernel.translate_rows

        def counted(kernel, s, indices):
            calls.append(s)
            return read(kernel, s, indices)

        monkeypatch.setattr(kernel_module.DisplacementKernel, "translate_rows", counted)
        pres = tmp_path / "prod.txt"
        pres.write_text(PRODUCT)
        assert main(["opnorm", "--presentation", str(pres), "--radius", "2",
                     "--out", str(tmp_path / "out")]) == 0
        assert calls == ball(f2xf2, 1).elements[1:]

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

    def test_properness_failure_midstream_leaves_no_report(self, f2_file, tmp_path,
                                                            capsys, monkeypatch):
        # rows are written as they are made, so the failing last row comes
        # after the header and 159 written rows; the run still leaves no report
        build = cli.kernel_from_bicombing

        def collapsed(spec):
            kernel = build(spec)
            assert spec.ball.elements[160] == "BBBB"
            return serve_rows(kernel, {(0, 160): 0})  # 2K(e, BBBB) = 0 < 2d

        monkeypatch.setattr(cli, "kernel_from_bicombing", collapsed)
        out = tmp_path / "out"
        assert main(["norms", "--presentation", str(f2_file), "--radius", "4",
                     "--out", str(out)]) == 1
        assert "||b(BBBB)||_E" in capsys.readouterr().err
        assert not (out / "norms.csv").exists()
        assert not (out / "kernel.csv").exists()

    def test_norms_holds_no_list_of_rows(self, f2_file, tmp_path, monkeypatch):
        # each cocycle norm row is written and dropped before the next one is
        # made, as in verify's properness pass
        made, peak = _count_norm_rows(monkeypatch)
        assert main(["norms", "--presentation", str(f2_file), "--radius", "4",
                     "--out", str(tmp_path / "out")]) == 0
        assert made[0] == 160  # every s != e of the radius-4 ball
        assert peak[0] <= 2, peak[0]

    @pytest.mark.parametrize("text, radius, kernel_radius", [(F2, 6, 4), (SURFACE, 4, 3)],
                             ids=["f2", "surface"])
    def test_kernel_radius_dumps_the_smaller_kernel(self, tmp_path, text, radius,
                                                    kernel_radius):
        pres = tmp_path / "pres.txt"
        pres.write_text(text)
        small, large = tmp_path / "small", tmp_path / "large"
        assert main(["norms", "--presentation", str(pres), "--radius", str(kernel_radius),
                     "--out", str(small)]) == 0
        assert main(["norms", "--presentation", str(pres), "--radius", str(radius),
                     "--kernel-radius", str(kernel_radius), "--out", str(large)]) == 0
        assert (large / "kernel.csv").read_bytes() == (small / "kernel.csv").read_bytes()
        # M and the norm rows still cover the full radius
        presentation = cli.parse_presentation(text)
        body = _body(large / "norms.csv")
        start = body.index("word,d,norm_f,norm_l1,norm_E,lower_bound")
        assert len(body) - start - 1 == len(ball(presentation, radius)) - 1
        assert f"# radius: {radius}" in body

    @pytest.mark.parametrize("kernel_radius", ["4", "-1"])
    def test_kernel_radius_outside_the_radius_is_input_error(
            self, f2_file, tmp_path, capsys, monkeypatch, kernel_radius):
        def no_ball(*args, **kwargs):
            raise AssertionError("the ball was built")

        monkeypatch.setattr(cli, "ball", no_ball)
        out = tmp_path / "out"
        assert main(["norms", "--presentation", str(f2_file), "--radius", "3",
                     "--kernel-radius", kernel_radius, "--out", str(out)]) == 2
        assert "--kernel-radius" in capsys.readouterr().err
        assert not out.exists()

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
        # the one line left out above is still an ISO-8601 UTC instant
        for out in (out1, out2):
            stamps = [line for line in (out / "norms.csv").read_text().splitlines()
                      if line.startswith("# timestamp: ")]
            assert len(stamps) == 1
            assert re.fullmatch(r"# timestamp: \d{4}-\d\d-\d\dT\d\d:\d\d:\d\d"
                                r"(\.\d+)?(\+00:00|Z)", stamps[0]), stamps[0]


@pytest.mark.parametrize("command, scans",
                         [("verify", 0), ("action", 0), ("norms", 1), ("opnorm", 1)])
def test_only_commands_reporting_m_measure_it(tmp_path, monkeypatch, command, scans):
    # M is measured when first read, and only norms and opnorm report it
    pres = tmp_path / "prod.txt"
    pres.write_text(PRODUCT)
    act = tmp_path / "proj.txt"
    act.write_text(PROJECTION)
    extra = ["--action", str(act)] if command == "action" else []
    calls = []
    measure = kernel_module.empirical_displacement_constant

    def counted(*args):
        calls.append(args[1:])
        return measure(*args)

    monkeypatch.setattr(kernel_module, "empirical_displacement_constant", counted)
    assert main([command, "--presentation", str(pres), "--radius", "2", *extra,
                 "--out", str(tmp_path / "out")]) == 0
    assert calls == [(1, 1)] * scans


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

    def test_one_bucket_dehn_passes(self, tmp_path):
        # aabbccdd has a nonzero exponent sum, so every dehn lookup scans
        # one shared bucket; at r >= 4 that scan gets slow (quadratic)
        path = tmp_path / "one_bucket.txt"
        path.write_text("generators: a b c d\nrelators: aabbccdd\nmode: dehn\n")
        out = tmp_path / "out"
        assert main(["verify", "--presentation", str(path), "--radius", "2",
                     "--out", str(out)]) == 0
        body = _body(out / "verify.csv")
        rows = list(csv.reader(body[body.index("check,status,witness") + 1:]))
        assert len(rows) == 15
        assert all(status == "pass" for _, status, _ in rows)

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
        body = _body(out / "verify.csv")
        rows = body[body.index("check,status,witness") + 1:]
        assert rows == [
            "ball_inverse_closure,pass,",
            "ball_adjacency_involutive,pass,",
            "boundary_identity,pass,",
            "equivariance,pass,",
            "combing_lower_bound,pass,",
            'kernel_diagonal_zero,FAIL,"K(5,5) != 0"',
            "kernel_symmetry,pass,",
            "kernel_nonnegative,pass,",
            'kernel_cnd,FAIL,"2K(5, 5) is not its slot-embedding distance"',
            "kernel_cross_validation,pass,",
            "cocycle_identity,pass,",
            'norm_formula,FAIL,"Q(b(aa)) = 3/2 but ||q[e,aa]||_1 = 2"',
            "per_vector_bound,pass,",
            "properness_rows,pass,",
        ]
        assert all(len(row) == 3 for row in csv.reader(rows))

    def test_norm_formula_verdict_ignores_tol(self, f2_file, tmp_path, capsys):
        # verify takes no --tol, its verdicts being exact: the sabotaged
        # diagonal puts Q(b(s)) 1/2 below K(s, e)
        code = main(["verify", "--presentation", str(f2_file), "--radius", "3",
                     "--out", str(tmp_path / "out"), "--sabotage-diagonal", "4"])
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
        # 2K(484, 483) lies outside the cross-validation's pair ball (the 53
        # elements of radius 3 in the scan split (2, 3))
        build = cli.kernel_from_bicombing

        def corrupted(spec):
            kernel = build(spec)
            t = kernel.row(484)[483] + 1
            return serve_rows(kernel, {(484, 483): t, (483, 484): t})

        monkeypatch.setattr(cli, "kernel_from_bicombing", corrupted)
        code = main(["verify", "--presentation", str(f2_file), "--radius", "5",
                     "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL kernel_cnd [2K(483, 484)" in out
        assert out.count("FAIL") == 1

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data(), st.integers(-6, 6).filter(bool))
    def test_any_corrupted_pair_fails_exact_cnd(self, f2_file, tmp_path, capsys,
                                                data, t):
        # F2 at radius 3 has 53 elements
        j = data.draw(st.integers(1, 52))
        i = data.draw(st.integers(0, j - 1))
        build = cli.kernel_from_bicombing

        def corrupted(spec):
            kernel = build(spec)
            value = kernel.row(i)[j] + t
            return serve_rows(kernel, {(i, j): value, (j, i): value})

        capsys.readouterr()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "kernel_from_bicombing", corrupted)
            code = main(["verify", "--presentation", str(f2_file), "--radius", "3",
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert f"FAIL kernel_cnd [2K({i}, {j})" in capsys.readouterr().out

    @pytest.mark.parametrize("text, radius, n", [(F2, 3, 53), (SURFACE, 2, 65)],
                             ids=["f2-r3", "surface-r2"])
    @settings(max_examples=12, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data(), st.integers(-6, 6).filter(bool), st.booleans(), st.booleans())
    def test_any_served_mutation_fails_the_certificate(self, tmp_path, capsys, text, radius,
                                                       n, data, delta, flip, one_sided):
        # the certificate reads F and each served entry, so an entry changed
        # anywhere, on one side or on both, is not its slot-embedding distance
        j = data.draw(st.integers(1, n - 1))
        i = data.draw(st.integers(0, j - 1))
        pair = (j, i) if flip else (i, j)
        build = cli.kernel_from_bicombing

        def mutated(spec):
            kernel = build(spec)
            t = kernel.embedding.row(i, j, j + 1)[0] + delta
            return serve_rows(kernel, {pair: t} if one_sided else {(i, j): t, (j, i): t})

        path = tmp_path / "pres.txt"
        path.write_text(text)
        capsys.readouterr()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "kernel_from_bicombing", mutated)
            code = main(["verify", "--presentation", str(path), "--radius", str(radius),
                         "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 1
        first = pair if one_sided else (i, j)
        assert f"FAIL kernel_cnd [2K{first} is not its slot-embedding distance]" in out
        assert (f"FAIL kernel_symmetry [K{(i, j)} != K{(j, i)}]" in out) == one_sided

    @pytest.mark.parametrize("corruption", ["swap-col-rows", "repeat-column", "bump-norm",
                                            "zero-entry", "col-vals", "shrink-entry"])
    def test_malformed_f_fails_exact_cnd(self, f2_file, tmp_path, capsys, monkeypatch,
                                         corruption):
        # a copy of the built F, corrupted in its last row (radius 3, outside
        # the scan balls) or in the first column holding two rows, must fail
        # the structure certificate with a witness naming the row or column;
        # no read of 2K off it is sound, so every check that reads F fails
        # with that witness, and the checks that read no F still pass
        build = cli.kernel_from_bicombing
        expected = []

        def corrupted(spec):
            kernel = build(spec)
            F = copy.copy(kernel.embedding)
            i = len(F.norms) - 1
            # the last row's first entry f, in column c, and its place k in
            # the column-major copy
            p, c = F.ptr[i], F.cols[F.ptr[i]]
            f, k = F.vals[p], F.col_ptr[c + 1] - 1
            assert F.col_rows[k] == i and F.col_vals[k] == f and abs(f) == 2
            if corruption in ("zero-entry", "shrink-entry"):
                # changed alike in both copies, so F keeps its exact transpose
                F.vals, F.col_vals = F.vals[:], F.col_vals[:]
                F.vals[p] = F.col_vals[k] = 0 if corruption == "zero-entry" else f // 2
                expected.append(f"F row {i} has a zero entry in column {c}"
                                if corruption == "zero-entry" else
                                f"F row {i} has |F_{i}|_1 = {F.norms[i] - 1}, "
                                f"not norms[{i}] = {F.norms[i]}")
            elif corruption == "col-vals":
                F.col_vals = F.col_vals[:]
                F.col_vals[k] = -f
                expected.append(f"F column {c} lists row {i} with entry {-f}, not {f}")
            elif corruption == "swap-col-rows":
                F.col_rows = F.col_rows[:]
                c = next(c for c in range(len(F.col_ptr) - 1)
                         if F.col_ptr[c + 1] - F.col_ptr[c] >= 2)
                k = F.col_ptr[c]
                F.col_rows[k], F.col_rows[k + 1] = F.col_rows[k + 1], F.col_rows[k]
                expected.append(f"F column {c} does not list row {F.col_rows[k + 1]} "
                                "in row order")
            elif corruption == "repeat-column":
                F.cols = F.cols[:]
                F.cols[F.ptr[i] + 1] = F.cols[F.ptr[i]]
                expected.append(f"F row {i} repeats a column")
            else:
                F.norms = F.norms[:]
                F.norms[i] += 1
                expected.append(f"F row {i} has |F_{i}|_1 = {F.norms[i] - 1}, "
                                f"not norms[{i}] = {F.norms[i]}")
            assert kernel.embedding.defect() is None and F.defect() == expected[0]
            # past defect(), any read of F's entries fails the test
            F.row = F.upper_rows = F.form = lambda *args: pytest.fail("F was read")
            kernel.embedding = F
            return kernel

        monkeypatch.setattr(cli, "kernel_from_bicombing", corrupted)
        code = main(["verify", "--presentation", str(f2_file), "--radius", "3",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        out = capsys.readouterr().out
        reads_f = ("kernel_diagonal_zero", "kernel_symmetry", "kernel_nonnegative",
                   "kernel_cnd", "kernel_cross_validation", "norm_formula",
                   "per_vector_bound", "properness_rows")
        failed = re.findall(r"^FAIL (\w+)", out, re.M)
        assert failed == list(reads_f)
        for check in reads_f:
            assert f"FAIL {check} [{expected[0]}]" in out

    def test_each_element_chain_is_built_once(self, surface, surface_file,
                                              tmp_path, monkeypatch):
        # one pass over the ball builds q[e, s] once per s != e; the pass over
        # the s ball S builds q[e, x] once per x, q[s, sx] per ordered pair
        # for equivariance and q[s, x], q[x, s] per pair x after s for
        # antisymmetry
        calls = []
        chain = cli.combing_chain

        def counted(*args):
            calls.append(args)
            return chain(*args)

        monkeypatch.setattr(cli, "combing_chain", counted)
        assert main(["verify", "--presentation", str(surface_file), "--radius", "2",
                     "--out", str(tmp_path / "out")]) == 0
        n = len(ball(surface, 2))
        k = len(ball(surface, 1))
        assert (n, k) == (65, 9)
        assert len(calls) == (n - 1) + k + k * k + k * (k - 1)

    def test_equivariance_fails_at_a_pair_seed_0_never_drew(
            self, surface_file, tmp_path, capsys, monkeypatch):
        # only the translate of q[e, cd] by ab is doubled; the 50 pairs that
        # seed 0 once drew from the 65-element s ball (radius 2) miss (ab, cd),
        # so a sampled check passed this fault
        translate = cli.translate_chain

        def faulted(s, chain, b):
            out = translate(s, chain, b)
            return out.scale(2) if s == "ab" and boundary(chain, b) == {"cd": 1, "": -1} else out

        monkeypatch.setattr(cli, "translate_chain", faulted)
        code = main(["verify", "--presentation", str(surface_file), "--radius", "4",
                     "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL equivariance [translate mismatch for s=ab z=cd] (4225 pairs)" in out
        assert out.count("FAIL") == 1

    def test_each_line_counts_the_items_its_check_decided(self, surface_file, tmp_path,
                                                          capsys, monkeypatch):
        calls = dict.fromkeys(("translate_chain", "check_cocycle_identity",
                               "per_vector_bound_check"), 0)

        def counted(name):
            fn = getattr(cli, name)

            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        for name in calls:
            monkeypatch.setattr(cli, name, counted(name))
        outs = []
        for seed in ("0", "1"):
            out = tmp_path / f"out{seed}"
            assert main(["verify", "--presentation", str(surface_file), "--radius", "2",
                         "--seed", seed, "--out", str(out)]) == 0
            outs.append((capsys.readouterr().out.splitlines()[:-1], _body(out / "verify.csv")))
        # nothing is drawn, so --seed changes only the header's echo of it
        lines, body = outs[0]
        assert lines == outs[1][0]
        assert [row for row in body if not row.startswith("# seed:")] == [
            row for row in outs[1][1] if not row.startswith("# seed:")]
        # two runs over the s ball's k = 9 elements; the ball has n = 65
        # elements and the pair ball 9
        assert calls == {"translate_chain": 2 * 81, "check_cocycle_identity": 2 * 81,
                         "per_vector_bound_check": 2 * 72}
        assert lines == [
            "PASS ball_inverse_closure (65 elements)",
            "PASS ball_adjacency_involutive (65 elements)",
            "PASS boundary_identity (64 chains)",
            "PASS equivariance (81 pairs)",
            "PASS antisymmetry (36 pairs)",
            "PASS combing_lower_bound (64 chains)",
            "PASS kernel_diagonal_zero (65 entries)",
            "PASS kernel_symmetry (2080 pairs)",
            "PASS kernel_nonnegative (4225 entries)",
            "PASS kernel_cnd (65 points)",
            "PASS kernel_cross_validation (36 pairs)",
            "PASS cocycle_identity (81 pairs)",
            "PASS norm_formula (64 elements)",
            "PASS per_vector_bound (72 vectors)",
            "PASS properness_rows (64 rows)",
        ]

    def test_a_bucket_key_that_splits_an_element_fails(self, surface_file, tmp_path,
                                                       capsys, monkeypatch):
        # a key that also reads the last letter is no element invariant: one
        # element lands in two buckets, so the ball holds it twice
        monkeypatch.setattr(CayleyBall, "_bucket_key", lambda self, word:
                            self.presentation.exponent_vector(word) + (word[-1:],))
        code = main(["verify", "--presentation", str(surface_file), "--radius", "4",
                     "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 1
        for check in ("ball_adjacency_involutive", "boundary_identity", "cocycle_identity"):
            assert f"FAIL {check} [" in out

    def test_norm_formula_compares_with_chain_arithmetic(self, f2_file, tmp_path,
                                                         capsys, monkeypatch):
        build = cli.kernel_from_bicombing

        def raised(spec):
            kernel = build(spec)
            t = kernel.row(700)[0] + 2
            return serve_rows(kernel, {(700, 0): t, (0, 700): t})

        monkeypatch.setattr(cli, "kernel_from_bicombing", raised)
        code = main(["verify", "--presentation", str(f2_file), "--radius", "6",
                     "--out", str(tmp_path / "out")])
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

    def test_swapped_chains_fail_only_cross_validation(self, f2_file, tmp_path,
                                                        capsys, monkeypatch):
        # a kernel built from the walked rows of b and B swapped (ball
        # indices 3 and 4) is still a consistent slot embedding with the
        # right norms, so only the comparison with chain arithmetic can see it
        build = cli.kernel_from_bicombing
        walk = kernel_module.walked_slots
        swap = {3: 4, 4: 3}

        def swapped(spec):
            assert spec.ball.elements[3:5] == ["b", "B"]
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(kernel_module, "walked_slots",
                           lambda b, i, anti: walk(b, swap.get(i, i), anti))
                return build(spec)

        monkeypatch.setattr(cli, "kernel_from_bicombing", swapped)
        code = main(["verify", "--presentation", str(f2_file), "--radius", "3",
                     "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 1
        assert out.count("PASS") == 13
        assert out.count("FAIL") == 1
        assert ("FAIL kernel_cross_validation "
                "[cross-validation discrepancy 2 is not 0]") in out

    def test_properness_check_holds_no_list_of_rows(self, f2_file, tmp_path,
                                                    monkeypatch):
        # every cocycle norm row is checked and dropped before the next one
        # is made, so at most one is alive at a time
        made, peak = _count_norm_rows(monkeypatch)
        assert main(["verify", "--presentation", str(f2_file), "--radius", "4",
                     "--out", str(tmp_path / "out")]) == 0
        assert made[0] == 160  # every s != e of the radius-4 ball
        assert peak[0] <= 2, peak[0]

    @pytest.mark.parametrize("radius, pair_radius", [(3, 2), (4, 2), (5, 3)])
    def test_cross_validation_covers_the_scan_split_pair_ball(
            self, f2_file, tmp_path, monkeypatch, radius, pair_radius):
        seen = []
        cross_validate = cli.kernel_cross_validate

        def recorded(kernel, radius=None):
            seen.append((radius, kernel.scan_split[1]))
            return cross_validate(kernel, radius=radius)

        monkeypatch.setattr(cli, "kernel_cross_validate", recorded)
        assert main(["verify", "--presentation", str(f2_file), "--radius", str(radius),
                     "--out", str(tmp_path / "out")]) == 0
        assert seen == [(pair_radius, pair_radius)]

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
        # the s-ball checks would see only the identity
        out = tmp_path / "out"
        assert main(["verify", "--presentation", str(surface_file),
                     "--radius", str(radius), "--out", str(out)]) == 2
        assert "radius" in capsys.readouterr().err
        assert not (out / "verify.csv").exists()


# one injected fault per verify check that no test above fails; each
# patches cli so that the named check sees a failing witness


def _drop_inverse_of_BBB(mp):
    build = cli.ball

    def dropped(*args, **kwargs):
        b = build(*args, **kwargs)
        del b.index["bbb"]
        return b

    mp.setattr(cli, "ball", dropped)
    # the only other reader of the index
    mp.setattr(cli, "per_vector_bound_check",
               lambda *args: BoundCheck(Fraction(0), Fraction(0), True, Fraction(0)))


def _misroute_edge_a_b(mp):
    build = cli.ball

    def misrouted(*args, **kwargs):
        b = build(*args, **kwargs)
        # row 1 is the element a; letters 2 and 3 of "aAbB" are b and B
        b.adjacency[1 * 4 + 2] = b.adjacency[1 * 4 + 3]
        return b

    mp.setattr(cli, "ball", misrouted)


def _empty_boundary_of_ab(mp):
    boundary = cli.boundary

    def emptied(chain, b):
        out = boundary(chain, b)
        return {} if out == {"ab": 1, "": -1} else out

    mp.setattr(cli, "boundary", emptied)


def _empty_chain_of_ab(mp):
    chain = cli.combing_chain
    mp.setattr(cli, "combing_chain", lambda spec, x, y:
               Chain1() if (x, y) == ("", "ab") else chain(spec, x, y))


def _doubled_translates(mp):
    translate = cli.translate_chain
    mp.setattr(cli, "translate_chain", lambda *args: translate(*args).scale(2))


def _doubled_forward_chains(mp):
    chain = cli.combing_chain
    mp.setattr(cli, "combing_chain", lambda spec, x, y:
               chain(spec, x, y).scale(2) if x and x < y else chain(spec, x, y))


def _residual_at_a_b(mp):
    check = cli.check_cocycle_identity
    mp.setattr(cli, "check_cocycle_identity", lambda s, t, b:
               1 if (s, t) == ("a", "b") else check(s, t, b))


def _every_vector_over_bound(mp):
    mp.setattr(cli, "per_vector_bound_check",
               lambda *args: BoundCheck(Fraction(1), Fraction(0), False, Fraction(0)))


FAULTS = [
    (_drop_inverse_of_BBB, F2, "ball_inverse_closure", "inverse of BBB missing"),
    (_misroute_edge_a_b, F2, "ball_adjacency_involutive", "edge a -b-> aB"),
    (_empty_boundary_of_ab, F2, "boundary_identity", "boundary of q[e,ab] is {}"),
    (_empty_chain_of_ab, F2, "combing_lower_bound", "||q[e,ab]||_1 < d for ab"),
    (_doubled_translates, F2, "equivariance", "translate mismatch for s=e z=a"),
    (_doubled_forward_chains, SURFACE, "antisymmetry", "q[a,A] + q[A,a] != 0"),
    (_residual_at_a_b, F2, "cocycle_identity", "residual 1 at (a, b)"),
    (_every_vector_over_bound, F2, "per_vector_bound",
     "lhs 1 > rhs 0 for s=e supp=['e', 'a']"),
]


@pytest.mark.parametrize("fault, text, check, witness", FAULTS,
                         ids=[check for _, _, check, _ in FAULTS])
def test_each_check_fails_with_its_witness(tmp_path, capsys, monkeypatch,
                                           fault, text, check, witness):
    pres = tmp_path / "pres.txt"
    pres.write_text(text)
    fault(monkeypatch)
    out = tmp_path / "out"
    radius = "3" if text == F2 else "2"
    assert main(["verify", "--presentation", str(pres), "--radius", radius,
                 "--out", str(out)]) == 1
    assert f"FAIL {check} [{witness}]" in capsys.readouterr().out
    body = _body(out / "verify.csv")
    rows = list(csv.reader(body[body.index("check,status,witness") + 1:]))
    assert all(len(row) == 3 for row in rows)
    assert [check, "FAIL", witness] in rows


class TestExitCodes:
    def _run_raising(self, exc, f2_file, tmp_path, monkeypatch):
        def handler(config):
            raise exc

        monkeypatch.setitem(cli.COMMANDS, "ball", (handler, 0))
        return main(["ball", "--presentation", str(f2_file),
                     "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("exc", [
        PropernessError("row s has norm below its bound"),
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


    @pytest.mark.parametrize("command, radius", [
        ("ball", -1), ("bicombing-stats", 0), ("norms", 0), ("opnorm", 0),
        ("action", 0), ("verify", 1),
    ])
    def test_radius_below_command_minimum_is_input_error(self, tmp_path, capsys,
                                                         monkeypatch, command, radius):
        # below these radii a run would report an empty scan as a result
        pres = tmp_path / "prod.txt"
        pres.write_text(PRODUCT)
        act = tmp_path / "proj.txt"
        act.write_text(PROJECTION)

        def no_ball(*args, **kwargs):
            raise AssertionError("the ball was built")

        monkeypatch.setattr(cli, "ball", no_ball)
        out = tmp_path / "out"
        argv = [command, "--presentation", str(pres), "--radius", str(radius),
                "--out", str(out)]
        assert main(argv + (["--action", str(act)] if command == "action" else [])) == 2
        assert "--radius" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("argv, code", [
    (["ball", "--radius", "1"], 0),
    (["verify", "--radius", "1"], 2),
    (["verify", "--radius", "2", "--sabotage-diagonal", "0"], 1),
])
def test_module_entry_point_exits_with_main_code(f2_file, tmp_path, argv, code):
    # python -m l1comb.cli runs console_main, which hands main's code to sys.exit
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-m", "l1comb.cli", *argv, "--presentation", str(f2_file),
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True,
    )
    assert result.returncode == code, result.stderr


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
        # the witness names the pair ('e', 'a') and stays one quoted field
        body = _body(out / "quasitree.csv")
        rows = list(csv.reader(body[body.index("check,status,witness"):]))
        assert all(len(row) == 3 for row in rows)
        assert rows[1][2] == "upper bound violated on ('e', 'a'): K=1.5 > d=1.0"

    def test_tol_governs_quasitree_cnd(self, f2_file, tmp_path, capsys):
        # K = d: the sandwich holds, and the centered min eigenvalue is -1.7e-4,
        # far below the tolerance n eps ||K/2||_F the check derives itself
        path = tmp_path / "near.csv"
        path.write_text("delta: 0\nx,y,d,K\na,b,1,1\nb,c,1,1\na,c,4.001,4.001\n")
        out = tmp_path / "out"
        argv = ["action", "--presentation", str(f2_file), "--quasitree", str(path),
                "--out", str(out)]
        assert main(argv) == 1
        assert "conditional negative definiteness fails" in capsys.readouterr().out
        header = dict(re.findall(r"^# (\w+): (.*)$", (out / "quasitree.csv").read_text(),
                                 re.M))
        frobenius = (2 * (1 + 1 + 4.001 ** 2)) ** 0.5  # ||K||_F
        assert float(header["tolerance"]) == pytest.approx(
            3 * sys.float_info.epsilon * frobenius / 2, rel=1e-12)
        assert -1.8e-4 < float(header["min_eigenvalue"]) < -1.6e-4
        # and no flag could pass it
        (out / "quasitree.csv").unlink()
        assert main(argv + ["--tol", "1e-3"]) == 2
        assert not (out / "quasitree.csv").exists()

    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e160, 1e200, 1e307])
    def test_quasitree_cnd_verdict_does_not_depend_on_scale(self, f2_file, tmp_path,
                                                              capsys, scale):
        # K = d on the graph K_{2,3} is not of negative type at any scale;
        # ||K/2||_F used to overflow past ~1e154, the tolerance read inf and
        # the eigenvalue test could no longer fail
        left, right = ("a1", "a2"), ("b1", "b2", "b3")
        labels = left + right
        rows = [f"{x},{y},{t!r},{t!r}" for i, x in enumerate(labels) for y in labels[i + 1:]
                for t in [(1 if (x in left) != (y in left) else 2) * scale]]
        path = tmp_path / "k23.csv"
        path.write_text("delta: 0\nx,y,d,K\n" + "\n".join(rows) + "\n")
        out = tmp_path / "out"
        assert main(["action", "--presentation", str(f2_file), "--quasitree", str(path),
                     "--out", str(out)]) == 1
        assert "conditional negative definiteness fails" in capsys.readouterr().out
        header = dict(re.findall(r"^# (\w+): (.*)$", (out / "quasitree.csv").read_text(),
                                 re.M))
        assert 0 < float(header["tolerance"]) < float("inf")

    def test_quasitree_tree_metric_passes_far_above_overflow(self, f2_file, tmp_path):
        path = tmp_path / "tree.csv"
        path.write_text("delta: 0\nx,y,d,K\ne,a,1e200,1e200\ne,b,1e200,1e200\n"
                        "a,b,2e200,2e200\n")
        assert main(["action", "--presentation", str(f2_file), "--quasitree", str(path),
                     "--out", str(tmp_path / "out")]) == 0

    def test_tol_leaves_the_sandwich_alone(self, f2_file, tmp_path, capsys):
        # the sandwich is decided exactly, with no slack: K = d + 1e-6 fails
        path = tmp_path / "above.csv"
        path.write_text("delta: 0\nx,y,d,K\na,b,1,1.000001\n")
        assert main(["action", "--presentation", str(f2_file), "--quasitree", str(path),
                     "--out", str(tmp_path / "out")]) == 1
        assert "upper bound violated" in capsys.readouterr().out

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf"])
    def test_tol_not_finite_nonnegative_is_input_error(self, f2_file, tmp_path,
                                                       capsys, tol):
        # on a kernel that passes, not a quasi-tree fail with exit 1: action has
        # no --tol, so any value of it is a usage error that writes nothing
        path = tmp_path / "good.csv"
        path.write_text("delta: 0\nx,y,d,K\ne,a,1,1\n")
        out = tmp_path / "out"
        assert main(["action", "--presentation", str(f2_file), "--quasitree", str(path),
                     "--out", str(out), f"--tol={tol}"]) == 2
        assert f"unrecognized arguments: --tol={tol}" in capsys.readouterr().err
        assert not out.exists()

    def test_sandwich_is_decided_in_rationals(self, f2_file, tmp_path):
        # in floats d - delta = 1000000.2000000001 > K; in decimals it is K
        path = tmp_path / "exact.csv"
        path.write_text("delta: 0.1\nx,y,d,K\na,b,1000000.3,1000000.2\n")
        out = tmp_path / "out"
        assert main(["action", "--presentation", str(f2_file), "--quasitree", str(path),
                     "--out", str(out)]) == 0
        assert "# delta: 0.1\n" in (out / "quasitree.csv").read_text()

    def test_quasitree_self_pair_is_input_error(self, f2_file, tmp_path, capsys):
        path = tmp_path / "self.csv"
        path.write_text("delta: 0\nx,y,d,K\na,b,1,1\na,a,0,5\n")
        assert main(["action", "--presentation", str(f2_file), "--quasitree", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        assert "with itself" in capsys.readouterr().err

    def test_radius_zero_is_input_error(self, tmp_path, capsys, monkeypatch):
        # the radius-0 ball holds only the identity: no orbit to give a verdict
        pres = tmp_path / "prod.txt"
        pres.write_text(PRODUCT)
        act = tmp_path / "proj.txt"
        act.write_text(PROJECTION)
        out = tmp_path / "out"

        def no_ball(*args, **kwargs):
            raise AssertionError("the ball was built")

        monkeypatch.setattr(cli, "ball", no_ball)
        assert main(["action", "--presentation", str(pres), "--action", str(act),
                     "--radius", "0", "--out", str(out)]) == 2
        assert "--radius" in capsys.readouterr().err
        assert not (out / "action.csv").exists()

    def test_quasitree_needs_no_ball(self, f2_file, tmp_path):
        path = tmp_path / "good.csv"
        path.write_text("delta: 0\nx,y,d,K\ne,a,1,1\n")
        assert main(["action", "--presentation", str(f2_file), "--quasitree", str(path),
                     "--radius", "0", "--out", str(tmp_path / "out")]) == 0

    def test_action_without_inputs_is_input_error(self, f2_file, tmp_path):
        assert main(["action", "--presentation", str(f2_file),
                     "--out", str(tmp_path / "out")]) == 2

    def test_action_with_quasitree_is_input_error(self, f2_file, tmp_path, capsys):
        # next to --quasitree an --action file would go unread, valid or not
        act = tmp_path / "bad.txt"
        act.write_text("target_rank: 1\na -> a\nb -> zz\n")
        path = tmp_path / "good.csv"
        path.write_text("delta: 0\nx,y,d,K\ne,a,1,1\n")
        out = tmp_path / "out"
        assert main(["action", "--presentation", str(f2_file), "--action", str(act),
                     "--quasitree", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--action" in err and "--quasitree" in err
        assert not out.exists()


# run-dependent header lines, left out of every body comparison
UNSTABLE_HEADER = ("# timestamp:", "# presentation:", "# seed:")

# sha256 of each CSV body (header lines other than UNSTABLE_HEADER included),
# recorded before the word-problem engine became one rewriter; verify.csv's
# before verify's per-element checks became one pass over the ball; opnorm.csv's
# before the op-norm probe's pair radius was guarded by CayleyBall.scan_size
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
    "verify.csv":
        "bd0f3f8b61859829d00561587516a4df0f729b9a51b0c49f3bc1097bd7829e00",
    "opnorm.csv":
        "f1dd5712d521131952dc65f9bd2afc0abae66efe6833cacf4950b4bbf146a016",
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
        ["verify", "--presentation", str(surface_file), "--radius", "2"],
        ["opnorm", "--presentation", str(prod), "--radius", "3"],
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
    # at these radii one int8 n x n matrix (n^2 bytes: 19 MB for verify and
    # 2.1 MB for norms) would outweigh everything else the command allocates
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
    # the tracer patches kernel.empirical_displacement_constant and unpacks its
    # (kernel, s_radius, pair_radius): only norms and opnorm read M, each
    # scanning s over the 1-ball of the split (1, 1), one translate per s != e
    assert report["counters"]["kernel.displacement_translates"] == (
        (len(ball(surface, 1)) - 1) + (len(ball(product, 1)) - 1))
    assert report["counters"]["actions.orbit_pairs"] > 0
    # F2 verify r=3 cross-validates the pairs of its radius-2 ball, C(17, 2)
    assert report["counters"]["kernel.crossval_pairs"] == 136
