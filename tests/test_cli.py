import csv
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from conftest import SWAP_RULES, serve_rows
from hypothesis import HealthCheck, given, settings, strategies as st

from l1comb import GroupPresentation, ball, cli
from l1comb import kernel as kernel_module
from l1comb.cli import main
from l1comb.espace import NonCndFormError, PropernessError
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
        # --tol governs only the quasi-tree negative-type check: the sabotaged
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
        # 2K(484, 483) lies outside the cross-validation's pair ball (the 53
        # elements of radius 3 in the scan split (2, 3)), and verify's
        # verdicts ignore --tol
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

    def test_each_element_chain_is_built_once(self, surface, surface_file,
                                              tmp_path, monkeypatch):
        # one pass over the ball builds q[e, s] once per s != e; equivariance
        # and antisymmetry add two chains per draw, over 50 draws each
        calls = []
        chain = cli.combing_chain

        def counted(*args):
            calls.append(args)
            return chain(*args)

        monkeypatch.setattr(cli, "combing_chain", counted)
        assert main(["verify", "--presentation", str(surface_file), "--radius", "2",
                     "--out", str(tmp_path / "out")]) == 0
        n = len(ball(surface, 2))
        assert n == 65
        assert len(calls) <= (n - 1) + 200

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

    def test_swapped_chains_fail_only_cross_validation(self, f2_file, tmp_path,
                                                        capsys, monkeypatch):
        # a kernel built from the chains of b and B swapped (ball indices 3
        # and 4) is still a consistent slot embedding with the right norms,
        # so only the comparison with chain arithmetic can see it
        build = cli.kernel_from_bicombing
        chain = kernel_module.combing_chain
        swap = {"b": "B", "B": "b"}

        def swapped(spec):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(kernel_module, "combing_chain",
                           lambda spec, x, y: chain(spec, x, swap.get(y, y)))
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

    @pytest.mark.parametrize("radius, pair_radius", [(3, 2), (4, 2), (5, 3)])
    def test_cross_validation_covers_the_scan_split_pair_ball(
            self, f2_file, tmp_path, monkeypatch, radius, pair_radius):
        seen = []
        cross_validate = cli.kernel_cross_validate

        def recorded(spec, radius=None, kernel=None):
            seen.append((radius, kernel.scan_split[1]))
            return cross_validate(spec, radius=radius, kernel=kernel)

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

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf"])
    def test_tol_not_finite_nonnegative_is_input_error(self, f2_file, tmp_path,
                                                       capsys, tol):
        # on a correct kernel, not a FAIL kernel_cnd with exit 1
        out = tmp_path / "out"
        assert main(["verify", "--presentation", str(f2_file), "--radius", "3",
                     "--out", str(out), f"--tol={tol}"]) == 2
        assert "--tol" in capsys.readouterr().err
        assert not (out / "verify.csv").exists()

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

        monkeypatch.setitem(cli.COMMANDS, "ball", (handler, 0))
        return main(["ball", "--presentation", str(f2_file),
                     "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("exc", [
        PropernessError("row s has norm below its bound"),
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

    def test_tol_governs_quasitree_cnd(self, f2_file, tmp_path):
        # K = d: the sandwich holds, and the centered min eigenvalue is -1.7e-4
        path = tmp_path / "near.csv"
        path.write_text("delta: 0\nx,y,d,K\na,b,1,1\nb,c,1,1\na,c,4.001,4.001\n")
        argv = ["action", "--presentation", str(f2_file), "--quasitree", str(path),
                "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert main(argv + ["--tol", "1e-3"]) == 0
        header = (tmp_path / "out" / "quasitree.csv").read_text()
        assert "# tolerance: 0.001\n" in header

    def test_tol_leaves_the_sandwich_alone(self, f2_file, tmp_path, capsys):
        # the sandwich keeps its own 1e-12 slack: K = d + 1e-6 fails at any --tol
        path = tmp_path / "above.csv"
        path.write_text("delta: 0\nx,y,d,K\na,b,1,1.000001\n")
        assert main(["action", "--presentation", str(f2_file), "--quasitree", str(path),
                     "--out", str(tmp_path / "out"), "--tol", "1"]) == 1
        assert "upper bound violated" in capsys.readouterr().out

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
# before verify's per-element checks became one pass over the ball
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
