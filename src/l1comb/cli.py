"""Batch front-end: run pipelines from presentation files and emit
self-describing CSV reports with stable exit codes.

Exit codes: 0 all checks pass, 1 invariant violation, 2 input error,
3 resource cap exceeded, 4 internal error (any other exception; the traceback
goes to stderr).  Every CSV starts with ``# key: value`` comment
lines (seed, generating set, bicombing kind, tolerance); the timestamp line
is informational and excluded from determinism comparisons.  The tolerance
is 1e-09 except in ``quasitree.csv``, whose check derives its own.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction
from pathlib import Path

from .groups import (
    BallCapError,
    DEFAULT_BALL_CAP,
    GroupPresentation,
    PresentationError,
    ball,
    invert,
    parse_presentation,
)
from .bicombing import (
    TriplePolicy,
    antisymmetrize,
    boundary,
    combing_chain,
    empirical_area_constant,
    make_bicombing,
    quasi_geodesic_constants,
    translate_chain,
)
from .kernel import (
    DisplacementKernel,
    cnd_min_eigenvalue,  # not called here; perfbench/tracer.py wraps it
    kernel_cross_validate,
    kernel_dump,
    kernel_from_bicombing,
)
from .espace import (
    EVector,
    PropernessError,
    check_cocycle_identity,
    cocycle_norm_rows,
    norm_e,  # not called here; perfbench/tracer.py wraps cli.norm_e
    op_norm_lower_bound,
    per_vector_bound_check,
    properness_report,  # not called here; perfbench/tracer.py wraps cli.properness_report
    uniform_bound,
)
from .actions import (
    ActionError,
    orbit_growth_report,
    orbit_kernel,
    parse_action,
    parse_quasitree_csv,
    validate_quasitree_kernel,
)

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4

KIND_BY_FLAG = {
    "tree": "tree_geodesic",
    "shortlex": "shortlex",
    "shortlex-anti": "shortlex_antisymmetrized",
}

def _resolve_kind(flag: str, presentation: GroupPresentation) -> str:
    if flag != "auto":
        return KIND_BY_FLAG[flag]
    if presentation.reduction_mode == "free":
        return "tree_geodesic"
    return "shortlex_antisymmetrized"


def _fmt(value) -> str:
    """One CSV field, quoted RFC 4180 style when it holds a comma, a quote or
    a line break (a failing witness may)."""
    text = str(value)
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_csv(config: argparse.Namespace, filename: str, columns: list[str],
               rows, extra: dict | None = None) -> Path:
    config.out_dir.mkdir(parents=True, exist_ok=True)
    path = config.out_dir / filename
    pres = config.presentation
    header = {
        "command": config.command,
        "presentation": config.presentation_path,
        "generators": " ".join(pres.generators),
        "mode": pres.reduction_mode,
        "bicombing": config.bicombing_kind,
        "radius": config.radius,
        "seed": config.seed,
        # perfbench's digests and its opnorm invariant read this line, so
        # dropping it is a benchmark change
        "tolerance": 1e-09,
        "cap": config.cap,
        "scope": ("ball-relative" if not pres.has_geodesic_normal_forms
                  else "word-canonical"),
    }
    header.update(extra or {})
    with path.open("w") as fh:
        for key, value in header.items():
            fh.write(f"# {key}: {value}\n")
        fh.write(f"# timestamp: {time.strftime('%Y-%m-%dT%H:%M:%S+00:00', time.gmtime())}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return path


def _word(w: str) -> str:
    return w or "e"


def _write_norm_rows(config: argparse.Namespace, filename: str, rows, extra: dict) -> Path:
    """The cocycle norm rows of ``norms`` and ``action``, one CSV layout;
    ``rows`` may be a generator, each row written as it is made."""
    return _write_csv(
        config, filename, ["word", "d", "norm_f", "norm_l1", "norm_E", "lower_bound"],
        ((_word(r.word), r.distance, r.norm_f, r.norm_l1, r.norm_e, r.lower_bound)
         for r in rows),
        extra,
    )


# -- commands -----------------------------------------------------------------


def cmd_ball(config: argparse.Namespace) -> int:
    b = ball(config.presentation, config.radius, cap=config.cap)
    sizes = b.sphere_sizes()
    path = _write_csv(config, "ball.csv", ["sphere", "count"],
                      ((r, c) for r, c in enumerate(sizes)),
                      extra={"total": len(b)})
    print(f"ball radius {config.radius}: {len(b)} elements -> {path}")
    return EXIT_OK


def _stats_for_kind(spec, config: argparse.Namespace):
    policy = TriplePolicy(seed=config.seed)
    scan = empirical_area_constant(spec, radius=config.radius, policy=policy)
    qg = quasi_geodesic_constants(spec, radius=config.radius)
    return (
        spec.kind,
        scan.value,
        _word(scan.witness[0]), _word(scan.witness[1]), _word(scan.witness[2]),
        qg.lambda_emp, qg.c_emp,
        scan.triples_scanned,
        "exhaustive" if scan.exhaustive else "sampled",
        qg.pairs_scanned,
    )


def cmd_bicombing_stats(config: argparse.Namespace) -> int:
    pres = config.presentation
    # triple scans form q[x, y] for x, y in the scan ball, so the working ball
    # must reach the pairwise products
    ambient = config.radius if pres.has_geodesic_normal_forms else 2 * config.radius
    b = ball(pres, ambient, cap=config.cap)
    if config.bicombing_kind == "shortlex_antisymmetrized":
        raw = make_bicombing("shortlex", b)
        specs = [raw, antisymmetrize(raw)]
    else:
        specs = [make_bicombing(config.bicombing_kind, b)]
    rows = [_stats_for_kind(spec, config) for spec in specs]
    path = _write_csv(
        config, "bicombing.csv",
        ["kind", "M_emp", "witness_x", "witness_y", "witness_z",
         "lambda_emp", "c_emp", "triples", "scan", "pairs"],
        rows, extra={"ambient_radius": ambient},
    )
    for row in rows:
        print(f"{row[0]}: M_emp = {row[1]} witness = ({row[2]}, {row[3]}, {row[4]})")
    print(f"-> {path}")
    return EXIT_OK


def cmd_norms(config: argparse.Namespace) -> int:
    dump_radius = config.radius if config.kernel_radius is None else config.kernel_radius
    if not 0 <= dump_radius <= config.radius:
        # checked before any ball is built, so nothing is written
        raise PresentationError(f"--kernel-radius must lie in 0..{config.radius} "
                                f"(the --radius), got {dump_radius}")
    b = ball(config.presentation, config.radius, cap=config.cap)
    kernel = kernel_from_bicombing(make_bicombing(config.bicombing_kind, b))
    path = config.out_dir / "norms.csv"
    try:
        # each row is checked, written and dropped in turn
        _write_norm_rows(config, "norms.csv", cocycle_norm_rows(kernel),
                         {"displacement_constant": kernel.displacement_constant})
    except PropernessError:
        path.unlink(missing_ok=True)  # a failing run leaves no report
        raise
    # one row at a time, so the whole file never exists as one string
    size = b.size_within(dump_radius)
    with (config.out_dir / "kernel.csv").open("w") as fh:
        for i in range(size):
            fh.write(kernel_dump(kernel, [i], size))
    print(f"{kernel.n - 1} cocycle norm rows -> {path}")
    return EXIT_OK


def cmd_opnorm(config: argparse.Namespace) -> int:
    b = ball(config.presentation, config.radius, cap=config.cap)
    kernel = kernel_from_bicombing(make_bicombing(config.bicombing_kind, b))
    s_radius, v_radius = kernel.scan_split
    upper = uniform_bound(kernel.displacement_constant)
    rows = []
    for s in b.elements[:b.size_within(s_radius)]:
        res = op_norm_lower_bound(s, kernel, v_radius)
        # the bound is seedless; the seed column echoes --seed
        rows.append((_word(s), res.value, upper, res.iterations, config.seed))
    path = _write_csv(
        config, "opnorm.csv",
        ["word", "lower_bound_found", "theoretical_upper", "iters", "seed"],
        rows,
        extra={"s_radius": s_radius, "subspace_radius": v_radius,
               "displacement_constant": kernel.displacement_constant},
    )
    print(f"{len(rows)} operator-norm rows (upper bound {upper}) -> {path}")
    return EXIT_OK


def cmd_action(config: argparse.Namespace) -> int:
    if (config.action_path is None) == (config.quasitree_path is None):
        print("action command needs exactly one of --action FILE and --quasitree FILE",
              file=sys.stderr)
        return EXIT_INPUT
    if config.quasitree_path is not None:
        data = parse_quasitree_csv(config.quasitree_path.read_text())
        report = validate_quasitree_kernel(data)
        rows = [("sandwich_and_cnd", "pass" if report.passed else "fail",
                 "; ".join(report.failures))]
        path = _write_csv(
            config, "quasitree.csv", ["check", "status", "witness"], rows,
            extra={"tolerance": report.tolerance, "delta": float(report.delta),
                   "min_eigenvalue": report.min_eigenvalue},
        )
        print(f"quasi-tree kernel: {'pass' if report.passed else 'fail'} -> {path}")
        for failure in report.failures:
            print(f"  {failure}")
        return EXIT_OK if report.passed else EXIT_INVARIANT
    action = parse_action(config.action_path.read_text(), config.presentation)
    b = ball(config.presentation, config.radius, cap=config.cap)
    kernel = orbit_kernel(action, b)
    growth = orbit_growth_report(kernel)
    path = _write_norm_rows(config, "action.csv", growth.norm_report.rows,
                            {"target_rank": action.target_rank,
                             "verdict": growth.verdict,
                             "fitted_constant": growth.fitted_constant})
    print(f"verdict: {growth.verdict} (fitted c = {growth.fitted_constant}) -> {path}")
    return EXIT_OK


# -- the verify suite -----------------------------------------------------------


def verify_suite(config: argparse.Namespace) -> tuple[dict[str, str | None], dict[str, str]]:
    """Invariant suite over one presentation/combing/radius: cocycle identity,
    norm formula, conditional negative definiteness, per-vector bound,
    properness, plus the structural chain checks feeding them; each decides a
    named finite set, so nothing is drawn.  The exact kernel checks read F's
    structure and each served entry, in O(nnz + |overrides|); the per-element
    checks share one pass over the ball that reads 2K's row e and diagonal
    and builds each chain q[e, s] once, and the pair checks one pass over the
    ordered pairs of the s ball.  Off a malformed F nothing reads 2K: every
    check that reads F fails with the defect.  Returns check name -> its
    first failing witness, or None if it passed, in report order, and check
    name -> the items it decided."""
    b = ball(config.presentation, config.radius, cap=config.cap)
    sabotage = config.sabotage_diagonal
    if sabotage is not None and not 0 <= sabotage < len(b):
        raise ValueError(
            f"--sabotage-diagonal {sabotage} is outside the kernel index range "
            f"0..{len(b) - 1}"
        )
    spec = make_bicombing(config.bicombing_kind, b)
    kernel = kernel_from_bicombing(spec)
    if sabotage is not None:  # served over the built kernel's F and entries
        kernel = DisplacementKernel(b, kernel.embedding, spec,
                                    {**kernel.overrides, (sabotage, sabotage): 2})
    n = len(b)
    inner = b.elements[:b.size_within(kernel.scan_split[0])]
    k, n_pair = len(inner), b.size_within(kernel.scan_split[1])

    covered = {
        "ball_inverse_closure": f"{n} elements",
        "ball_adjacency_involutive": f"{n} elements",
        "boundary_identity": f"{n - 1} chains",
        "equivariance": f"{k * k} pairs",
        **({"antisymmetry": f"{k * (k - 1) // 2} pairs"} if spec.antisymmetrized else {}),
        "combing_lower_bound": f"{n - 1} chains",
        "kernel_diagonal_zero": f"{n} entries",
        "kernel_symmetry": f"{n * (n - 1) // 2} pairs",
        "kernel_nonnegative": f"{n * n} entries",
        "kernel_cnd": f"{n} points",
        "kernel_cross_validation": f"{n_pair * (n_pair - 1) // 2} pairs",
        "cocycle_identity": f"{k * k} pairs",
        "norm_formula": f"{n - 1} elements",
        "per_vector_bound": f"{k * (k - 1)} vectors",
        "properness_rows": f"{n - 1} rows",
    }
    witness: dict[str, str | None] = dict.fromkeys(covered)

    def fail(name, text):
        if witness[name] is None:
            witness[name] = text

    # F is an integer matrix with its exact transpose, so every entry it serves
    # is an l1 distance |F_i - F_j|_1 of integer vectors: symmetric, zero on the
    # diagonal, non-negative and CND (Schoenberg); only the served entries are left to
    # read.  Off a malformed F no read of 2K is sound, so none is made, and
    # every check that reads F fails with the defect
    if (defect := kernel.embedding.defect()) is not None:
        for name in ("kernel_diagonal_zero", "kernel_symmetry", "kernel_nonnegative",
                     "kernel_cnd", "kernel_cross_validation", "norm_formula",
                     "per_vector_bound", "properness_rows"):
            fail(name, defect)
    for (i, j), t in () if defect else sorted(kernel.overrides.items()):
        if i == j and t:
            fail("kernel_diagonal_zero", f"K({i},{i}) != 0")
        if t < 0:
            fail("kernel_nonnegative", f"K{(i, j)} < 0")
        if kernel.entries([j], [i])[0][0] != t:
            pair = min(i, j), max(i, j)
            fail("kernel_symmetry", f"K{pair} != K{pair[::-1]}")
        if kernel.embedding.row(i, j, j + 1)[0] != t:
            fail("kernel_cnd", f"2K{(i, j)} is not its slot-embedding distance")

    # one pass over the ball, which reads 2K's row e and diagonal: element s's
    # doubled chain 2 q[e, s] is built, checked and dropped in turn, and
    # halved only in a witness
    row_e = None if defect else kernel.row(0)  # 2K(e, .)
    degree = len(b.presentation.alphabet)
    for i, s in enumerate(b.elements):
        j = b.walk(0, invert(s))  # no oracle call: the table, then the index
        if j < 0 or b.index.get(b.elements[j]) != j:
            fail("ball_inverse_closure", f"inverse of {_word(s)} missing")
        for r, letter in enumerate(b.presentation.alphabet):
            j = b.adjacency[i * degree + r]
            if j >= 0 and b.adjacency[j * degree + (r ^ 1)] != i:
                fail("ball_adjacency_involutive",
                     f"edge {_word(s)} -{letter}-> {_word(b.elements[j])}")
                break
        if i == 0:
            continue
        chain = combing_chain(spec, "", s)
        bd = boundary(chain, b)
        if bd != {s: 2, "": -2}:
            half = {v: Fraction(c, 2) for v, c in bd.items()}
            fail("boundary_identity", f"boundary of q[e,{_word(s)}] is {half}")
        twice = chain.l1_norm()
        if twice < 2 * len(s):
            fail("combing_lower_bound", f"||q[e,{_word(s)}]||_1 < d for {_word(s)}")
        if defect:
            continue
        # ||b(s)||_1 = 2, so ||b(s)||_E = sqrt(K(s, e)) + 2 iff 4 Q(b(s)) = 4K(s, e) -
        # 2K(s, s) - 2K(e, e) equals 4K(s, e) = 2 ||2 q[e,s]||_1, here by chain
        # arithmetic; 2K(s, s) is read from row s
        direct = 2 * row_e[i] - kernel.row(i, i, i + 1)[0] - row_e[0]
        if direct != 2 * twice:
            fail("norm_formula", f"Q(b({_word(s)})) = {Fraction(direct, 4)} "
                                 f"but ||q[e,{_word(s)}]||_1 = {Fraction(twice, 2)}")

    try:
        if not defect:
            kernel_cross_validate(kernel, radius=kernel.scan_split[1])
    except AssertionError as exc:
        fail("kernel_cross_validation", str(exc))

    # one pass over the ordered pairs (s, x) of the s ball, s outer; each
    # q[e, x] is built once
    from_e = [combing_chain(spec, "", x) for x in inner]
    for i, s in enumerate(inner):
        for j, (x, chain) in enumerate(zip(inner, from_e)):
            if translate_chain(s, chain, b) != combing_chain(spec, s, b.name(s + x)):
                fail("equivariance", f"translate mismatch for s={_word(s)} z={_word(x)}")
            if (spec.antisymmetrized and j > i
                    and (combing_chain(spec, s, x) + combing_chain(spec, x, s)).coeffs):
                fail("antisymmetry",
                     f"q[{_word(s)},{_word(x)}] + q[{_word(x)},{_word(s)}] != 0")
            if (res := check_cocycle_identity(s, x, b)) != 0:
                fail("cocycle_identity", f"residual {res} at ({_word(s)}, {_word(x)})")
            if not x or defect:
                continue
            v = EVector({x: 1, "": -1})
            if not (res := per_vector_bound_check(s, v, kernel)).passed:
                fail("per_vector_bound", f"lhs {res.lhs} > rhs {res.rhs} for s={_word(s)} "
                                         f"supp={[_word(w) for w in v.support()]}")

    try:
        for _ in () if defect else cocycle_norm_rows(kernel):  # checked and dropped in turn
            pass
    except PropernessError as exc:
        fail("properness_rows", str(exc))

    return witness, covered


def cmd_verify(config: argparse.Namespace) -> int:
    witness, covered = verify_suite(config)
    rows = [(name, "pass" if text is None else "FAIL", text or "")
            for name, text in witness.items()]
    path = _write_csv(config, "verify.csv", ["check", "status", "witness"], rows)
    for name, text in witness.items():
        verdict = f"PASS {name}" if text is None else f"FAIL {name} [{text}]"
        print(f"{verdict} ({covered[name]})")
    print(f"-> {path}")
    return EXIT_OK if all(text is None for text in witness.values()) else EXIT_INVARIANT


# -- entry point -----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="l1comb",
        description="combings, displacement kernels and cocycle growth on "
                    "finitely presented groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        # the parsed namespace is the run config: dests are the attribute
        # names the handlers read, metavars keep the help text; main reads
        # quasitree_path, and every report header a combing kind, flag or no flag
        p = sub.add_parser(name)
        p.set_defaults(quasitree_path=None, bicombing_kind="auto")
        p.add_argument("--presentation", dest="presentation_path",
                       metavar="PRESENTATION", required=True, type=Path)
        p.add_argument("--radius", type=int, default=3)
        if name in ("bicombing-stats", "verify", "opnorm", "norms"):  # build a combing
            p.add_argument("--bicombing", dest="bicombing_kind",
                           choices=["auto", *KIND_BY_FLAG])
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", dest="out_dir", metavar="OUT", type=Path,
                       default=Path("reports"))
        p.add_argument("--cap", type=int, default=DEFAULT_BALL_CAP)
        if name == "action":
            p.add_argument("--action", dest="action_path", metavar="ACTION", type=Path)
            p.add_argument("--quasitree", dest="quasitree_path", metavar="QUASITREE",
                           type=Path)
        if name == "norms":
            p.add_argument("--kernel-radius", type=int, metavar="K",
                           help="dump the kernel of the radius-K ball to kernel.csv, "
                                "0 <= K <= --radius (default --radius)")
        if name == "verify":
            p.add_argument("--sabotage-diagonal", type=int,
                           help="verifier self-test: corrupt one kernel "
                                "diagonal entry and expect exit 1")
    return parser


# command name -> (handler, the least --radius at which it scans more than
# the identity: 'verify' decides its pair checks over the ball of half the
# radius); 'action --quasitree' builds no ball and needs only a radius >= 0
COMMANDS = {
    "ball": (cmd_ball, 0),
    "bicombing-stats": (cmd_bicombing_stats, 1),
    "verify": (cmd_verify, 2),
    "opnorm": (cmd_opnorm, 1),
    "norms": (cmd_norms, 1),
    "action": (cmd_action, 1),
}


def main(argv: list[str] | None = None) -> int:
    try:
        config = _build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error (2) or --help (0)
        return exc.code
    try:
        text = config.presentation_path.read_text()
    except OSError as exc:
        print(f"cannot read presentation: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        presentation = parse_presentation(text)
        handler, least = COMMANDS[config.command]
        least = 0 if config.quasitree_path else least
        if config.radius < least:
            # checked before any ball is built, so nothing is written
            raise PresentationError(f"{config.command} needs --radius >= {least}, "
                                    f"got {config.radius}")
        if config.cap < 1:
            # a ball always holds the identity, so no run could meet this cap
            raise PresentationError("cap must be >= 1")
        config.presentation = presentation
        config.bicombing_kind = _resolve_kind(config.bicombing_kind, presentation)
        if config.bicombing_kind == "tree_geodesic" and presentation.reduction_mode != "free":
            raise PresentationError("tree bicombing requires a free presentation")
        return handler(config)
    except BallCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (PresentationError, ActionError, OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PropernessError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except Exception:
        import traceback  # only on this path: it adds to every command's start-up

        traceback.print_exc()
        return EXIT_INTERNAL


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
