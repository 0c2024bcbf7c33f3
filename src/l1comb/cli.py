"""Batch front-end: run pipelines from presentation files and emit
self-describing CSV reports with stable exit codes.

Exit codes: 0 all checks pass, 1 invariant violation, 2 input error,
3 resource cap exceeded, 4 internal error (any other exception; the traceback
goes to stderr).  Every CSV starts with ``# key: value`` comment
lines (seed, generating set, bicombing kind, the tolerance of the quasi-tree
negative-type check, the only verdict not decided exactly); the timestamp
line is informational and excluded from determinism comparisons.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

from ._numpy import np
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
    cnd_min_eigenvalue,  # not called here; perfbench/tracer.py wraps it
    kernel_cross_validate,
    kernel_dump,
    kernel_from_bicombing,
    served_rows,
)
from .espace import (
    EVector,
    NonCndFormError,
    OpNormConfig,
    PropernessError,
    check_cocycle_identity,
    cocycle_norm_rows,
    norm_e,  # not called here; perfbench/tracer.py wraps cli.norm_e
    op_norm_lower_bound,
    per_vector_bound_check,
    properness_report,
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
    if isinstance(value, float):
        return repr(float(value))  # normalizes numpy scalars
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
        "tolerance": config.tolerance,
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


def _write_norm_rows(config: argparse.Namespace, filename: str, report, extra: dict) -> Path:
    """The cocycle norm rows of ``norms`` and ``action``, one CSV layout."""
    return _write_csv(
        config, filename, ["word", "d", "norm_f", "norm_l1", "norm_E", "lower_bound"],
        [(_word(r.word), r.distance, r.norm_f, r.norm_l1, r.norm_e, r.lower_bound)
         for r in report.rows],
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
    rows = []
    if config.bicombing_kind == "shortlex_antisymmetrized":
        raw = make_bicombing("shortlex", b)
        rows.append(_stats_for_kind(raw, config))
        rows.append(_stats_for_kind(antisymmetrize(raw), config))
    else:
        rows.append(_stats_for_kind(make_bicombing(config.bicombing_kind, b), config))
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
    b = ball(config.presentation, config.radius, cap=config.cap)
    spec = make_bicombing(config.bicombing_kind, b)
    kernel = kernel_from_bicombing(spec)
    report = properness_report(kernel)
    path = _write_norm_rows(config, "norms.csv", report,
                            {"displacement_constant": kernel.displacement_constant})
    # one row at a time, so the whole file never exists as one string
    with (config.out_dir / "kernel.csv").open("w") as fh:
        for i in range(kernel.n):
            fh.write(kernel_dump(kernel, [i]))
    print(f"{len(report.rows)} cocycle norm rows -> {path}")
    return EXIT_OK


def cmd_opnorm(config: argparse.Namespace) -> int:
    b = ball(config.presentation, config.radius, cap=config.cap)
    spec = make_bicombing(config.bicombing_kind, b)
    kernel = kernel_from_bicombing(spec)
    s_radius, v_radius = kernel.scan_split
    upper = uniform_bound(kernel.displacement_constant)
    opt = OpNormConfig(seed=config.seed)
    rows = []
    for s in b.elements[:b.size_within(s_radius)]:
        res = op_norm_lower_bound(s, kernel, v_radius, opt)
        rows.append((_word(s), res.value, upper, res.iterations, res.seed))
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
        report = validate_quasitree_kernel(data, tolerance=config.tolerance)
        rows = [("sandwich_and_cnd", "pass" if report.passed else "fail",
                 "; ".join(report.failures))]
        path = _write_csv(
            config, "quasitree.csv", ["check", "status", "witness"], rows,
            extra={"delta": report.delta, "min_eigenvalue": report.min_eigenvalue},
        )
        print(f"quasi-tree kernel: {'pass' if report.passed else 'fail'} -> {path}")
        for failure in report.failures:
            print(f"  {failure}")
        return EXIT_OK if report.passed else EXIT_INVARIANT
    action = parse_action(config.action_path.read_text(), config.presentation)
    b = ball(config.presentation, config.radius, cap=config.cap)
    kernel = orbit_kernel(action, b)
    growth = orbit_growth_report(kernel)
    path = _write_norm_rows(config, "action.csv", growth.norm_report,
                            {"target_rank": action.target_rank,
                             "verdict": growth.verdict,
                             "fitted_constant": growth.fitted_constant})
    print(f"verdict: {growth.verdict} (fitted c = {growth.fitted_constant}) -> {path}")
    return EXIT_OK


# -- the verify suite -----------------------------------------------------------


def verify_suite(config: argparse.Namespace) -> dict[str, str | None]:
    """Invariant suite over one presentation/combing/radius: cocycle identity,
    norm formula, conditional negative definiteness, per-vector bound,
    properness, plus the structural chain checks feeding them.  Every
    per-element check and every kernel-structure check shares one pass over
    the ball, which reads each element's served row of 2K and builds its chain
    q[e, s] once.  Returns the witness table: check name -> its first failing
    witness, or None if it passed, in report order."""
    b = ball(config.presentation, config.radius, cap=config.cap)
    sabotage = config.sabotage_diagonal
    if sabotage is not None and not 0 <= sabotage < len(b):
        raise ValueError(
            f"--sabotage-diagonal {sabotage} is outside the kernel index range "
            f"0..{len(b) - 1}"
        )
    spec = make_bicombing(config.bicombing_kind, b)
    kernel = kernel_from_bicombing(spec)
    if sabotage is not None:
        serve = kernel.row

        def sabotaged(i):
            row = serve(i)
            if i == sabotage:
                row[i] = 2
            return row

        kernel.row = sabotaged
    rng = random.Random(config.seed)
    n_inner, n_outer = map(b.size_within, kernel.scan_split)

    witness: dict[str, str | None] = dict.fromkeys([
        "ball_inverse_closure", "ball_adjacency_involutive", "boundary_identity",
        "equivariance", *(["antisymmetry"] if spec.antisymmetrized else []),
        "combing_lower_bound", "kernel_diagonal_zero", "kernel_symmetry",
        "kernel_nonnegative", "kernel_cnd", "kernel_cross_validation",
        "cocycle_identity", "norm_formula", "per_vector_bound", "properness_rows",
    ])

    def fail(name, text):
        if witness[name] is None:
            witness[name] = text

    # one pass over the ball: only F is stored, and element i's served row of
    # 2K and its chain q[e, s] are built, checked and dropped in turn;
    # deviation maps (i, j) to served 2K(i, j) minus |F_i - F_j|^2, wherever
    # they differ
    deviation: dict[tuple[int, int], int] = {}
    degree = len(b.presentation.alphabet)
    for i, row, dev in served_rows(kernel):
        s = b.elements[i]
        j = b.walk(0, invert(s))  # no oracle call: the table, then the index
        if j < 0 or b.index.get(b.elements[j]) != j:
            fail("ball_inverse_closure", f"inverse of {_word(s)} missing")
        for r, letter in enumerate(b.presentation.alphabet):
            j = b.adjacency[i * degree + r]
            if j >= 0 and b.adjacency[j * degree + (r ^ 1)] != i:
                fail("ball_adjacency_involutive",
                     f"edge {_word(s)} -{letter}-> {_word(b.elements[j])}")
                break
        if row[i]:
            fail("kernel_diagonal_zero", f"K({i},{i}) != 0")
        if row.min() < 0:
            fail("kernel_nonnegative", f"K{(i, int(np.flatnonzero(row < 0)[0]))} < 0")
        for j in np.flatnonzero(dev).tolist():
            deviation[i, j] = int(dev[j])
        if i == 0:
            row_e = row  # 2K(e, .), kept for norm_formula
            continue
        chain = combing_chain(spec, "", s)
        bd = boundary(chain, b)
        if bd != {s: 1, "": -1}:
            fail("boundary_identity", f"boundary of q[e,{_word(s)}] is {bd}")
        norm = chain.l1_norm()
        if norm < len(s):
            fail("combing_lower_bound", f"||q[e,{_word(s)}]||_1 < d for {_word(s)}")
        # ||b(s)||_1 = 2, so ||b(s)||_E = sqrt(K(s, e)) + 2 iff Q(b(s)) =
        # (4K(s, e) - 2K(s, s) - 2K(e, e)) / 4 equals K(s, e) = ||q[e,s]||_1,
        # here computed by chain arithmetic; K(s, e) is read from row e,
        # symmetry being checked on its own
        direct = Fraction(2 * int(row_e[i]) - int(row[i]) - int(row_e[0]), 4)
        if direct != norm:
            fail("norm_formula",
                 f"Q(b({_word(s)})) = {direct} but ||q[e,{_word(s)}]||_1 = {norm}")

    # F's distances are symmetric, so a served pair is asymmetric exactly
    # where its two entries deviate from them by different amounts
    bad = min(((min(p), max(p)) for p, dev in deviation.items()
               if deviation.get(p[::-1], 0) != dev), default=None)
    if bad is not None:
        fail("kernel_symmetry", f"K{bad} != K{bad[::-1]}")
    # exact: every served row equals its re-evaluation from the slot embedding
    if deviation:
        fail("kernel_cnd", f"2K{next(iter(deviation))} is not its slot-embedding distance")

    for _ in range(50):
        s = b.elements[rng.randrange(n_inner)]
        z = b.elements[rng.randrange(n_inner)]
        lhs = translate_chain(s, combing_chain(spec, "", z), b)
        if lhs != combing_chain(spec, s, b.name(s + z)):
            fail("equivariance", f"translate mismatch for s={_word(s)} z={_word(z)}")
            break

    if spec.antisymmetrized:
        for _ in range(50):
            x = b.elements[rng.randrange(n_inner)]
            y = b.elements[rng.randrange(n_inner)]
            if (combing_chain(spec, x, y) + combing_chain(spec, y, x)).coeffs:
                fail("antisymmetry",
                     f"q[{_word(x)},{_word(y)}] + q[{_word(y)},{_word(x)}] != 0")
                break

    try:
        kernel_cross_validate(spec, radius=kernel.scan_split[1], kernel=kernel)
    except AssertionError as exc:
        fail("kernel_cross_validation", str(exc))

    words = b.elements[:n_inner]
    bad = next(((res, x, y) for x in words for y in words
                if (res := check_cocycle_identity(x, y, b)) != 0), None)
    if bad is not None:
        res, x, y = bad
        fail("cocycle_identity", f"residual {res} at ({_word(x)}, {_word(y)})")

    for _ in range(100):
        s = b.elements[rng.randrange(n_inner)]
        support = rng.sample(range(n_outer), k=min(4, n_outer))
        coeffs = [rng.randint(-3, 3) for _ in support]
        coeffs[-1] -= sum(coeffs)
        v = EVector({b.elements[i]: c for i, c in zip(support, coeffs)})
        if not v.coeffs:
            continue
        res = per_vector_bound_check(s, v, kernel)
        if not res.passed:
            fail("per_vector_bound", f"lhs {res.lhs} > rhs {res.rhs} for s={_word(s)} "
                                     f"supp={[_word(w) for w in v.support()]}")
            break

    try:
        for _ in cocycle_norm_rows(kernel):  # checked and dropped in turn
            pass
    except PropernessError as exc:
        fail("properness_rows", str(exc))

    return witness


def cmd_verify(config: argparse.Namespace) -> int:
    witness = verify_suite(config)
    rows = [(name, "pass" if text is None else "FAIL", text or "")
            for name, text in witness.items()]
    path = _write_csv(config, "verify.csv", ["check", "status", "witness"], rows)
    for name, text in witness.items():
        print(f"PASS {name}" if text is None else f"FAIL {name} [{text}]")
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
        # names the handlers read, metavars keep the help text
        p = sub.add_parser(name)
        p.set_defaults(action_path=None, quasitree_path=None, sabotage_diagonal=None)
        p.add_argument("--presentation", dest="presentation_path",
                       metavar="PRESENTATION", required=True, type=Path)
        p.add_argument("--radius", type=int, default=3)
        p.add_argument("--bicombing", dest="bicombing_kind",
                       choices=["auto", *KIND_BY_FLAG], default="auto")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", dest="out_dir", metavar="OUT", type=Path,
                       default=Path("reports"))
        p.add_argument("--cap", type=int, default=DEFAULT_BALL_CAP)
        p.add_argument("--tol", dest="tolerance", metavar="TOL", type=float, default=1e-9,
                       help="tolerance of the quasi-tree negative-type check "
                            "in 'action --quasitree' (centered min eigenvalue "
                            ">= -TOL); a finite number >= 0; every other "
                            "verdict is exact")
        if name == "action":
            p.add_argument("--action", dest="action_path", metavar="ACTION", type=Path)
            p.add_argument("--quasitree", dest="quasitree_path", metavar="QUASITREE",
                           type=Path)
        if name == "verify":
            p.add_argument("--sabotage-diagonal", type=int,
                           help="verifier self-test: corrupt one kernel "
                                "diagonal entry and expect exit 1")
    return parser


# command name -> (handler, the least --radius at which it scans more than
# the identity: 'verify' samples from the ball of half the radius); 'action
# --quasitree' builds no ball and needs only a radius >= 0
COMMANDS = {
    "ball": (cmd_ball, 0),
    "bicombing-stats": (cmd_bicombing_stats, 1),
    "verify": (cmd_verify, 2),
    "opnorm": (cmd_opnorm, 1),
    "norms": (cmd_norms, 1),
    "action": (cmd_action, 1),
}


def main(argv: list[str] | None = None) -> int:
    config = _build_parser().parse_args(argv)
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
        if not 0 <= config.tolerance < math.inf:  # also rejects nan
            raise PresentationError(
                f"--tol must be a finite number >= 0, got {config.tolerance}")
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
    except (PropernessError, NonCndFormError) as exc:
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
