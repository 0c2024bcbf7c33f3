"""Mean-zero vectors, the split norm, the translation representation and its
cocycle, uniform bounds, and properness reporting.

The space is spanned by finitely supported rational functions on group
elements with mean zero: :class:`EVector` is the package's l1 vector type
(``bicombing.L1Vector``) over group-element words, plus the mean-zero check.
A displacement kernel K induces the seminorm

    ||v||_f = Q(v)^(1/2),   Q(v) = -1/2 sum_{x,y} v(x) v(y) K(x, y),

and the working norm is ||v||_E = ||v||_f + ||v||_1.  Q is exact, read off the
integer rows of 2K, so the inequalities below are decided in rationals; floats
enter only through square roots and the operator-norm probe.  The left translation
representation pi(s)v(x) = v(s^-1 x) preserves ||.||_1 exactly and moves
||.||_f by at most the displacement excess of K; the cocycle b(s) =
delta_s - delta_e turns pi into an affine action whose growth is governed by
K(s, e).  :func:`properness_report` is the one reader of these cocycle rows:
one pass over row 0 of 2K gives every ||b(s)||_E = sqrt(K(s, e)) + 2 with
its lower bound, decided in integers.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from numbers import Rational
from typing import NamedTuple

from ._numpy import np
from .bicombing import L1Vector
from .groups import CayleyBall
from .kernel import DisplacementKernel

# op-norm probe step schedule
INITIAL_STEP = 1.0
STEP_DECAY = 0.5
DECAY_EVERY = 50


class SupportEscapeError(LookupError):
    """A vector's support (or its translate) left the kernel's ball."""


class NonCndFormError(ArithmeticError):
    """The quadratic form went negative: the kernel is not conditionally
    negative definite (construction bug)."""


class MeanZeroError(ValueError):
    """Coefficients do not sum to zero."""


class EVector(L1Vector):
    """Finitely supported mean-zero function on group elements.

    Coefficients are rationals (int or Fraction), so vectors stay exact under
    translation and vector arithmetic and their mean is exactly zero; float
    coefficients raise TypeError.
    """

    __slots__ = ()

    def __init__(self, coeffs: dict[str, Rational] | None = None):
        super().__init__(coeffs)
        total = sum(self.coeffs.values())
        if not isinstance(total, Rational):
            raise TypeError(f"coefficients must be int or Fraction, not {type(total).__name__}")
        if total:
            raise MeanZeroError(f"coefficients sum to {total}, not 0")

    def max_abs(self):
        return max((abs(c) for c in self.coeffs.values()), default=0)

    def support(self) -> list[str]:
        return sorted(self.coeffs)


def cocycle(s: str) -> EVector:
    """b(s) = delta_s - delta_e; b(e) = 0."""
    if s == "":
        return EVector()
    return EVector({s: 1, "": -1})


def rep_apply(s: str, v: EVector, ball: CayleyBall) -> EVector:
    """pi(s) v: support shifted left by s, the coefficients of support words
    that name one element summed and zeros dropped.  Mean zero is preserved
    exactly; the l1 norm is preserved when the support words name distinct
    elements."""
    out: dict[str, Rational] = {}
    for w, c in v.coeffs.items():
        key = ball.name(s + w)
        out[key] = out.get(key, 0) + c
    return EVector._wrap({w: c for w, c in out.items() if c})


def check_cocycle_identity(s: str, t: str, ball: CayleyBall):
    """Max coefficient residual of b(st) - pi(s) b(t) - b(s); exactly 0."""
    st = ball.name(s + t)
    residual = cocycle(st) - rep_apply(s, cocycle(t), ball) - cocycle(s)
    return residual.max_abs()


# -- norms ---------------------------------------------------------------------


def quadratic_form(v: EVector, kernel: DisplacementKernel) -> Fraction:
    """Q(v) = -1/2 sum v(x) v(y) K(x, y), exactly; nonnegative for CND
    kernels."""
    if not v.coeffs:
        return Fraction(0)
    idx = [kernel.index_of(w, SupportEscapeError) for w in v.coeffs]
    c = list(v.coeffs.values())
    # Python ints from .tolist(), so products with int or Fraction
    # coefficients stay exact
    rows = kernel.twice_block(idx).tolist()
    total = sum(ci * sum(cj * t for cj, t in zip(c, row)) for ci, row in zip(c, rows))
    return Fraction(-total, 4)


def norm_f(v: EVector, kernel: DisplacementKernel) -> float:
    q = quadratic_form(v, kernel)
    if q < 0:
        raise NonCndFormError(
            f"quadratic form value {q} is negative; "
            "the kernel is not conditionally negative definite"
        )
    return math.sqrt(q)


def norm_e(v: EVector, kernel: DisplacementKernel) -> float:
    return norm_f(v, kernel) + float(v.l1_norm())


# -- the per-vector inequality ---------------------------------------------------


class BoundCheck(NamedTuple):
    lhs: Fraction
    rhs: Fraction
    passed: bool
    excess: Fraction


def per_vector_bound_check(s: str, v: EVector, kernel: DisplacementKernel) -> BoundCheck:
    """Check ||pi(s)v||_f^2 - ||v||_f^2 <= (excess/2) ||v||_1^2 exactly, where
    the excess is the two-sided displacement of K over the support:
    max |K(sx, sy) - K(x, y)|.  (The one-sided maximum does not bound the
    form difference when some pair contracts strictly while none expands, so
    the two-sided quantity is the one the inequality needs.)  The left side
    is formed from the translated vector pi(s)v, independently of the kernel
    indices of the translates that give the excess."""
    if not v.coeffs:
        return BoundCheck(Fraction(0), Fraction(0), True, Fraction(0))
    idx = [kernel.index_of(w, SupportEscapeError) for w in v.coeffs]
    trans = [kernel.index_of(s + w, SupportEscapeError) for w in v.coeffs]
    diff2 = kernel.twice_block(trans) - kernel.twice_block(idx)
    excess = Fraction(np.abs(diff2).max().item(), 2)
    lhs = quadratic_form(rep_apply(s, v, kernel.ball), kernel) - quadratic_form(v, kernel)
    l1 = v.l1_norm()
    rhs = excess * l1 * l1 / 2
    return BoundCheck(lhs=lhs, rhs=rhs, passed=lhs <= rhs, excess=excess)


def uniform_bound(displacement_constant: float) -> float:
    """sqrt(M/2) + 1: the operator-norm bound the displacement constant buys."""
    if displacement_constant < 0:
        raise ValueError("displacement constant must be nonnegative")
    return math.sqrt(displacement_constant / 2.0) + 1.0


# -- operator norm probing -------------------------------------------------------


class OpNormConfig(NamedTuple):
    restarts: int = 32
    iterations: int = 500
    seed: int = 0


class OpNormResult(NamedTuple):
    value: float
    iterations: int
    restarts: int
    seed: int


def op_norm_lower_bound(s: str, kernel: DisplacementKernel, radius: int,
                        config: OpNormConfig = OpNormConfig()) -> OpNormResult:
    """Best found ||pi(s)v||_E / ||v||_E over mean-zero v supported in the
    radius ball: seeded multi-start coordinate-perturbation ascent.  This is a
    lower bound on the restricted operator norm, never the norm itself."""
    ball = kernel.ball
    n = ball.size_within(radius)
    if n < 2:
        raise ValueError("need at least two elements to span mean-zero vectors")
    trans_idx = [kernel.index_of(s + x, SupportEscapeError) for x in ball.elements[:n]]
    if s == "":
        return OpNormResult(value=1.0, iterations=0, restarts=0, seed=config.seed)
    k_base = kernel.twice_block(range(n)) / 2.0
    k_trans = kernel.twice_block(trans_idx) / 2.0

    def ratio(vec: np.ndarray) -> float:
        l1 = float(np.abs(vec).sum())
        if l1 <= 0.0:
            return 0.0
        qb = float(-0.5 * vec @ k_base @ vec)
        qt = float(-0.5 * vec @ k_trans @ vec)
        den = math.sqrt(max(qb, 0.0)) + l1
        num = math.sqrt(max(qt, 0.0)) + l1
        return num / den

    best = 0.0
    total_iters = 0
    for restart in range(config.restarts):
        rng = random.Random(config.seed * 100_003 + restart)
        vec = np.array([rng.gauss(0.0, 1.0) for _ in range(n)])
        vec -= vec.mean()
        current = ratio(vec)
        step = INITIAL_STEP
        for it in range(config.iterations):
            total_iters += 1
            if it and it % DECAY_EVERY == 0:
                step *= STEP_DECAY
            j = rng.randrange(n)
            trial = vec.copy()
            trial[j] += step if rng.getrandbits(1) else -step
            trial -= trial.mean()
            val = ratio(trial)
            if val > current:
                vec, current = trial, val
        best = max(best, current)
    return OpNormResult(value=best, iterations=total_iters,
                        restarts=config.restarts, seed=config.seed)


# -- properness reporting --------------------------------------------------------


class PropernessError(AssertionError):
    """A cocycle norm row fell below its properness lower bound."""


class NormRow(NamedTuple):
    word: str
    distance: int
    norm_f: float
    norm_l1: float
    norm_e: float
    lower_bound: float


class NormReport(NamedTuple):
    rows: list[NormRow]

    def _per_sphere(self, pick) -> dict[int, float]:
        out: dict[int, float] = {}
        for row in self.rows:
            cur = out.get(row.distance)
            out[row.distance] = row.norm_e if cur is None else pick(cur, row.norm_e)
        return out

    def sphere_minima(self) -> dict[int, float]:
        return self._per_sphere(min)

    def sphere_maxima(self) -> dict[int, float]:
        return self._per_sphere(max)


def properness_report(kernel: DisplacementKernel, element_filter=None) -> NormReport:
    """Rows (s, d(e,s), ||b(s)||_f, ||b(s)||_1, ||b(s)||_E, lower bound) for
    the elements s != e of the kernel's ball that pass ``element_filter``, in
    ball order, from one read of row 0 of 2K: ||b(s)||_1 = 2 and ||b(s)||_f =
    sqrt(K(s, e)).  For combing kernels ||q[e,s]||_1 >= d(e,s), so the lower
    bound is sqrt(d) + 2; kernels pulled back along a homomorphism carry only
    the l1 part 2.  The bound holds exactly when 2K(s, e) >= 2d (or >= 0),
    which is decided in integers; a failing element raises
    :class:`PropernessError` naming it."""
    ball = kernel.ball
    combing = kernel.bicombing is not None
    report = NormReport([])
    for i, twice in enumerate(kernel.row(0).tolist()):
        word = ball.elements[i]
        if i == 0 or (element_filter is not None and not element_filter(word)):
            continue
        d = len(word)
        nf = math.sqrt(max(twice / 2.0, 0.0))
        row = NormRow(word=word, distance=d, norm_f=nf, norm_l1=2.0, norm_e=nf + 2.0,
                      lower_bound=math.sqrt(d) + 2.0 if combing else 2.0)
        floor = 2 * d if combing else 0
        if twice < floor:
            raise PropernessError(
                f"||b({word})||_E = {row.norm_e} is below the lower bound "
                f"{row.lower_bound}: 2K(s, e) = {twice} < "
                + (f"2 d(e, s) = {floor}" if combing else "0")
            )
        report.rows.append(row)
    return report
