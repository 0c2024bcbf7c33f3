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
K(s, e).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational

import numpy as np

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
    """pi(s) v: support shifted left by s.  Mean zero and the l1 norm are
    preserved exactly; coefficients are untouched."""
    return EVector._wrap({ball.mul(s, w): c for w, c in v.coeffs.items()})


def check_cocycle_identity(s: str, t: str, ball: CayleyBall):
    """Max coefficient residual of b(st) - pi(s) b(t) - b(s); exactly 0."""
    st = ball.mul(s, t)
    residual = cocycle(st) - rep_apply(s, cocycle(t), ball) - cocycle(s)
    return residual.max_abs()


# -- norms ---------------------------------------------------------------------


def _support_indices(v: EVector, kernel: DisplacementKernel) -> list[int]:
    idx = []
    for w in v.coeffs:
        j = kernel.ball.canonical_index(w)
        if j is None or j >= kernel.n:
            raise SupportEscapeError(f"support element {w!r} is outside the kernel ball")
        idx.append(j)
    return idx


def quadratic_form(v: EVector, kernel: DisplacementKernel) -> Fraction:
    """Q(v) = -1/2 sum v(x) v(y) K(x, y), exactly; nonnegative for CND
    kernels."""
    if not v.coeffs:
        return Fraction(0)
    idx = _support_indices(v, kernel)
    c = list(v.coeffs.values())
    # Python ints from .tolist(), so products with int or Fraction
    # coefficients stay exact
    rows = kernel.twice_block(idx, idx).tolist()
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


@dataclass(frozen=True)
class BoundCheck:
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
    idx = _support_indices(v, kernel)
    trans = kernel.translate(s, idx, SupportEscapeError)
    diff2 = kernel.twice_block(trans, trans) - kernel.twice_block(idx, idx)
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


@dataclass(frozen=True)
class OpNormConfig:
    restarts: int = 32
    iterations: int = 500
    seed: int = 0


@dataclass(frozen=True)
class OpNormResult:
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
    base_idx = list(range(n))
    trans_idx = kernel.translate(s, base_idx, SupportEscapeError)
    if s == "":
        return OpNormResult(value=1.0, iterations=0, restarts=0, seed=config.seed)
    k_base = kernel.block(base_idx, base_idx)
    k_trans = kernel.block(trans_idx, trans_idx)

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
        rng = np.random.default_rng(config.seed * 100_003 + restart)
        vec = rng.standard_normal(n)
        vec -= vec.mean()
        current = ratio(vec)
        step = INITIAL_STEP
        for it in range(config.iterations):
            total_iters += 1
            if it and it % DECAY_EVERY == 0:
                step *= STEP_DECAY
            j = rng.integers(n)
            delta = step * (1.0 if rng.integers(2) else -1.0)
            trial = vec.copy()
            trial[j] += delta
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


@dataclass(frozen=True)
class NormRow:
    word: str
    distance: int
    norm_f: float
    norm_l1: float
    norm_e: float
    lower_bound: float


@dataclass
class NormReport:
    rows: list[NormRow] = field(default_factory=list)

    def sphere_minima(self) -> dict[int, float]:
        out: dict[int, float] = {}
        for row in self.rows:
            cur = out.get(row.distance)
            if cur is None or row.norm_e < cur:
                out[row.distance] = row.norm_e
        return out

    def sphere_maxima(self) -> dict[int, float]:
        out: dict[int, float] = {}
        for row in self.rows:
            cur = out.get(row.distance)
            if cur is None or row.norm_e > cur:
                out[row.distance] = row.norm_e
        return out


def cocycle_norm_rows(kernel: DisplacementKernel, radius: int | None = None,
                      element_filter=None) -> NormReport:
    """Rows (s, d(e,s), ||b(s)||_f, ||b(s)||_1, ||b(s)||_E, sqrt(d) + 2) for
    s != e in the radius ball, with ||b(s)||_f = sqrt(K(s, e)) read directly
    from the kernel's column 0, as row(0)."""
    if radius is None:
        radius = kernel.radius
    ball = kernel.ball
    n = min(ball.size_within(radius), kernel.n)
    twice_to_e = kernel.row(0).tolist()
    report = NormReport()
    for i in range(1, n):
        word = ball.elements[i]
        if element_filter is not None and not element_filter(word):
            continue
        d = ball.distances[i]
        nf = math.sqrt(max(twice_to_e[i] / 2.0, 0.0))
        report.rows.append(NormRow(
            word=word, distance=d, norm_f=nf, norm_l1=2.0, norm_e=nf + 2.0,
            lower_bound=math.sqrt(d) + 2.0,
        ))
    return report


def properness_report(kernel: DisplacementKernel,
                      radius: int | None = None) -> NormReport:
    """Per-element rows of :func:`cocycle_norm_rows` with the properness
    lower bound sqrt(d) + 2.  For combing kernels ||q[e,s]||_1 >= d(e,s), so
    every row must satisfy ||b(s)||_E >= sqrt(d) + 2, that is
    2K(s, e) >= 2 d(e, s), which is decided in integers; a failing element
    raises :class:`PropernessError` naming it.  Tree-action kernels carry no
    such bound and their rows are reported unchecked."""
    report = cocycle_norm_rows(kernel, radius)
    if kernel.bicombing is not None:
        twice_to_e = kernel.row(0).tolist()
        # the rows are the elements 1, 2, ... of the ball, in order
        for i, row in enumerate(report.rows, start=1):
            if twice_to_e[i] < 2 * row.distance:
                raise PropernessError(
                    f"||b({row.word})||_E = {row.norm_e} is below the lower "
                    f"bound {row.lower_bound}: 2K(s, e) = {twice_to_e[i]} < "
                    f"2 d(e, s) = {2 * row.distance}"
                )
    return report
