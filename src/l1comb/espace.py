"""Mean-zero vectors, the split norm, the translation representation and its
cocycle, uniform bounds, and properness reporting.

The space is spanned by finitely supported rational functions on group
elements with mean zero: :class:`EVector` is the package's l1 vector type
(``bicombing.L1Vector``) over group-element words, plus the mean-zero check.
A displacement kernel K induces the seminorm

    ||v||_f = Q(v)^(1/2),   Q(v) = -1/2 sum_{x,y} v(x) v(y) K(x, y),

and the working norm is ||v||_E = ||v||_f + ||v||_1.  Every kernel here is
2K(x, y) = |F_x - F_y|_1 = |J(F_x) - J(F_y)|^2 (J the slot embedding), so for
mean-zero v, Q(v) = 1/2 |sum v(x) J(F_x)|^2 (Schoenberg): it is read exactly
off F's rows and is never negative, so the inequalities below are decided in
rationals; floats enter only through square roots (the operator-norm lower
bound takes them of distinct integer pairs only).
The left translation representation pi(s)v(x) = v(s^-1 x) preserves ||.||_1
exactly and moves ||.||_f by at most the displacement excess of K; the
cocycle b(s) = delta_s - delta_e turns pi into an affine action whose growth
is governed by K(s, e).  :func:`cocycle_norm_rows` is the one reader of these
cocycle rows: one read of row 0 of 2K yields every ||b(s)||_E =
sqrt(K(s, e)) + 2 with its lower bound, decided in integers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from typing import NamedTuple

from .bicombing import L1Vector
from .groups import CayleyBall, OutOfBallError
from .kernel import DisplacementKernel


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


def check_cocycle_identity(s: str, t: str, ball: CayleyBall) -> int:
    """Max coefficient residual of b(st) - pi(s) b(t) - b(s) for a ball
    element s, exactly 0: b(st) names st by the word problem, and pi(s) b(t) =
    delta_st - delta_s walks t from s on the multiplication table, so the
    residual is the difference of two deltas at st, 1 where the names differ."""
    i = ball.canonical_index(s)
    j = -1 if i is None else ball.walk(i, t)
    if j < 0:
        raise OutOfBallError(f"{s + t!r} is not walked inside the ball")
    return int(ball.name(s + t) != ball.elements[j])


# -- norms ---------------------------------------------------------------------


def quadratic_form(v: EVector, kernel: DisplacementKernel) -> Fraction:
    """Q(v) = -1/2 sum v(x) v(y) K(x, y) = 1/2 |sum v(x) J(F_x)|^2, exactly,
    read off the rows of F over v's support."""
    return kernel.embedding.form((kernel.index_of(w), c) for w, c in v.coeffs.items())


def norm_f(v: EVector, kernel: DisplacementKernel) -> float:
    return math.sqrt(quadratic_form(v, kernel))


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
    rows = kernel.translate_rows(s, [kernel.index_of(w) for w in v.coeffs])
    excess = Fraction(max((abs(t - u) for f, m in rows for u, t in zip(f, m)), default=0), 2)
    lhs = quadratic_form(rep_apply(s, v, kernel.ball), kernel) - quadratic_form(v, kernel)
    rhs = excess * v.l1_norm() ** 2 / 2
    return BoundCheck(lhs=lhs, rhs=rhs, passed=lhs <= rhs, excess=excess)


def uniform_bound(displacement_constant: float) -> float:
    """sqrt(M/2) + 1, the operator-norm bound M buys, as a float rounded up."""
    if displacement_constant < 0:
        raise ValueError("displacement constant must be nonnegative")
    x = math.sqrt(displacement_constant / 2.0) + 1.0
    while (Fraction(x) - 1) ** 2 < Fraction(displacement_constant) / 2:
        x = math.nextafter(x, math.inf)
    return x


# -- operator norm lower bound ---------------------------------------------------


class OpNormResult(NamedTuple):
    value: float
    iterations: int  # two-point vectors evaluated


def op_norm_lower_bound(s: str, kernel: DisplacementKernel, radius: int) -> OpNormResult:
    """max ||pi(s)v||_E / ||v||_E over the two-point vectors v = delta_x -
    delta_y, x < y in S = ball(radius): a lower bound on the norm of pi(s)
    restricted to the mean-zero vectors on S.  Such v has ||v||_1 = 2 and
    Q(v) = K(x, y), and pi(s)v = delta_sx - delta_sy, so the ratio is
    (sqrt K(sx, sy) + 2) / (sqrt K(x, y) + 2).  It reduces the kernel's one
    read of the translate block, the distinct (2K(x, y), 2K(sx, sy)) over x < y
    (:meth:`DisplacementKernel.translate_pairs`, shared with M): the largest
    2K(sx, sy) beside each 2K(x, y) wins, and only those pairs meet a sqrt.

    On the kernel's scan split (s in the ball of its s radius, ``radius``
    its pair radius) the value is bracketed by proof:

    - 1 <= value: for s != e the pair (e, s^-1) reads K(s, e) against
      K(e, s^-1), and these are equal, since ||q[e, z]||_1 = d(e, z) for
      every combing built here and |s| = |s^-1|; s^-1 is in S, as the s
      radius is at most the pair radius.
    - value <= sqrt(M/2) + 1: K(sx, sy) <= K(x, y) + M on the scan split, so
      each ratio is at most (sqrt(K + M) + 2) / (sqrt K + 2) <= 1 + sqrt(M)/2
      <= sqrt(M/2) + 1."""
    n = kernel.ball.scan_size(radius, "pair")
    if n < 2:
        raise ValueError("need at least two elements to span mean-zero vectors")
    if s == "":
        return OpNormResult(value=1.0, iterations=0)
    return OpNormResult(value=max((math.sqrt(t / 2) + 2) / (math.sqrt(u / 2) + 2)
                                  for u, t in kernel.translate_pairs(s, radius)),
                        iterations=n * (n - 1) // 2)


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


def cocycle_norm_rows(kernel: DisplacementKernel, element_filter=None):
    """Yield rows (s, d(e,s), ||b(s)||_f, ||b(s)||_1, ||b(s)||_E, lower bound)
    for the elements s != e of the kernel's ball that pass ``element_filter``,
    in ball order, from one read of row 0 of 2K: ||b(s)||_1 = 2 and ||b(s)||_f =
    sqrt(K(s, e)).  For combing kernels ||q[e,s]||_1 >= d(e,s), so the lower
    bound is sqrt(d) + 2; kernels pulled back along a homomorphism carry only
    the l1 part 2.  The bound holds exactly when 2K(s, e) >= 2d (or >= 0),
    which is decided in integers; a failing element raises
    :class:`PropernessError` naming it."""
    ball = kernel.ball
    combing = kernel.bicombing is not None
    for i, twice in enumerate(kernel.row(0)):
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
        yield row


def properness_report(kernel: DisplacementKernel, element_filter=None) -> NormReport:
    """The rows of :func:`cocycle_norm_rows`, kept as one report."""
    return NormReport(list(cocycle_norm_rows(kernel, element_filter)))
