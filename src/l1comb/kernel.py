"""Squared-Hilbert-distance kernels from combings and actions.

The central object is a symmetric kernel K(x, y) = ||f(x) - f(y)||^2 indexed
by a Cayley ball.  For a combing, K(x, y) = ||q[e,x] - q[e,y]||_1, and the
slot embedding f = J realizes it explicitly: an integer chain becomes a +-1
``L1Vector`` with one coordinate per (edge, slot), and squared distances of
embedded chains are l1 distances of the chains.  Combing values are
half-integers, so the kernel engine embeds the doubled chains 2 q[e,x] as the
rows of one integer matrix F, kept in numpy arrays with a column-major copy,
and evaluates every doubled entry,

    2 K(x_i, x_j) = |F_i|^2 + |F_j|^2 - 2 <F_i, F_j>,

exactly, one row at a time, counting the columns row i shares with each row.
|F_i|^2 is the number of nonzeros of row i and every entry is at most
4 max_i |F_i|^2; the matrix is stored in the narrowest signed integer type
holding that bound (int8 while every |F_i|^2 is at most 31), and differences
of two entries fit the same type.  Tree actions pull back tree-geodesic chains
through the same engine.  A combing kernel keeps F: when every stored row
equals its re-evaluation, 2K is a matrix of squared distances of integer
vectors, so of negative type, and every inequality read off it is decided
exactly; float blocks are derived on demand for the eigenvalue cross-check and
the operator-norm probe, and :func:`kernel_dump` renders 2K a row at a time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

from .bicombing import BicombingSpec, Chain1, Edge, L1Vector, area, combing_chain
from .groups import CayleyBall, OutOfBallError

CND_TOLERANCE = -1e-9


class NonIntegralChainError(ValueError):
    """The slot embedding is defined on integer chains only."""


class DecompositionError(AssertionError):
    """A pairwise displacement excess exceeded its two-triangle bound."""


@dataclass
class DisplacementKernel:
    """Dense symmetric kernel over (a radius prefix of) a Cayley ball.

    ``twice`` is the one stored matrix, holding 2K exactly in the narrowest
    signed integer type that holds its entries.  ``bicombing`` is the combing
    a kernel was built from, and None for tree-action kernels; the combing
    bounds (properness, two-triangle decomposition) apply only when it is
    set.  ``embedding`` is the slot embedding of a combing kernel's doubled
    chains, which re-evaluates any row of ``twice``.  ``displacement_constant``
    is the two-sided empirical displacement bound for the recorded scan split,
    or 0 for an isometric action.
    """

    ball: CayleyBall
    twice: np.ndarray
    displacement_constant: float
    radius: int
    bicombing: BicombingSpec | None = None
    embedding: SlotEmbedding | None = None

    @property
    def n(self) -> int:
        return self.twice.shape[0]

    @property
    def values(self) -> np.ndarray:
        """Read-only float copy of K, derived from ``twice``."""
        out = self.twice / 2.0
        out.flags.writeable = False
        return out

    def block(self, rows, cols) -> np.ndarray:
        """Float block K[rows, cols]."""
        return self.twice[np.ix_(rows, cols)] / 2.0

    def index_of(self, word: str) -> int:
        idx = self.ball.canonical_index(word)
        if idx is None or idx >= self.n:
            raise OutOfBallError(f"{word!r} is outside the kernel's ball")
        return idx

    def value(self, i: int, j: int) -> float:
        return float(self.twice[i, j]) / 2.0

    def exact(self, i: int, j: int) -> Fraction:
        return Fraction(self.twice[i, j].item()) / 2

    def translate(self, s: str, indices, error: type = OutOfBallError) -> list[int]:
        """Kernel indices of s x for the elements x at ``indices``; raises
        ``error`` when a translate leaves the kernel's ball."""
        ball = self.ball
        out = []
        for i in indices:
            j = ball.canonical_index(s + ball.elements[i])
            if j is None or j >= self.n:
                raise error(
                    f"translate of {ball.elements[i]!r} by {s!r} left the kernel ball"
                )
            out.append(j)
        return out


@functools.cache
def _fraction_label(twice: int) -> str:
    # exact kernels take few distinct values, so each is rendered once
    return str(Fraction(twice, 2))


def kernel_dump(kernel: DisplacementKernel, rows=None) -> str:
    """Kernel CSV lines of the given rows (all by default): one line per pair
    i <= j, indices in ball ordering, values as exact fractions; the header
    ``i,j,K`` comes with row 0.  Concatenating the dumps of rows 0..n-1 gives
    the whole file, so it can be written a row at a time."""
    if rows is None:
        rows = range(kernel.n)
    chunks = []
    for i in rows:
        if i == 0:
            chunks.append("i,j,K\n")
        chunks.append("".join(
            f"{i},{j},{_fraction_label(t)}\n"
            for j, t in enumerate(kernel.twice[i, i:].tolist(), start=i)
        ))
    return "".join(chunks)


# -- slot embedding ----------------------------------------------------------


def feature_embed(chain: Chain1) -> L1Vector:
    """The slot embedding J of an integer chain: edge value a > 0 fills slots
    1..a of the edge with +1, a < 0 fills slots a+1..0 with -1.  Signed slots
    of opposite sign never share a key, so ||J(u) - J(w)||^2 = ||u - w||_1,
    and inner products (:meth:`L1Vector.dot`) are integer-exact."""
    slots: dict[tuple[Edge, int], int] = {}
    for edge, c in chain.coeffs.items():
        if isinstance(c, Fraction):
            if c.denominator != 1:
                raise NonIntegralChainError(
                    f"coefficient {c} on edge {edge} is not an integer"
                )
            c = c.numerator
        if c > 0:
            for k in range(1, c + 1):
                slots[(edge, k)] = 1
        else:
            for k in range(c + 1, 1):
                slots[(edge, k)] = -1
    return L1Vector._wrap(slots)


# -- the kernel engine -------------------------------------------------------


class SlotEmbedding:
    """Slot embeddings of integer chains as the rows of F: row i has columns
    ``cols[ptr[i]:ptr[i+1]]``, column c rows ``col_rows[col_ptr[c]:col_ptr[c+1]]``.
    A column's slot fixes the sign of all its entries, so <F_i, F_j> counts
    the columns rows i and j share."""

    def __init__(self, chains: list[Chain1]):
        columns: dict[tuple[Edge, int], int] = {}
        rows = [[columns.setdefault(key, len(columns)) for key in feature_embed(c).coeffs]
                for c in chains]
        self.norms = np.array([len(r) for r in rows], dtype=np.int64)  # |F_i|^2
        self.ptr = np.concatenate(([0], np.cumsum(self.norms)))
        self.cols = np.fromiter((c for r in rows for c in r), np.int32, self.ptr[-1])
        self.col_rows = np.repeat(np.arange(len(rows), dtype=np.int32), self.norms)[
            np.argsort(self.cols, kind="stable")]
        self.col_ptr = np.concatenate(
            ([0], np.cumsum(np.bincount(self.cols, minlength=len(columns)))))

    def row(self, i: int) -> np.ndarray:
        """Exact int64 |F_i - F_j|^2 = |F_i|^2 + |F_j|^2 - 2 <F_i, F_j>, all j."""
        cols = self.cols[self.ptr[i]:self.ptr[i + 1]]
        starts = self.col_ptr[cols]
        lens = self.col_ptr[cols + 1] - starts
        gather = np.arange(lens.sum()) + np.repeat(starts - np.cumsum(lens) + lens, lens)
        shared = np.bincount(self.col_rows[gather], minlength=len(self.norms))
        return self.norms[i] + self.norms - 2 * shared


def l1_distance_matrix(chains: list[Chain1] | SlotEmbedding) -> np.ndarray:
    """Exact ||u - w||_1 over integer chains (or their embedding F), filled a row
    at a time into the narrowest signed int dtype holding the bound 4 max |F_i|^2."""
    F = chains if isinstance(chains, SlotEmbedding) else SlotEmbedding(chains)
    bound = 4 * int(F.norms.max(initial=0))
    out = np.empty((len(F.norms),) * 2, dtype=next(
        t for t in (np.int8, np.int16, np.int32, np.int64) if np.iinfo(t).max >= bound))
    for i in range(len(out)):
        out[i] = F.row(i)
    return out


def kernel_from_bicombing(spec: BicombingSpec, radius: int | None = None,
                          scan_split: tuple[int, int] | None = None) -> DisplacementKernel:
    """Kernel K(x, y) = ||q[e,x] - q[e,y]||_1 over the ball prefix of the given
    radius, exact through the doubled chains.  The displacement constant is
    the two-sided empirical excess max |K(sx,sy) - K(x,y)| over the scan split
    (s up to the first radius, pairs up to the second)."""
    b = spec.ball
    if radius is None:
        radius = b.radius
    if radius > b.radius:
        raise OutOfBallError(
            f"kernel radius {radius} exceeds the ball radius {b.radius}"
        )
    n = b.size_within(radius)
    embedding = SlotEmbedding(
        [combing_chain(spec, "", b.elements[i]).scale(2) for i in range(n)])
    kernel = DisplacementKernel(
        ball=b,
        twice=l1_distance_matrix(embedding),
        displacement_constant=0.0,
        radius=radius,
        bicombing=spec,
        embedding=embedding,
    )
    if scan_split is None:
        scan_split = (radius // 2, radius - radius // 2)
    kernel.displacement_constant = empirical_displacement_constant(kernel, *scan_split)
    return kernel


# -- displacement ------------------------------------------------------------


def displacement_excess(kernel: DisplacementKernel, s: str, indices=None,
                        verify_decomposition: bool | None = None) -> float:
    """max over x, y in the index set of K(sx, sy) - K(x, y).

    For antisymmetric combing kernels the excess of every pair is verified
    against its exact two-triangle area bound (see
    :func:`two_triangle_bound`); a violation raises
    :class:`DecompositionError`.
    """
    if indices is None:
        indices = range(kernel.n)
    indices = list(indices)
    trans = kernel.translate(s, indices)
    if verify_decomposition is None:
        verify_decomposition = (
            kernel.bicombing is not None
            and (kernel.bicombing.antisymmetrized
                 or kernel.bicombing.kind == "tree_geodesic")
        )
    diff2 = kernel.twice[np.ix_(trans, trans)] - kernel.twice[np.ix_(indices, indices)]
    best = float(diff2.max()) / 2.0
    if verify_decomposition:
        for row in displacement_decomposition(kernel, s, indices):
            if row.excess > row.area_first + row.area_second:
                raise DecompositionError(
                    f"excess {row.excess} for pair ({row.x!r}, {row.y!r}) under "
                    f"{s!r} exceeds triangle bound {row.area_first + row.area_second}"
                )
    return best


@dataclass(frozen=True)
class DecompositionRow:
    x: str
    y: str
    excess: Fraction
    area_first: Rational
    area_second: Rational


def two_triangle_bound(spec: BicombingSpec, s: str, x: str, y: str) -> tuple:
    """The two exact triangle areas whose sum bounds K(sx,sy) - K(x,y) for an
    antisymmetric combing: ||q[e,sx] + q[sx,sy] + q[sy,e]||_1 and
    ||q[sy,sx] + q[sx,s] + q[s,sy]||_1."""
    b = spec.ball
    sx = b.name(s + x)
    sy = b.name(s + y)
    return area(spec, "", sx, sy), area(spec, sy, sx, s)


def displacement_decomposition(kernel: DisplacementKernel, s: str,
                               indices) -> list[DecompositionRow]:
    """Exact per-pair excesses with their two-triangle bounds (antisymmetric
    combing kernels)."""
    spec = kernel.bicombing
    if spec is None:
        raise ValueError("decomposition requires a combing-backed kernel")
    if not (spec.antisymmetrized or spec.kind == "tree_geodesic"):
        raise ValueError(
            "the two-triangle decomposition needs an antisymmetric combing"
        )
    indices = list(indices)
    trans = kernel.translate(s, indices)
    rows = []
    for a, ta in zip(indices, trans):
        for bidx, tb in zip(indices, trans):
            if bidx <= a:
                continue
            excess = kernel.exact(ta, tb) - kernel.exact(a, bidx)
            t1, t2 = two_triangle_bound(
                spec, s, kernel.ball.elements[a], kernel.ball.elements[bidx]
            )
            rows.append(DecompositionRow(
                x=kernel.ball.elements[a], y=kernel.ball.elements[bidx],
                excess=excess, area_first=t1, area_second=t2,
            ))
    return rows


def empirical_displacement_constant(kernel: DisplacementKernel, s_radius: int,
                                    pair_radius: int) -> float:
    """Two-sided displacement bound max |K(sx, sy) - K(x, y)| over s in the
    s_radius ball and pairs in the pair_radius ball.  Two-sidedness makes
    sqrt(M/2) + 1 a valid uniform bound on the scanned range."""
    b = kernel.ball
    if b.size_within(s_radius + pair_radius) > kernel.n:
        raise OutOfBallError(
            f"scan split ({s_radius}, {pair_radius}) exceeds the kernel radius"
        )
    pair_indices = list(b.indices_within(pair_radius))
    base = kernel.twice[np.ix_(pair_indices, pair_indices)]
    best2 = 0
    for s_idx in b.indices_within(s_radius):
        s = b.elements[s_idx]
        if s == "":
            continue
        trans = kernel.translate(s, pair_indices)
        best2 = max(best2, np.abs(kernel.twice[np.ix_(trans, trans)] - base).max())
    return float(best2) / 2.0


# -- conditional negative definiteness ----------------------------------------


def _mean_zero_basis(n: int) -> np.ndarray:
    # orthonormal Helmert-style basis of the mean-zero subspace
    q = np.zeros((n, n - 1))
    for k in range(1, n):
        q[:k, k - 1] = 1.0
        q[k, k - 1] = -float(k)
        q[:, k - 1] /= np.sqrt(k * (k + 1))
    return q


def centered_min_eigenvalue(matrix: np.ndarray) -> float:
    """Minimum eigenvalue of -matrix/2 restricted to mean-zero vectors; at
    least CND_TOLERANCE certifies conditional negative definiteness."""
    n = matrix.shape[0]
    if n < 2:
        raise ValueError("need at least two elements for a centered eigenvalue")
    q = _mean_zero_basis(n)
    m = q.T @ (-0.5 * matrix) @ q
    return float(np.linalg.eigvalsh(0.5 * (m + m.T)).min())


def cnd_min_eigenvalue(kernel: DisplacementKernel, indices=None) -> float:
    """Centered minimum eigenvalue of the kernel on the index set."""
    if indices is None:
        indices = range(kernel.n)
    indices = list(indices)
    return centered_min_eigenvalue(kernel.block(indices, indices))


def first_unrealized_pair(kernel: DisplacementKernel) -> tuple[int, int] | None:
    """First pair (i, j) whose stored 2K differs from |F_i - F_j|^2 as the
    kernel's slot embedding F re-evaluates it, row by row, or None.  None is
    an exact certificate of negative type: 2K is then a matrix of squared
    distances between integer vectors, which is CND by Schoenberg's theorem."""
    for i in range(kernel.n):
        bad = np.flatnonzero(kernel.twice[i] != kernel.embedding.row(i))
        if bad.size:
            return i, int(bad[0])
    return None


# -- cross validation ---------------------------------------------------------


def kernel_cross_validate(spec: BicombingSpec, radius: int | None = None,
                          kernel: DisplacementKernel | None = None) -> Fraction:
    """Max discrepancy between the kernel engine's values and direct chain
    arithmetic ||q[e,x] - q[e,y]||_1 over all scanned pairs; both are exact,
    so any nonzero discrepancy raises."""
    b = spec.ball
    if radius is None:
        radius = b.radius if kernel is None else kernel.radius
    n = b.size_within(radius)
    if kernel is None:
        kernel = kernel_from_bicombing(spec, radius=radius)
    if n > kernel.n:
        raise OutOfBallError("cross-validation radius exceeds the kernel radius")
    chains = [combing_chain(spec, "", b.elements[i]) for i in range(n)]
    worst = Fraction(0)
    for i in range(n):
        for j in range(i + 1, n):
            direct = (chains[i] - chains[j]).l1_norm()
            disc = abs(kernel.exact(i, j) - direct)
            if disc > worst:
                worst = disc
    if worst:
        raise AssertionError(f"cross-validation discrepancy {worst} is not 0")
    return worst
