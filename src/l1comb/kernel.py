"""Squared-Hilbert-distance kernels from combings and actions.

The central object is a symmetric kernel K(x, y) = ||f(x) - f(y)||^2 indexed
by a Cayley ball.  For a combing, K(x, y) = ||q[e,x] - q[e,y]||_1, and the
slot embedding f = J realizes it explicitly: an integer chain becomes a +-1
``L1Vector`` with one coordinate per (edge, slot), and squared distances of
embedded chains are l1 distances of the chains.  Combing values are
half-integers, so the kernel engine embeds the doubled chains 2 q[e,x] as the
rows of one integer matrix F, kept in numpy arrays with a column-major copy.
F is a kernel's only stored state: every doubled entry,

    2 K(x_i, x_j) = |F_i|^2 + |F_j|^2 - 2 <F_i, F_j>,

is evaluated exactly, one int64 row at a time, by counting the columns row i
shares with each row, and no n x n matrix is ever stored.  Tree actions pull
back tree-geodesic chains through the same engine.  Since every row is a row
of squared distances of integer vectors, 2K is of negative type, and every
inequality read off it is decided exactly; float blocks are derived on demand
for the eigenvalue cross-check and the operator-norm probe, and
:func:`kernel_dump` renders 2K a row at a time.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable
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
    """Symmetric kernel over (a radius prefix of) a Cayley ball, stored as the
    slot embedding F of its doubled chains alone.

    :meth:`row` evaluates one exact int64 row of 2K from ``embedding``, and
    every read of the kernel's entries and blocks goes through it.
    ``bicombing`` is the combing a kernel was built from, and None for
    tree-action kernels; the combing bounds (properness, two-triangle
    decomposition) apply only when it is set.  ``displacement_constant`` is
    the two-sided empirical displacement bound for the recorded scan split,
    or 0 for an isometric action.
    """

    ball: CayleyBall
    embedding: SlotEmbedding
    displacement_constant: float
    radius: int
    bicombing: BicombingSpec | None = None

    # no matrix is stored; the benchmark tracer (perfbench/tracer.py) reads
    # this name until its kernel.matrix_bytes upkeep (ROADMAP direction 7)
    twice = None

    @property
    def n(self) -> int:
        return len(self.embedding.norms)

    def row(self, i: int) -> np.ndarray:
        """Row i of 2K, exact int64, evaluated from F."""
        return self.embedding.row(i)

    def twice_block(self, rows, cols) -> np.ndarray:
        """Exact int64 block 2K[rows, cols], reading each row once."""
        rows = list(rows)
        cols = np.asarray(list(cols), dtype=np.intp)
        out = np.empty((len(rows), len(cols)), dtype=np.int64)
        for k, i in enumerate(rows):
            out[k] = self.row(i)[cols]
        return out

    def block(self, rows, cols) -> np.ndarray:
        """Float block K[rows, cols]."""
        return self.twice_block(rows, cols) / 2.0

    @functools.cached_property
    def values(self) -> np.ndarray:
        """Read-only float K as one n x n array, materialized from F on the
        first read and kept.  No command reads it; tests and the benchmark
        tracer do."""
        out = l1_distance_matrix(self.embedding) / 2.0
        out.flags.writeable = False
        return out

    def index_of(self, word: str) -> int:
        idx = self.ball.canonical_index(word)
        if idx is None or idx >= self.n:
            raise OutOfBallError(f"{word!r} is outside the kernel's ball")
        return idx

    def value(self, i: int, j: int) -> float:
        return float(self.row(i)[j]) / 2.0

    def exact(self, i: int, j: int) -> Fraction:
        return Fraction(self.row(i)[j].item(), 2)

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
            for j, t in enumerate(kernel.row(i)[i:].tolist(), start=i)
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

    def __init__(self, chains: Iterable[Chain1]):
        # chains may be a generator: each is embedded and dropped in turn
        columns: dict[tuple[Edge, int], int] = {}
        norms: list[int] = []

        def column_ids():
            for chain in chains:
                keys = feature_embed(chain).coeffs
                norms.append(len(keys))
                for key in keys:
                    yield columns.setdefault(key, len(columns))

        self.cols = np.fromiter(column_ids(), np.int32)
        self.norms = np.array(norms, dtype=np.int64)  # |F_i|^2
        self.ptr = np.concatenate(([0], np.cumsum(self.norms)))
        self.col_rows = np.repeat(np.arange(len(norms), dtype=np.int32), self.norms)[
            np.argsort(self.cols, kind="stable")]
        self.col_ptr = np.concatenate(
            ([0], np.cumsum(np.bincount(self.cols, minlength=len(columns)))))

    def row(self, i: int) -> np.ndarray:
        """Exact int64 |F_i - F_j|^2 = |F_i|^2 + |F_j|^2 - 2 <F_i, F_j>, all j."""
        col_ptr, col_rows = self.col_ptr, self.col_rows
        # a row has few columns (|F_i|^2 of them), so slicing each is cheap
        sharing = [col_rows[col_ptr[c]:col_ptr[c + 1]]
                   for c in self.cols[self.ptr[i]:self.ptr[i + 1]].tolist()]
        out = np.bincount(np.concatenate(sharing) if sharing else col_rows[:0],
                          minlength=len(self.norms))
        out *= -2
        out += self.norms
        out += self.norms[i]
        return out


def l1_distance_matrix(chains: Iterable[Chain1] | SlotEmbedding) -> np.ndarray:
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
    kernel = DisplacementKernel(
        ball=b,
        embedding=SlotEmbedding(
            combing_chain(spec, "", b.elements[i]).scale(2) for i in range(n)),
        displacement_constant=0.0,
        radius=radius,
        bicombing=spec,
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
    diff2 = kernel.twice_block(trans, trans) - kernel.twice_block(indices, indices)
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
    diff2 = (kernel.twice_block(trans, trans) - kernel.twice_block(indices, indices)).tolist()
    rows = []
    for a, diff2_a in zip(indices, diff2):
        for bidx, d2 in zip(indices, diff2_a):
            if bidx <= a:
                continue
            excess = Fraction(d2, 2)
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
    base = kernel.twice_block(pair_indices, pair_indices)
    best2 = 0
    for s_idx in b.indices_within(s_radius):
        s = b.elements[s_idx]
        if s == "":
            continue
        trans = kernel.translate(s, pair_indices)
        best2 = max(best2, int(np.abs(kernel.twice_block(trans, trans) - base).max()))
    return float(best2) / 2.0


# -- conditional negative definiteness ----------------------------------------


def centered_min_eigenvalue(matrix: np.ndarray) -> float:
    """Minimum eigenvalue of -matrix/2 restricted to mean-zero vectors; at
    least CND_TOLERANCE certifies conditional negative definiteness.  The
    float ``matrix`` is overwritten: it is scaled in place, then reflected in
    place by the Householder reflection H that swaps e_0 with the unit
    all-ones vector, so that rows and columns 1.. of H A H hold A on the
    mean-zero vectors (the orthonormal basis He_1, ..., He_{n-1})."""
    n = matrix.shape[0]
    if n < 2:
        raise ValueError("need at least two elements for a centered eigenvalue")
    matrix *= -0.5
    u = np.full(n, 1.0 / np.sqrt(n))
    u[0] -= 1.0  # H = I - 2 u u^T / |u|^2
    beta = u @ u
    w = matrix @ u
    # H A H = A - u p^T - p u^T
    p = (2.0 / beta) * w - (2.0 * (u @ w) / beta**2) * u
    matrix -= np.outer(u, p)
    matrix -= np.outer(p, u)
    return float(np.linalg.eigvalsh(matrix[1:, 1:]).min())


def cnd_min_eigenvalue(kernel: DisplacementKernel, indices=None) -> float:
    """Centered minimum eigenvalue of the kernel on the index set."""
    if indices is None:
        indices = range(kernel.n)
    indices = list(indices)
    return centered_min_eigenvalue(kernel.block(indices, indices))


def served_rows(kernel: DisplacementKernel):
    """Yield (i, row i of 2K as the kernel serves it, that row minus
    |F_i - F_j|^2 as the kernel's slot embedding F re-evaluates it) for every
    i, in one pass that holds one row at a time."""
    for i in range(kernel.n):
        row = kernel.row(i)
        yield i, row, row - kernel.embedding.row(i)


def first_unrealized_pair(kernel: DisplacementKernel) -> tuple[int, int] | None:
    """First pair (i, j), in row order, whose served 2K differs from its
    re-evaluation from F, or None.  None is an exact certificate of negative
    type: 2K is then a matrix of squared distances between integer vectors,
    which is CND by Schoenberg's theorem."""
    for i, _, deviation in served_rows(kernel):
        bad = np.flatnonzero(deviation)
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
        row = kernel.row(i)[:n].tolist()
        for j in range(i + 1, n):
            direct = (chains[i] - chains[j]).l1_norm()
            disc = abs(Fraction(row[j], 2) - direct)
            if disc > worst:
                worst = disc
    if worst:
        raise AssertionError(f"cross-validation discrepancy {worst} is not 0")
    return worst
