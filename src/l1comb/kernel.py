"""Squared-Hilbert-distance kernels pulled back from combings.

The central object is a symmetric kernel K(x, y) = ||f(x) - f(y)||^2 indexed
by a Cayley ball.  For a combing q, K(x, y) = ||q[e,x] - q[e,y]||_1, and the
slot embedding f = J realizes it explicitly: an integer chain becomes a +-1
``L1Vector`` with one coordinate per (edge, slot), and squared distances of
embedded chains are l1 distances of the chains.  Combing values are
half-integers, so :func:`kernel_from_bicombing` embeds the doubled chains
2 q[e,x], walked on the ball's multiplication table (:func:`walked_slots`),
as the rows of one integer matrix F, kept in numpy arrays with a
column-major copy; :func:`feature_embed` is the reference embedding.  A tree
action's kernel (:func:`l1comb.actions.orbit_kernel`) feeds the same engine
the doubled tree paths of its orbit.  :class:`SlotEmbedding` builds F in one
pass over integer slot keys, so a build peaks below twice the bytes of F.  F
is a kernel's only stored state: every doubled entry,

    2 K(x_i, x_j) = |F_i|^2 + |F_j|^2 - 2 <F_i, F_j>,

is evaluated exactly, one int64 row at a time, by counting the columns row i
shares with each row, and no n x n matrix is ever stored.  Since every row
is a row of squared distances of integer vectors, 2K is of negative type,
and every inequality read off it is decided exactly, conditional negative
definiteness included (:func:`served_rows`).  A block of 2K is always a
principal block 2K[I, I] read through the rows
(:meth:`DisplacementKernel.twice_block`); the eigenvalue diagnostic and the
operator-norm probe halve it into floats themselves, and :func:`kernel_dump`
renders 2K a row at a time.  Words reach kernel indices through
:meth:`DisplacementKernel.index_of`, and a translate s x through
:meth:`DisplacementKernel.translate_index`, which walks x's letters from s
(:meth:`CayleyBall.walk`) and asks ``index_of`` only when the walk leaves
the ball.  The displacement constant M is measured over the kernel's scan
split the first time a caller reads it.

numpy comes from :mod:`l1comb._numpy` and is imported when the first kernel
is built, so ``import l1comb`` and the combing layer run without it.
"""

from __future__ import annotations

import functools
import itertools
from array import array
from collections.abc import Collection, Iterable
from fractions import Fraction
from numbers import Rational
from typing import NamedTuple

from ._numpy import np
from .bicombing import BicombingSpec, Chain1, Edge, L1Vector, area, combing_chain
from .groups import CayleyBall, OutOfBallError, invert


class NonIntegralChainError(ValueError):
    """The slot embedding is defined on integer chains only."""


class DisplacementKernel:
    """Symmetric kernel over (a radius prefix of) a Cayley ball, stored as the
    slot embedding F of its doubled chains alone.

    :meth:`row` evaluates one exact int64 row of 2K from ``embedding``, and
    every read of the kernel's entries and blocks goes through it.
    ``bicombing`` is the combing a kernel was built from, and None for a
    tree action's orbit kernel; the combing bounds (properness, two-triangle
    decomposition) apply only when it is set.  Everything else is derived: ``scan_split`` splits the radius, and
    ``displacement_constant`` is measured over that split on first read.
    """

    def __init__(self, ball: CayleyBall, embedding: SlotEmbedding, radius: int,
                 bicombing: BicombingSpec | None = None):
        self.ball = ball
        self.embedding = embedding
        self.radius = radius
        self.bicombing = bicombing

    # no matrix is stored; the benchmark tracer (perfbench/tracer.py) reads
    # this name until its kernel.matrix_bytes upkeep (ROADMAP direction 1)
    twice = None

    @property
    def n(self) -> int:
        return len(self.embedding.norms)

    @property
    def scan_split(self) -> tuple[int, int]:
        """(s radius, pair radius): every translate sx stays in the kernel."""
        return self.radius // 2, self.radius - self.radius // 2

    @functools.cached_property
    def displacement_constant(self) -> float:
        """The two-sided empirical displacement bound over the scan split,
        measured from the rows the kernel serves at the first read and kept."""
        return empirical_displacement_constant(self, *self.scan_split)

    def row(self, i: int) -> np.ndarray:
        """Row i of 2K, exact int64, evaluated from F."""
        return self.embedding.row(i)

    def twice_block(self, indices) -> np.ndarray:
        """Exact int64 principal block 2K[I, I] over the index list I,
        reading each row once."""
        indices = list(indices)
        cols = np.asarray(indices, dtype=np.intp)
        out = np.empty((len(indices), len(indices)), dtype=np.int64)
        for k, i in enumerate(indices):
            out[k] = self.row(i)[cols]
        return out

    @functools.cached_property
    def values(self) -> np.ndarray:
        """Read-only float K as one n x n array, materialized on the first
        read and kept: each exact row of 2K is written into it straight from
        F, then the whole is halved in place, so no second n x n array ever
        exists.  No command reads it; tests and the benchmark tracer do."""
        out = np.empty((self.n, self.n))
        for i in range(self.n):
            out[i] = self.embedding.row(i)
        out /= 2.0
        out.flags.writeable = False
        return out

    def index_of(self, word: str, error: type = OutOfBallError) -> int:
        """Kernel index of the element ``word`` names; raises ``error`` when
        that element is outside the kernel's ball."""
        idx = self.ball.canonical_index(word)
        if idx is None or idx >= self.n:
            raise error(f"{word!r} is outside the kernel's ball")
        return idx

    def translate_index(self, s: str, x: str, error: type = OutOfBallError) -> int:
        """Kernel index of the translate s x: x's letters walked from s's
        index on the ball's multiplication table, and :meth:`index_of` of
        ``s + x`` only when s is no ball element or the walk leaves the
        ball or the kernel."""
        cur = self.ball.index.get(s)
        if cur is not None and 0 <= (cur := self.ball.walk(cur, x)) < self.n:
            return cur
        return self.index_of(s + x, error)

    def value(self, i: int, j: int) -> float:
        return float(self.row(i)[j]) / 2.0

    def exact(self, i: int, j: int) -> Fraction:
        return Fraction(self.row(i)[j].item(), 2)


# kernel_dump's ",{K}\n" by 2K: exact kernels take few distinct values, so
# each is rendered once
_LABELS: dict[int, str] = {}


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
        twice = kernel.row(i)[i:].tolist()
        for t in set(twice).difference(_LABELS):
            _LABELS[t] = f",{Fraction(t, 2)}\n"
        # one format call renders the row's lines "{i},{j},{K}\n", no str per j
        fields = [None] * (2 * len(twice))
        fields[::2] = range(i, kernel.n)
        fields[1::2] = map(_LABELS.__getitem__, twice)
        chunks.append((f"{i},%d%s" * len(twice)) % tuple(fields))
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


def walked_slots(ball: CayleyBall, i: int, antisymmetrized: bool) -> list[int]:
    """Slot keys of the doubled chain 2 q[e, x] of element i, walked on the
    ball's multiplication table from e along x's canonical word and, when
    antisymmetrized, back from x along x^-1's: edge t = source index * k +
    generator (k generators), slot k of edge t has key 4t + k + 1.  Both
    walks are geodesics in the ball, so an edge carries +-1 or +-2, every key
    is below 4nk for the n elements within x's length, and the keys come in
    the order :func:`feature_embed` gives the word chain's."""
    adj, rank, word = ball.adjacency, ball.presentation._rank, ball.elements[i]
    degree = len(rank)
    gens = degree // 2
    doubled: dict[int, int] = {}  # edge id -> coefficient, in path order

    def walk(cur: int, letters: str, step: int) -> None:
        for r in map(rank.__getitem__, letters):
            nxt = adj[cur * degree + r]
            # an inverse letter (odd rank) crosses the edge nxt -> cur backwards
            source, sign = (nxt, -step) if r & 1 else (cur, step)
            edge = source * gens + (r >> 1)
            doubled[edge] = doubled.get(edge, 0) + sign
            cur = nxt

    if antisymmetrized:
        walk(0, word, 1)
        walk(i, ball.elements[ball.walk(0, invert(word))], -1)
    else:
        walk(0, word, 2)
    return [key for edge, c in doubled.items()
            for key in range(4 * edge + 2 + min(c, 0), 4 * edge + 2 + max(c, 0))]


class SlotEmbedding:
    """Slot embeddings of integer chains as the rows of F: row i has columns
    ``cols[ptr[i]:ptr[i+1]]``, column c rows ``col_rows[col_ptr[c]:col_ptr[c+1]]``.
    Rows come as non-negative integer slot keys (:func:`walked_slots`) and
    are read once: one flat key table numbers the keys as columns in order of
    first appearance, and a counting pass from ``col_ptr`` then fills
    ``col_rows``, so the build holds F, the key table and one column cursor
    and nothing per key.  A column's slot fixes the sign of all its entries,
    so <F_i, F_j> counts the columns rows i and j share."""

    def __init__(self, rows: Iterable[Collection[int]]):
        # rows may be a generator: each is numbered and dropped in turn
        table = array("i")  # slot key -> column, -1 until the key appears
        cols, norms = array("i"), array("q")
        width = 0  # columns numbered so far
        for keys in rows:
            norms.append(len(keys))
            for key in keys:
                try:
                    c = table[key]
                except IndexError:
                    table.extend(array("i", [-1]) * (key + 1 - len(table)))
                    c = -1
                if c < 0:
                    c = table[key] = width
                    width += 1
                cols.append(c)
        del table
        self.cols = np.frombuffer(cols, np.int32)
        self.norms = np.frombuffer(norms, np.int64)  # |F_i|^2
        self.ptr = np.zeros(len(norms) + 1, np.int64)
        np.cumsum(self.norms, out=self.ptr[1:])
        self.col_ptr = np.zeros(width + 1, np.int64)
        np.cumsum(np.bincount(self.cols, minlength=width), out=self.col_ptr[1:])
        # counting pass: rows are read in order, so each column lists its
        # rows in increasing order, as a stable sort by column would
        self.col_rows = np.empty(len(cols), np.int32)
        fill, cursor = memoryview(self.col_rows), memoryview(self.col_ptr[:-1].copy())
        row_of = itertools.chain.from_iterable(map(itertools.repeat, range(len(norms)), norms))
        for c, i in zip(cols, row_of):
            fill[cursor[c]] = i
            cursor[c] += 1

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


def kernel_from_bicombing(spec: BicombingSpec,
                          radius: int | None = None) -> DisplacementKernel:
    """Kernel K(x, y) = ||q[e,x] - q[e,y]||_1 over the prefix of the given
    radius of the combing's ball, exact through the doubled chains, whose
    rows are walked on the ball's table with no word-problem call.  Only F is
    built here; the displacement constant is measured when it is first
    read."""
    b = spec.ball
    if radius is None:
        radius = b.radius
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if radius > b.radius:
        raise OutOfBallError(
            f"kernel radius {radius} exceeds the ball radius {b.radius}"
        )
    rows = (walked_slots(b, i, spec.antisymmetrized) for i in range(b.size_within(radius)))
    return DisplacementKernel(ball=b, embedding=SlotEmbedding(rows), radius=radius,
                              bicombing=spec)


# -- displacement ------------------------------------------------------------


class DecompositionRow(NamedTuple):
    x: str
    y: str
    excess: Fraction
    area_first: Rational
    area_second: Rational


def two_triangle_bound(spec: BicombingSpec, s: str, x: str, y: str) -> tuple:
    """The two exact triangle areas whose sum bounds K(sx,sy) - K(x,y) for an
    antisymmetric combing: ||q[e,sx] + q[sx,sy] + q[sy,e]||_1 and
    ||q[sy,sx] + q[sx,s] + q[s,sy]||_1.  Both triangles are read translated
    by s^-1: the combing is equivariant, so the areas are the same, and the
    vertices s^-1, x, y and e stay in the ball that holds s, x and y."""
    return area(spec, spec.ball.name(invert(s)), x, y), area(spec, y, x, "")


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
    trans = [kernel.translate_index(s, kernel.ball.elements[i]) for i in indices]
    diff2 = (kernel.twice_block(trans) - kernel.twice_block(indices)).tolist()
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
    pairs = b.elements[:b.size_within(pair_radius)]
    base = kernel.twice_block(range(len(pairs)))
    best2 = 0
    # element 0 is the identity, whose translates are the pairs themselves
    for s in b.elements[1:b.size_within(s_radius)]:
        trans = [kernel.translate_index(s, x) for x in pairs]
        best2 = max(best2, int(np.abs(kernel.twice_block(trans) - base).max()))
    return float(best2) / 2.0


# -- conditional negative definiteness ----------------------------------------


def centered_min_eigenvalue(matrix: np.ndarray) -> float:
    """Minimum eigenvalue of -matrix/2 restricted to mean-zero vectors; up to
    float rounding it is nonnegative exactly when the matrix is conditionally
    negative definite.  The float ``matrix`` is overwritten: it is scaled in
    place, then reflected in place by the Householder reflection H that swaps
    e_0 with the unit all-ones vector, so that rows and columns 1.. of H A H
    hold A on the mean-zero vectors (the orthonormal basis He_1, ...,
    He_{n-1})."""
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
    return centered_min_eigenvalue(kernel.twice_block(indices) / 2.0)


def served_rows(kernel: DisplacementKernel):
    """Yield (i, row i of 2K as the kernel serves it, that row minus
    |F_i - F_j|^2 as the kernel's slot embedding F re-evaluates it) for every
    i, in one pass that holds one row at a time.  A deviation that is zero
    everywhere is an exact certificate of negative type: 2K is then a matrix
    of squared distances between integer vectors, which is CND by
    Schoenberg's theorem."""
    for i in range(kernel.n):
        row = kernel.row(i)
        yield i, row, row - kernel.embedding.row(i)


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
