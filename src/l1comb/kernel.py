"""Squared-Hilbert-distance kernels pulled back from combings.

The central object is a symmetric kernel K(x, y) = ||f(x) - f(y)||^2 indexed
by a Cayley ball.  For a combing q, K(x, y) = ||q[e,x] - q[e,y]||_1, and the
slot embedding f = J realizes it explicitly: an integer chain becomes a +-1
``L1Vector`` with one coordinate per (edge, slot), and squared distances of
embedded chains are l1 distances of the chains.  Combing values are
half-integers, so :func:`kernel_from_bicombing` takes the doubled chains
2 q[e, x], walked on the ball's multiplication table (:func:`walked_slots`),
as the rows of one integer matrix F, one entry per edge (the signed number of
slots it fills), kept in ``array``s with a column-major copy; a tree
action's kernel (:func:`l1comb.actions.orbit_kernel`) feeds the same engine
the doubled tree paths of its orbit, and no other module knows F's layout.
:class:`SlotEmbedding` builds F in one pass over the edges, so a build peaks
below twice the bytes of F.  F and the entries a kernel is built to serve in
F's place are its only state; entry

    2 K(x_i, x_j) = |F_i - F_j|_1 = |F_i|_1 + |F_j|_1 - 2 <J(F_i), J(F_j)>,

is evaluated exactly from the columns rows i and j share, and no n x n matrix
is ever stored.  Since every entry is a squared distance of integer vectors
J(F_i), 2K is of negative type, and every inequality read off it is decided
exactly, conditional negative definiteness from F's structure alone
(:meth:`SlotEmbedding.defect`).  2K is read as Python ints: dense rows over a
range (:meth:`DisplacementKernel.row`: :func:`kernel_dump`, the cocycle rows,
cross-validation), and the one translate-block reader, 2K(x, .) beside
2K(sx, s.) over y after x (:meth:`~DisplacementKernel.translate_rows`: the
displacement scan), whose distinct pairs M and the operator-norm bound share.
The E-space form reads F itself (:meth:`SlotEmbedding.form`), numpy is loaded
only by the float ``values`` and the eigenvalue routines, and a translate s x
is named on the ball's table (:meth:`CayleyBall.name_step`)."""

from __future__ import annotations

import functools
import itertools
from array import array
from bisect import bisect_left
from collections.abc import Iterable, Mapping
from fractions import Fraction
from numbers import Rational
from types import MappingProxyType
from typing import NamedTuple

from .bicombing import BicombingSpec, Chain1, Edge, L1Vector, area, combing_chain
from .groups import CayleyBall, OutOfBallError, invert


class NonIntegralChainError(ValueError):
    """The slot embedding is defined on integer chains only."""


class DisplacementKernel:
    """Symmetric kernel over a Cayley ball, fixed when built: the integer
    matrix F of its doubled chains, one row per ball element, and
    ``overrides[i, j]`` served in place of the entry (i, j), a read-only
    mapping (``verify --sabotage-diagonal`` builds one).  Every read of 2K
    serves them: :meth:`row` (a dense row; :meth:`entries` and ``values``
    read off it) and :meth:`translate_rows` (a translate block beside its
    base, right of the diagonal), and so M and the kept translate pairs; only
    :meth:`SlotEmbedding.form` and :meth:`SlotEmbedding.defect` read F itself.
    ``bicombing`` is the combing a kernel was built from, and None for a tree
    action's orbit kernel; the combing bounds (properness, two-triangle
    decomposition, cross-validation) apply only when it is set."""

    def __init__(self, ball: CayleyBall, embedding: SlotEmbedding,
                 bicombing: BicombingSpec | None = None, overrides: Mapping | None = None):
        if (n := len(embedding.norms)) != len(ball):
            raise ValueError(f"F has {n} rows, but the ball has {len(ball)} elements")
        self.ball = ball
        self.embedding = embedding
        self.bicombing = bicombing
        self.overrides = MappingProxyType(dict(overrides or {}))
        self._translate_pairs: dict[tuple[str, int], frozenset[tuple[int, int]]] = {}

    # no matrix is stored; the benchmark tracer (perfbench/tracer.py) reads
    # this name until its kernel.matrix_bytes upkeep (ROADMAP direction 1)
    twice = None

    @property
    def n(self) -> int:
        return len(self.embedding.norms)

    @property
    def scan_split(self) -> tuple[int, int]:
        """(s radius, pair radius): every translate sx stays in the ball."""
        return self.ball.radius // 2, (self.ball.radius + 1) // 2

    @functools.cached_property
    def displacement_constant(self) -> float:
        """The two-sided empirical displacement bound over the scan split,
        measured once, on the first read, from the rows the fixed kernel serves."""
        return empirical_displacement_constant(self, *self.scan_split)

    def row(self, i: int, lo: int = 0, hi: int | None = None) -> list[int]:
        """Entries lo..hi-1 (all by default) of row i of 2K, exact ints,
        evaluated from F, with the entries served in its place."""
        out = self.embedding.row(i, lo, hi)
        for (r, j), t in self.overrides.items():
            if r == i and lo <= j < lo + len(out):
                out[j - lo] = t
        return out

    def entries(self, rows, cols) -> list[list[int]]:
        """The exact block 2K[rows, cols] of two index sequences, as int lists
        read off the dense rows."""
        return [[dense[j] for j in cols] for dense in map(self.row, rows)]

    @functools.cached_property
    def values(self) -> np.ndarray:
        """Read-only float K as one n x n array, filled from the served rows
        and halved in place on the first read; tests and the tracer read it."""
        import numpy as np

        out = np.empty((self.n, self.n))
        for i in range(self.n):
            out[i] = self.row(i)
        out /= 2.0
        out.flags.writeable = False
        return out

    def index_of(self, word: str) -> int:
        """Kernel index of the element ``word`` names; raises
        :class:`OutOfBallError` when it is outside the kernel's ball."""
        idx = self.ball.canonical_index(word)
        if idx is None:
            raise OutOfBallError(f"{word!r} is outside the kernel's ball")
        return idx

    def translate_index(self, s: str, x: str) -> int:
        """Kernel index of the translate s x, named by
        :meth:`CayleyBall.name_step`: walked on the ball's table while it
        stays in the ball; raises :class:`OutOfBallError` outside it."""
        return self.index_of(self.ball.name_step(s, x))

    def translate_rows(self, s: str, indices):
        """The one translate-block reader: the row pairs (2K(x, .), 2K(sx, s.))
        over y after x in the index list or range, x in turn.  It reads one
        triangle, as every F-served kernel is symmetric and zero on the
        diagonal (``verify`` decides it as ``kernel_symmetry``)."""
        trans = [self.translate_index(s, self.ball.elements[i]) for i in indices]
        return zip(self._upper_rows(indices), self._upper_rows(trans))

    def _upper_rows(self, idx):
        over = self.overrides
        for k, (i, row) in enumerate(zip(idx, self.embedding.upper_rows(idx)), 1):
            yield [over.get((i, j), t) for j, t in zip(idx[k:], row)] if over else row

    def translate_pairs(self, s: str, radius: int) -> frozenset[tuple[int, int]]:
        """The distinct (2K(x, y), 2K(sx, sy)) over x < y in the ball of the
        radius, read once and kept per (s, radius): a few pairs, where the
        block holds |S|^2, that M and the operator-norm bound both reduce."""
        if (s, radius) not in self._translate_pairs:
            rows = self.translate_rows(s, range(self.ball.scan_size(radius, "pair")))
            self._translate_pairs[s, radius] = frozenset(p for f, m in rows for p in zip(f, m))
        return self._translate_pairs[s, radius]

    def value(self, i: int, j: int) -> float:
        return self.row(i, j, j + 1)[0] / 2.0

    def exact(self, i: int, j: int) -> Fraction:
        return Fraction(self.row(i, j, j + 1)[0], 2)


# kernel_dump's ",{K}\n" by 2K: exact kernels take few distinct values, so
# each is rendered once
_LABELS: dict[int, str] = {}


def kernel_dump(kernel: DisplacementKernel, rows=None, size=None) -> str:
    """Kernel CSV lines of the given rows (all by default) of the principal
    block over the first ``size`` elements (all by default): one line per
    pair i <= j, indices in ball ordering, values as exact fractions; the
    header ``i,j,K`` comes with row 0.  Concatenating the dumps of rows
    0..size-1 gives the whole file, so it can be written a row at a time.
    Ball elements come in order of length and a walked row does not depend
    on the ball around it, so the block over the ball of a smaller radius is
    that radius's kernel."""
    if size is None:
        size = kernel.n
    if rows is None:
        rows = range(size)
    chunks = []
    for i in rows:
        if i == 0:
            chunks.append("i,j,K\n")
        twice = kernel.row(i, i, size)
        for t in set(twice).difference(_LABELS):
            _LABELS[t] = f",{Fraction(t, 2)}\n"
        # one format call renders the row's lines "{i},{j},{K}\n", no str per j
        fields = [None] * (2 * len(twice))
        fields[::2] = range(i, size)
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


def walked_slots(ball: CayleyBall, i: int, antisymmetrized: bool) -> Iterable[tuple[int, int]]:
    """The doubled chain 2 q[e, x] of element i as (edge id, coefficient)
    pairs, walked on the ball's multiplication table from e along x's
    canonical word and, when antisymmetrized, back from x along x^-1's: edge
    t = source index * k + generator (k generators).  Both walks are
    geodesics in the ball, so an edge carries +-1 or +-2 (the signed number
    of slots it fills), and the edges come in the word chain's order."""
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
        walk(i, ball.name_step("", invert(word)), -1)
    else:
        walk(0, word, 2)
    return doubled.items()


@functools.cache
def _twice_overlap(f: int) -> tuple[int, ...]:
    """2 <J(f), J(g)> for every signed byte g, indexed by g itself (a negative
    g from the end): 2 min(|f|, |g|) where f and g share a sign, else 0."""
    return tuple(2 * min(abs(f), abs(g)) if f * g > 0 else 0
                 for g in itertools.chain(range(128), range(-128, 0)))


class SlotEmbedding:
    """Integer chains as the rows of F, one signed byte per edge: row i holds
    ``vals[ptr[i]:ptr[i+1]]`` in columns ``cols[ptr[i]:ptr[i+1]]``, column c
    ``col_vals[col_ptr[c]:col_ptr[c+1]]`` in rows ``col_rows[col_ptr[c]:col_ptr[c+1]]``,
    and ``norms[i]`` is |F_i|_1.  Rows come as (non-negative integer key, nonzero
    coefficient) pairs, a coefficient outside -128..127 raising ``OverflowError``,
    and are read once: one flat key table numbers the keys as columns in order
    of first appearance, and a counting pass from ``col_ptr`` then fills the
    column-major copy, so the build holds F, the key table and one column cursor."""

    def __init__(self, rows: Iterable[Iterable[tuple[int, int]]]):
        # rows may be a generator: each is numbered and dropped in turn
        table = array("i")  # key -> column, -1 until the key appears
        cols, vals, norms, ptr = array("i"), array("b"), array("q"), array("q", [0])
        width = 0  # columns numbered so far
        for entries in rows:
            for key, f in entries:
                try:
                    c = table[key]
                except IndexError:
                    table.extend(array("i", [-1]) * (key + 1 - len(table)))
                    c = -1
                if c < 0:
                    c = table[key] = width
                    width += 1
                cols.append(c)
                vals.append(f)
            norms.append(sum(map(abs, vals[ptr[-1]:])))
            ptr.append(len(cols))
        del table
        self.cols, self.vals, self.norms, self.ptr = cols, vals, norms, ptr
        counts = array("q", [0]) * width  # entries per column
        for c in cols:
            counts[c] += 1
        self.col_ptr = array("q", itertools.accumulate(counts, initial=0))
        # counting pass, counts now each column's fill cursor: rows are read in
        # order, so each column lists its rows in increasing order
        self.col_rows, self.col_vals = array("i", [0]) * len(cols), array("b", [0]) * len(cols)
        counts = self.col_ptr[:-1]
        for i in range(len(norms)):
            for c, f in self._entries(i):
                self.col_rows[counts[c]], self.col_vals[counts[c]] = i, f
                counts[c] += 1

    def _entries(self, i: int):
        a, b = self.ptr[i], self.ptr[i + 1]
        return zip(self.cols[a:b], self.vals[a:b])

    def upper_rows(self, rows):
        """Row k of 2K[rows, rows] over rows[k+1:], exact |F_i|_1 + |F_j|_1 -
        2 <J(F_i), J(F_j)>, yielded in turn: row k, the first left in the
        increasing holder list of each of its columns, drops itself and takes
        its overlap off the rest, so the work grows with the block, not the ball."""
        norms = self.norms
        holders: dict[int, list[tuple[int, int]]] = {}  # column -> (position, entry)
        for b, j in enumerate(rows):
            for c, g in self._entries(j):
                holders.setdefault(c, []).append((b, g))
        col_norms = [norms[j] for j in rows]
        for k, i in enumerate(rows, 1):
            out = [norms[i] + t for t in col_norms[k:]]
            for c, f in self._entries(i):
                held, twice = holders[c], _twice_overlap(f)
                del held[0]
                for b, g in held:
                    out[b - k] -= twice[g]
            yield out

    def form(self, pairs) -> Fraction:
        """1/2 |sum c_i J(F_i)|^2 over (row index, coefficient) pairs, exact for
        int and ``Fraction`` c_i, a repeated index adding up: entry f of column
        c fills J's slot levels f..-1, or 0..f-1, of the column with the sign of
        f, so each slot adds the square of its rows' sum of c_i.  For mean-zero
        c this is -1/4 sum c_i c_j 2K(i, j) (Schoenberg), never negative."""
        sums: dict[int, Rational] = {}  # slot 256 col + level -> sum of c_i
        for i, c in pairs:
            for col, f in self._entries(i):
                col <<= 8
                for level in range(f, 0) or range(f):
                    sums[col + level] = sums.get(col + level, 0) + c
        return Fraction(sum(t * t for t in sums.values()), 2)

    def row(self, i: int, lo: int = 0, hi: int | None = None) -> list[int]:
        """Row i of 2K over j in lo..hi-1 (every j by default), as one list of
        ints: entry j loses twice its overlap with F_i in each column it shares
        with F_i (few columns), whose increasing rows are bisected to the range."""
        col_ptr, col_rows, col_vals = self.col_ptr, self.col_rows, self.col_vals
        norm = self.norms[i]
        out = [norm + t for t in memoryview(self.norms)[lo:hi]]
        hi = lo + len(out)
        for c, f in self._entries(i):
            twice = _twice_overlap(f)
            start = bisect_left(col_rows, lo, col_ptr[c], col_ptr[c + 1])
            end = bisect_left(col_rows, hi, start, col_ptr[c + 1])
            for j, g in zip(col_rows[start:end], col_vals[start:end]):
                out[j - lo] -= twice[g]
        return out

    def defect(self) -> str | None:
        """Why F's arrays are no integer matrix with its exact transpose, or
        None, in O(nnz): row entries nonzero, in distinct columns in range,
        their absolute sum ``norms[i]``, and ``col_rows``/``col_vals`` exactly
        the (i, F_ic) of ``cols``/``vals`` in row order.  Then every read is
        |F_i - F_j|_1 = |J(F_i) - J(F_j)|^2, so 2K is of negative type (Schoenberg)."""
        col_ptr, col_rows, col_vals = self.col_ptr, self.col_rows, self.col_vals
        width, cursor = len(col_ptr) - 1, col_ptr[:-1]  # each column's next entry
        for i, norm in enumerate(self.norms):
            row = list(self._entries(i))
            if len({c for c, _ in row}) != len(row):
                return f"F row {i} repeats a column"
            for c, f in row:
                if not f:
                    return f"F row {i} has a zero entry in column {c}"
                if not 0 <= c < width:
                    return f"F row {i} has column {c}, outside 0..{width - 1}"
                k = cursor[c]
                if k >= col_ptr[c + 1] or col_rows[k] != i:
                    return f"F column {c} does not list row {i} in row order"
                if col_vals[k] != f:
                    return f"F column {c} lists row {i} with entry {col_vals[k]}, not {f}"
                cursor[c] = k + 1
            if (total := sum(abs(f) for _, f in row)) != norm:
                return f"F row {i} has |F_{i}|_1 = {total}, not norms[{i}] = {norm}"
        c = next((c for c in range(width) if cursor[c] != col_ptr[c + 1]), None)
        return None if c is None else f"F column {c} lists rows outside F's rows"


def kernel_from_bicombing(spec: BicombingSpec) -> DisplacementKernel:
    """Kernel K(x, y) = ||q[e,x] - q[e,y]||_1 over the combing's ball, exact
    through the doubled chains, whose rows are walked on the ball's table
    with no word-problem call.  Only F is built here; the displacement
    constant is measured when it is first read."""
    b = spec.ball
    rows = (walked_slots(b, i, spec.antisymmetrized) for i in range(len(b)))
    return DisplacementKernel(ball=b, embedding=SlotEmbedding(rows), bicombing=spec)


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
    return area(spec, spec.ball.name_step("", invert(s)), x, y), area(spec, y, x, "")


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
    indices, words = list(indices), kernel.ball.elements
    rows = kernel.translate_rows(s, indices)
    return [DecompositionRow(words[a], words[b], Fraction(t - u, 2),
                             *two_triangle_bound(spec, s, words[a], words[b]))
            for k, (a, (fixed, moved)) in enumerate(zip(indices, rows), 1)
            for b, u, t in zip(indices[k:], fixed, moved)]


def empirical_displacement_constant(kernel: DisplacementKernel, s_radius: int,
                                    pair_radius: int) -> float:
    """Two-sided displacement bound max |K(sx, sy) - K(x, y)| over s in the
    s_radius ball and pairs in the pair_radius ball.  Two-sidedness makes
    sqrt(M/2) + 1 a valid uniform bound on the scanned range."""
    b = kernel.ball
    n_s, _ = b.scan_size(s_radius, "s"), b.scan_size(pair_radius, "pair")
    b.scan_size(s_radius + pair_radius, f"scan split ({s_radius}, {pair_radius})")
    # element 0 is the identity, whose translates are the pairs themselves
    return max((abs(t - u) for s in b.elements[1:n_s]
                for u, t in kernel.translate_pairs(s, pair_radius)), default=0) / 2.0


# -- conditional negative definiteness ----------------------------------------


def centered_min_eigenvalue(matrix: np.ndarray) -> float:
    """Minimum eigenvalue of -matrix/2 restricted to mean-zero vectors; up to
    float rounding it is nonnegative exactly when the matrix is conditionally
    negative definite.  The float ``matrix`` is overwritten: it is scaled in
    place, then reflected in place by the Householder reflection H that swaps
    e_0 with the unit all-ones vector, so that rows and columns 1.. of H A H
    hold A on the mean-zero vectors (the orthonormal basis He_1, ...,
    He_{n-1})."""
    import numpy as np

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
    import numpy as np

    if indices is None:
        indices = range(kernel.n)
    return centered_min_eigenvalue(np.array(kernel.entries(indices, indices)) / 2.0)


# -- cross validation ---------------------------------------------------------


def kernel_cross_validate(kernel: DisplacementKernel, radius: int | None = None) -> Fraction:
    """Max discrepancy between the kernel's values and direct chain arithmetic
    ||q[e,x] - q[e,y]||_1 of its own combing over the pairs within ``radius``
    (the ball's by default); both are exact, so any nonzero discrepancy
    raises.  An orbit kernel has no combing to check against."""
    spec, b = kernel.bicombing, kernel.ball
    if spec is None:
        raise ValueError("cross-validation requires a combing-backed kernel")
    n = b.scan_size(radius, "cross-validation")
    chains = [combing_chain(spec, "", b.elements[i]) for i in range(n)]
    worst = max((abs(Fraction(t, 2) - (chains[i] - chains[j]).l1_norm()) for i in range(n)
                 for j, t in enumerate(kernel.row(i, i + 1, n), i + 1)),
                default=Fraction(0))
    if worst:
        raise AssertionError(f"cross-validation discrepancy {worst} is not 0")
    return worst
