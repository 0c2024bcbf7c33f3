"""Isometric actions on trees and validated quasi-tree kernel inputs.

A tree action is presented by a homomorphism from the source group to a free
group acting on its own Cayley tree; the doubled tree paths from e to the
orbit of e are the rows of a displacement kernel, whose measured constant is
0 (the action is isometric).  Its cocycle rows come from
:func:`l1comb.espace.properness_report`, with the l1 part 2 as their lower
bound, and the growth verdict is decided exactly on the integers 2K(s, e).
Quasi-tree geometry enters only through user-supplied kernels checked
against the sandwich d - Delta <= K <= d and conditional negative
definiteness.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ._numpy import np
from .groups import (
    CayleyBall,
    GroupPresentation,
    free_reduce,
    invert,
)
from .kernel import DisplacementKernel, SlotEmbedding, centered_min_eigenvalue
from .espace import NormReport, properness_report


class ActionError(ValueError):
    """Invalid action description (not a homomorphism, bad letters...)."""


class TreeActionSpec:
    """Homomorphism to a free group, acting on that group's Cayley tree with
    basepoint e.  Validated so that every source relator maps to a word that
    freely reduces to the identity."""

    def __init__(self, presentation: GroupPresentation, target_rank: int,
                 images: dict[str, str]):
        self.presentation = presentation
        self.target_rank = target_rank
        self.images = images
        if self.target_rank < 1:
            raise ActionError("target rank must be >= 1")
        target_letters = set(_target_alphabet(self.target_rank))
        for g in self.presentation.generators:
            if g not in self.images:
                raise ActionError(f"no image given for generator {g!r}")
        for g, img in self.images.items():
            if g not in self.presentation.generators:
                raise ActionError(f"image given for unknown generator {g!r}")
            for ch in img:
                if ch not in target_letters:
                    raise ActionError(
                        f"image of {g!r} uses letter {ch!r} outside the rank-"
                        f"{self.target_rank} target alphabet"
                    )
        for rel in self.presentation.relators:
            if free_reduce(self.apply(rel)) != "":
                raise ActionError(
                    f"not a homomorphism: relator {rel!r} maps to "
                    f"{free_reduce(self.apply(rel))!r}, not the identity"
                )

    def apply(self, word: str) -> str:
        """Image of a source word in the target free group (freely reduced)."""
        out = []
        for ch in word:
            img = self.images[ch.lower()]
            out.append(img if ch.islower() else invert(img))
        return free_reduce("".join(out))


def _target_alphabet(rank: int) -> str:
    letters = "abcdfghijklmnopqrstuvwxyz"  # 'e' stays reserved for the identity
    if rank > len(letters):
        raise ActionError(f"target rank {rank} exceeds the supported alphabet")
    return "".join(letters[i] + letters[i].upper() for i in range(rank))


def parse_action(text: str, presentation: GroupPresentation) -> TreeActionSpec:
    """Parse the action format: a ``target_rank: k`` line followed by one
    ``g -> word`` line per source generator (``e`` or an empty right side is
    the identity).  Comments start with ``#``."""
    rank = None
    images: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("target_rank:"):
            if rank is not None:
                raise ActionError("target_rank specified twice")
            try:
                rank = int(line.split(":", 1)[1])
            except ValueError:
                raise ActionError(f"bad target_rank line {line!r}") from None
            continue
        if "->" not in line:
            raise ActionError(f"action line {line!r} lacks '->'")
        gen, _, img = line.partition("->")
        gen = gen.strip()
        img = img.strip()
        if img == "e":
            img = ""
        if gen in images:
            raise ActionError(f"image of {gen!r} specified twice")
        images[gen] = img
    if rank is None:
        raise ActionError("missing target_rank: line")
    return TreeActionSpec(presentation=presentation, target_rank=rank, images=images)


def orbit_kernel(action: TreeActionSpec, ball: CayleyBall) -> DisplacementKernel:
    """K(s, t) = tree distance between the images of s and t: the reduced word
    length of phi(s)^-1 phi(t).  Row s of F is the doubled tree geodesic
    2 q[e, phi(s)]: two slots for each vertex v != e on phi(s)'s reduced
    path, those of the edge into v, which every path through v crosses away
    from e, so each column has one sign.  The displacement constant is
    measured over the kernel's scan split when first read; the action is
    isometric, so it reads 0."""
    first_slot: dict[str, int] = {}  # tree vertex != e -> its edge's first key

    def doubled_path(word: str) -> list[int]:
        image = action.apply(word)
        keys = []
        for k in range(1, len(image) + 1):
            key = first_slot.setdefault(image[:k], 2 * len(first_slot))
            keys += (key, key + 1)
        return keys

    return DisplacementKernel(ball, SlotEmbedding(map(doubled_path, ball.elements)),
                              ball.radius)


# -- quasi-tree kernel inputs ---------------------------------------------------


class QuasiTreeKernelInput(NamedTuple):
    """Pairwise kernel data on labeled elements with a declared displacement
    constant, to be checked against d - delta <= K <= d."""

    labels: tuple[str, ...]
    distances: dict[tuple[str, str], float]
    kernel_values: dict[tuple[str, str], float]
    delta: float = 0.0


def _finite(text: str, name: str, line: str) -> float:
    # comparisons with nan are all false, so a nan would pass every check
    value = float(text)
    if not math.isfinite(value):
        raise ActionError(f"{name} {text!r} in {line!r} is not finite")
    return value


def parse_quasitree_csv(text: str) -> QuasiTreeKernelInput:
    """Parse the quasi-tree kernel format: one ``delta: value`` header line,
    the column header ``x,y,d,K``, then one pair per row, at least one.  Every
    unordered pair of the labels appearing must be present exactly once, and
    no row may pair a label with itself; ``d``, ``K`` and ``delta`` must be
    finite numbers and ``delta`` nonnegative."""
    delta = None
    rows = []
    saw_header = False
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("delta:"):
            if delta is not None:
                raise ActionError("delta specified twice")
            delta = _finite(line.split(":", 1)[1].strip(), "delta", line)
            if delta < 0:
                raise ActionError(f"delta must be nonnegative, got {delta}")
            continue
        if line.replace(" ", "") == "x,y,d,K":
            saw_header = True
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 4:
            raise ActionError(f"bad kernel row {line!r}")
        x, y, d, k = parts
        if x == y:
            raise ActionError(f"row {line!r} pairs {x!r} with itself")
        rows.append((x, y, _finite(d, "d", line), _finite(k, "K", line)))
    if delta is None:
        raise ActionError("missing delta: header line")
    if not saw_header:
        raise ActionError("missing x,y,d,K column header")
    if not rows:
        raise ActionError("no pair rows: nothing to check")
    # labels in order of first appearance
    labels = tuple(dict.fromkeys(lbl for x, y, _, _ in rows for lbl in (x, y)))
    distances: dict[tuple[str, str], float] = {}
    kernel_values: dict[tuple[str, str], float] = {}
    for x, y, d, k in rows:
        key = (x, y) if x <= y else (y, x)
        if key in kernel_values:
            raise ActionError(f"pair ({x!r}, {y!r}) given twice")
        distances[key] = d
        kernel_values[key] = k
    for i, x in enumerate(labels):
        for y in labels[i + 1:]:
            key = (x, y) if x <= y else (y, x)
            if key not in kernel_values:
                raise ActionError(f"missing kernel row for pair ({x!r}, {y!r})")
    return QuasiTreeKernelInput(
        labels=labels, distances=distances, kernel_values=kernel_values,
        delta=delta,
    )


class QuasiTreeReport(NamedTuple):
    passed: bool
    failures: list[str]
    min_eigenvalue: float
    delta: float


def validate_quasitree_kernel(data: QuasiTreeKernelInput,
                              tolerance: float = 1e-9) -> QuasiTreeReport:
    """Check the sandwich d - delta <= K <= d on every pair and conditional
    negative definiteness (centered minimum eigenvalue >= -tolerance).  The
    declared delta is recorded as-is."""
    failures: list[str] = []
    labels = data.labels
    n = len(labels)
    mat = np.zeros((n, n))
    for i, x in enumerate(labels):
        for j, y in enumerate(labels[i + 1:], start=i + 1):
            key = (x, y) if x <= y else (y, x)
            k = data.kernel_values[key]
            d = data.distances[key]
            mat[i, j] = mat[j, i] = k
            if k > d + 1e-12:
                failures.append(f"upper bound violated on ({x!r}, {y!r}): K={k} > d={d}")
            if k < d - data.delta - 1e-12:
                failures.append(
                    f"lower bound violated on ({x!r}, {y!r}): K={k} < d - delta = {d - data.delta}"
                )
            if k < 0:
                failures.append(f"negative kernel value on ({x!r}, {y!r})")
    min_eig = float("nan")
    if n < 2:
        failures.append(f"{n} label(s): the checks need at least two")
    else:
        min_eig = centered_min_eigenvalue(mat)
        if min_eig < -tolerance:
            failures.append(
                f"conditional negative definiteness fails: centered min eigenvalue {min_eig}"
            )
    return QuasiTreeReport(
        passed=not failures,
        failures=failures,
        min_eigenvalue=min_eig,
        delta=data.delta,
    )


# -- orbit growth -----------------------------------------------------------------


class GrowthReport(NamedTuple):
    norm_report: NormReport
    verdict: str
    fitted_constant: float
    sphere_maxima: dict[int, float]


def orbit_growth_report(kernel: DisplacementKernel,
                        element_filter=None) -> GrowthReport:
    """Cocycle growth along orbits: the rows of
    :func:`l1comb.espace.properness_report`, ||b(s)||_E = sqrt(K(s, e)) + 2,
    and a verdict.  It reads "unbounded on scanned range" when every scanned
    sphere holds an s with 2K(s, e) > 0, otherwise "bounded on scanned range";
    the verdict only ever speaks about the scanned range.  The fitted
    constant is the largest c with max_{|s|=n} ||b(s)||_E >= sqrt(c n) + 2 on
    every scanned sphere."""
    report = properness_report(kernel, element_filter)
    maxima = report.sphere_maxima()
    # norm_f = sqrt(2K(s, e) / 2) is positive exactly when the integer 2K(s, e) is
    growing = {row.distance for row in report.rows if row.norm_f > 0}
    verdict = "unbounded" if maxima and growing == maxima.keys() else "bounded"
    fitted = min(((m - 2.0) ** 2 / r for r, m in maxima.items()), default=0.0)
    return GrowthReport(
        norm_report=report, verdict=f"{verdict} on scanned range",
        fitted_constant=fitted, sphere_maxima=maxima,
    )
