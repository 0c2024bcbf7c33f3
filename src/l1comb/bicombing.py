"""Combings as equivariant 1-chains on Cayley graphs, with exact arithmetic.

A combing assigns to each ordered vertex pair (x, y) a 1-chain q[x, y] whose
boundary is y - x.  :class:`L1Vector` is the package's one finitely supported
l1 vector: chains (:class:`Chain1`) are L1Vectors over canonically oriented
edges (source word, lowercase generator), and the mean-zero vectors of E
(``espace.EVector``) are L1Vectors over group elements.
Antisymmetrized combings take half-integer values, so a chain holds the
doubled combing 2 q as ints, as the kernel's rows do (``kernel.walked_slots``):
+-2 on a path's edges, or +1 along the path from x to y and -1 back from y to
x when antisymmetrized.  Boundaries, l1 norms and triangle areas are exact
ints, halved only where a value is reported.

Vertices are named by the combing's Cayley ball alone: a path follows the
canonical geodesic :meth:`CayleyBall.name` gives, and every vertex off the
identity's paths gets its word from :meth:`CayleyBall.name_step`, which
reads it off the ball's multiplication table while the path stays in the
ball, so the chains q[x, y] = x . q[e, x^-1 y] cancel exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from .groups import CayleyBall, GroupPresentation, invert

Edge = tuple[str, str]  # (source vertex word, lowercase generator letter)

KINDS = ("tree_geodesic", "shortlex", "shortlex_antisymmetrized")


def _add_coeff(acc: dict, key, value) -> None:
    """Add ``value`` at ``key`` of a sparse coefficient dict, dropping zeros."""
    v = acc.get(key, 0) + value
    if v:
        acc[key] = v
    else:
        acc.pop(key, None)


class L1Vector:
    """Finitely supported vector in l1 of a countable set: a coefficient dict
    with zeros dropped.  Arithmetic keeps the coefficients' own number type,
    so integer and Fraction vectors stay exact."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict | None = None):
        self.coeffs = {key: c for key, c in (coeffs or {}).items() if c}

    @classmethod
    def _wrap(cls, coeffs: dict):
        """Vector over ``coeffs`` as given: no zero dropping, no validation."""
        out = object.__new__(cls)
        out.coeffs = coeffs
        return out

    def __eq__(self, other):
        return type(other) is type(self) and self.coeffs == other.coeffs

    def __repr__(self):
        return f"{type(self).__name__}({self.coeffs!r})"

    def __add__(self, other):
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            _add_coeff(out, key, c)
        return self._wrap(out)

    def __neg__(self):
        return self._wrap({key: -c for key, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def l1_norm(self):
        return sum(abs(c) for c in self.coeffs.values())


class Chain1(L1Vector):
    """Finitely supported 1-chain on oriented edges."""

    __slots__ = ()


def boundary(chain: Chain1, ball: CayleyBall) -> dict[str, int]:
    """Boundary 0-chain: +coefficient at the edge target, -coefficient at the
    source.  Vertex names come from the ball's canonical naming."""
    acc: dict[str, int] = {}
    for (src, g), c in chain.coeffs.items():
        _add_coeff(acc, ball.name_step(src, g), c)
        _add_coeff(acc, src, -c)
    return acc


class BicombingSpec:
    """A pluggable combing bound to a presentation and a working ball.

    ``tree_geodesic`` follows unique free-group geodesics; ``shortlex`` follows
    the shortlex-least geodesic normal form (ball-relative in dehn mode, where
    normal forms are only canonical inside the enumerated ball);
    ``shortlex_antisymmetrized`` averages q[x,y] against -q[y,x].
    """

    def __init__(self, kind: str, ball: CayleyBall):
        self.kind = kind
        self.ball = ball
        if self.kind not in KINDS:
            raise ValueError(f"unknown bicombing kind {self.kind!r}")
        mode = self.presentation.reduction_mode
        if self.kind == "tree_geodesic" and mode != "free":
            raise ValueError("tree_geodesic requires a free presentation")

    @property
    def presentation(self) -> GroupPresentation:
        return self.ball.presentation

    @property
    def antisymmetrized(self) -> bool:
        return self.kind == "shortlex_antisymmetrized"


def make_bicombing(kind: str, ball: CayleyBall) -> BicombingSpec:
    return BicombingSpec(kind, ball)


def antisymmetrize(spec: BicombingSpec) -> BicombingSpec:
    """Combing with chains (q[x,y] - q[y,x]) / 2; exact antisymmetry by
    construction.  Tree geodesics are already antisymmetric but gain nothing
    and lose nothing from the averaging."""
    if spec.antisymmetrized:
        return spec
    return BicombingSpec("shortlex_antisymmetrized", spec.ball)


def _raw_accumulate(spec: BicombingSpec, x: str, y: str,
                    acc: dict[Edge, int], step: int) -> None:
    """Add ``step`` times the geodesic path chain from x to y into ``acc``;
    an edge the sum cancels stays in ``acc`` at 0."""
    ball = spec.ball
    base = x == ""
    # from e the path follows y's own word, which keeps cross-validation's
    # chains independent of the table; otherwise x^-1 y is walked on it
    z = ball.name(y) if base else ball.name_step("", invert(x) + y)
    # canonical geodesics are freely reduced and their prefixes canonical,
    # so from e each prefix of z already names its vertex
    cur = x
    for ch in z:
        nxt = cur + ch if base else ball.name_step(cur, ch)
        if ch.islower():
            edge = (cur, ch)
            acc[edge] = acc.get(edge, 0) + step
        else:
            edge = (nxt, ch.lower())
            acc[edge] = acc.get(edge, 0) - step
        cur = nxt


def _accumulate(spec: BicombingSpec, x: str, y: str, acc: dict[Edge, int]) -> None:
    """Add the doubled chain 2 q[x, y] into ``acc``."""
    if x == y:
        return
    if spec.antisymmetrized:
        _raw_accumulate(spec, x, y, acc, 1)
        _raw_accumulate(spec, y, x, acc, -1)
    else:
        _raw_accumulate(spec, x, y, acc, 2)


def combing_chain(spec: BicombingSpec, x: str, y: str) -> Chain1:
    """The doubled chain 2 q[x, y] = x . 2 q[e, x^-1 y] as ints, zeros dropped;
    equivariant by construction and with boundary 2 y - 2 x."""
    acc: dict[Edge, int] = {}
    _accumulate(spec, x, y, acc)
    return Chain1(acc)


def translate_chain(s: str, chain: Chain1, ball: CayleyBall) -> Chain1:
    """Left translation: relabel each edge (x, g) to (s x, g).  The relabeling
    is bijective, so the l1 norm is preserved exactly."""
    return Chain1._wrap({
        (ball.name(s + src), g): c for (src, g), c in chain.coeffs.items()
    })


def area(spec: BicombingSpec, x: str, y: str, z: str) -> int:
    """Twice the triangle defect ||q[x,y] + q[y,z] + q[z,x]||_1, an exact int."""
    acc: dict[Edge, int] = {}
    _accumulate(spec, x, y, acc)
    _accumulate(spec, y, z, acc)
    _accumulate(spec, z, x, acc)
    return sum(abs(c) for c in acc.values())


class TriplePolicy(NamedTuple):
    """Triple-scan policy: exhaustive below ``exhaustive_limit`` triples
    (ordered triples modulo cyclic rotation, degenerates included), seeded
    uniform sampling above."""

    exhaustive_limit: int = 200_000
    samples: int = 5000
    seed: int = 0


class AreaScanResult(NamedTuple):
    value: Fraction
    witness: tuple[str, str, str]
    triples_scanned: int
    exhaustive: bool


def _cyclic_triple_count(n: int) -> int:
    # triples (i, j, k) with i = min(i, j, k): sum over i of (n - i)^2
    return n * (n + 1) * (2 * n + 1) // 6


def empirical_area_constant(spec: BicombingSpec, radius: int | None = None,
                            policy: TriplePolicy = TriplePolicy()) -> AreaScanResult:
    """Maximum triangle area over the policy's triple set (the largest doubled
    area, halved), with the (lexicographically least) maximizing triple as witness."""
    ball = spec.ball
    n = ball.scan_size(radius, "area scan")
    elements = ball.elements
    best = 0
    witness = (0, 0, 0)
    exhaustive = _cyclic_triple_count(n) <= policy.exhaustive_limit
    scanned = 0
    # triples are visited in lexicographic order (exhaustive) or in seeded
    # order (sampled), so keeping the first maximizer is deterministic and,
    # for exhaustive scans, lexicographically least
    if exhaustive:
        triples = ((i, j, k) for i in range(n) for j in range(i, n) for k in range(i, n))
    else:
        rng = random.Random(policy.seed)
        triples = ((rng.randrange(n), rng.randrange(n), rng.randrange(n))
                   for _ in range(policy.samples))
    for i, j, k in triples:
        val = area(spec, elements[i], elements[j], elements[k])
        scanned += 1
        if val > best:
            best = val
            witness = (i, j, k)
    return AreaScanResult(
        value=Fraction(best, 2),
        witness=tuple(elements[t] for t in witness),
        triples_scanned=scanned,
        exhaustive=exhaustive,
    )


class QuasiGeodesicConstants(NamedTuple):
    lambda_emp: Fraction
    c_emp: Fraction
    pairs_scanned: int


def quasi_geodesic_constants(spec: BicombingSpec,
                             radius: int | None = None) -> QuasiGeodesicConstants:
    """Smallest (lambda, c) with d(x,y) <= ||q[x,y]||_1 <= lambda d(x,y) + c
    over scanned pairs.  By equivariance the scan reduces to pairs (e, z); the
    lower bound is asserted for every scanned pair (any chain with boundary
    z - e has l1 norm >= d(e, z)).  lambda is the largest ratio
    ||q[e,z]||_1 / d over the scan, so lambda d + 0 already bounds every
    scanned pair and c is always 0.  Doubled norms are compared with 2 d."""
    ball = spec.ball
    n = ball.scan_size(radius, "quasi-geodesic scan")
    lam = Fraction(1)
    for idx in range(1, n):
        z = ball.elements[idx]
        d = len(z)
        twice = combing_chain(spec, "", z).l1_norm()
        if twice < 2 * d:
            raise AssertionError(
                f"combing chain for {z!r} has l1 norm {Fraction(twice, 2)} below d = {d}"
            )
        lam = max(lam, Fraction(twice, 2 * d))
    return QuasiGeodesicConstants(lambda_emp=lam, c_emp=Fraction(0), pairs_scanned=n - 1)
