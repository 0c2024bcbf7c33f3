from fractions import Fraction

import pytest

from l1comb import (
    GroupPresentation,
    ball,
    kernel_from_bicombing,
    make_bicombing,
)
from l1comb.bicombing import Chain1, L1Vector
from l1comb.groups import invert
from l1comb.kernel import DisplacementKernel

SWAP_RULES = tuple((x + y, y + x) for x in "cCdD" for y in "aAbB")


class NonIntegralChainError(ValueError):
    """The slot embedding is defined on integer chains only."""


def feature_embed(chain):
    """The slot embedding J of an integer chain, the tests' second construction
    of F's rows: edge value a > 0 fills slots 1..a of the edge with +1, a < 0
    fills slots a+1..0 with -1.  Signed slots of opposite sign never share a
    key, so ||J(u) - J(w)||^2 = ||u - w||_1, and inner products (:func:`dot`)
    are integer-exact."""
    slots = {}
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


def _oracle_path(spec, x, y, acc, factor):
    """Add ``factor`` times the geodesic path chain from x to y into ``acc``,
    dropping zeros as it goes."""
    ball = spec.ball
    base = x == ""
    z = ball.name(y) if base else ball.name_step("", invert(x) + y)
    cur = x
    for ch in z:
        nxt = cur + ch if base else ball.name_step(cur, ch)
        edge, coeff = ((cur, ch), factor) if ch.islower() else ((nxt, ch.lower()), -factor)
        v = acc.get(edge, 0) + coeff
        if v:
            acc[edge] = v
        else:
            acc.pop(edge, None)
        cur = nxt


def oracle_chain(spec, x, y):
    """The tests' second construction of the combing chain q[x, y] itself,
    not doubled: +-1 on a path's edges, and (q[x,y] - q[y,x]) / 2 in
    half-integer ``Fraction``s when antisymmetrized."""
    acc = {}
    if x != y and spec.antisymmetrized:
        _oracle_path(spec, x, y, acc, Fraction(1, 2))
        _oracle_path(spec, y, x, acc, Fraction(-1, 2))
    elif x != y:
        _oracle_path(spec, x, y, acc, 1)
    return Chain1._wrap(acc)


def oracle_area(spec, x, y, z):
    """The triangle defect ||q[x,y] + q[y,z] + q[z,x]||_1 of the oracle chains,
    an exact rational."""
    return (oracle_chain(spec, x, y) + oracle_chain(spec, y, z)
            + oracle_chain(spec, z, x)).l1_norm()


def dot(u, w):
    """The inner product of two L1Vectors, summed over the smaller support."""
    a, b = u.coeffs, w.coeffs
    if len(b) < len(a):
        a, b = b, a
    return sum(c * b.get(key, 0) for key, c in a.items())


def scale(v, factor):
    """``factor`` times the L1Vector ``v``, of ``v``'s own type."""
    return v._wrap({key: c * factor for key, c in v.coeffs.items()} if factor else {})


def serve_rows(kernel, entries):
    """A new kernel over ``kernel``'s F that serves 2K with ``entries[i, j]``
    in place of the entry (i, j), on top of the entries ``kernel`` serves,
    through every read of 2K; ``kernel`` itself is left as it was."""
    return DisplacementKernel(kernel.ball, kernel.embedding, kernel.bicombing,
                              {**kernel.overrides, **entries})


@pytest.fixture(scope="session")
def f2():
    return GroupPresentation(("a", "b"))


@pytest.fixture(scope="session")
def f2_ball4(f2):
    return ball(f2, 4)


@pytest.fixture(scope="session")
def f2_ball5(f2):
    return ball(f2, 5)


@pytest.fixture(scope="session")
def tree_spec(f2_ball4):
    return make_bicombing("tree_geodesic", f2_ball4)


@pytest.fixture(scope="session")
def tree_kernel(tree_spec):
    return kernel_from_bicombing(tree_spec)


@pytest.fixture(scope="session")
def surface():
    return GroupPresentation(("a", "b", "c", "d"), ("abABcdCD",), "dehn")


@pytest.fixture(scope="session")
def surface_ball4(surface):
    return ball(surface, 4)


@pytest.fixture(scope="session")
def surface_anti(surface_ball4):
    return make_bicombing("shortlex_antisymmetrized", surface_ball4)


@pytest.fixture(scope="session")
def surface_kernel(surface_anti):
    return kernel_from_bicombing(surface_anti)


@pytest.fixture(scope="session")
def f2xf2():
    return GroupPresentation(
        ("a", "b", "c", "d"),
        ("acAC", "adAD", "bcBC", "bdBD"),
        "rewriting",
        SWAP_RULES,
    )


@pytest.fixture(scope="session")
def f2xf2_ball3(f2xf2):
    return ball(f2xf2, 3)
