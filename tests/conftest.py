import pytest

from l1comb import (
    GroupPresentation,
    ball,
    kernel_from_bicombing,
    make_bicombing,
)

SWAP_RULES = tuple((x + y, y + x) for x in "cCdD" for y in "aAbB")


def serve_rows(kernel, entries):
    """Make ``kernel`` serve rows of 2K with ``entries[i, j]`` in place of its
    own values at (i, j); every read of 2K goes through ``kernel.row``, and
    ``del kernel.row`` restores the rows the kernel evaluates from F."""
    row = kernel.row

    def served(i):
        out = row(i)
        for (r, j), value in entries.items():
            if r == i:
                out[j] = value
        return out

    kernel.row = served
    return kernel


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
