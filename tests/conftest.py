"""Shared test oracles, kept independent of the library's enumeration code."""

from math import factorial

import pytest
from hypothesis import strategies as st

from loopminors.partitions import conjugate


def delta_partition_type(module) -> tuple:
    """Jordan type of delta = alpha + beta, via ranks of its powers.

    delta is the partial map ``module.left`` on the boxes, and a 0/1 matrix
    with at most one 1 per column has rank the size of its image, so delta^j
    has rank r_j = |delta^j(boxes)|.  The drop r_{j-1} - r_j counts the
    Jordan blocks of size >= j, so the drops are the conjugate of the type.
    """
    image, ranks = set(module.boxes), []
    while image:
        ranks.append(len(image))
        image = {module.left[box] for box in image if box in module.left}
    return conjugate(tuple(a - b for a, b in zip(ranks, ranks[1:] + [0])))


def named_arrows(module) -> dict:
    """The arrows the ``module`` command prints, as {(name, source box): target box}."""
    return {(name, tuple(src)): tuple(dst) for src, name, dst in module.to_json()["arrows"]}


def sorted_terms(poly) -> list:
    """A MultiPoly's (exponent tuple, coefficient) pairs, in descending lexicographic order."""
    return sorted(zip(poly._exponents(), poly.terms.values()), reverse=True)


def hook_length_count(lam) -> int:
    """Number of standard tableaux by the hook-length product formula."""
    lam = tuple(lam)
    n = sum(lam)
    if n == 0:
        return 1
    product = 1
    for s in range(len(lam)):
        for t in range(lam[s]):
            arm = lam[s] - t - 1
            leg = sum(1 for r in range(s + 1, len(lam)) if lam[r] > t)
            product *= arm + leg + 1
    return factorial(n) // product


@st.composite
def partition_strategy(draw, max_size=6):
    n = draw(st.integers(min_value=0, max_value=max_size))
    parts = []
    remaining = n
    cap = n
    while remaining > 0:
        p = draw(st.integers(min_value=1, max_value=min(cap, remaining)))
        parts.append(p)
        cap = p
        remaining -= p
    return tuple(parts)


@st.composite
def word_strategy(draw, max_length=6):
    length = draw(st.integers(min_value=1, max_value=max_length))
    start = draw(st.integers(min_value=0, max_value=1))
    return tuple((start + t) % 2 for t in range(length))


@pytest.fixture
def golden_word():
    return (1, 0, 1, 0)


@pytest.fixture
def golden_shape():
    return (2, 1)
