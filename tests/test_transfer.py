"""The transfer-matrix counts against the enumerators, which list every object.

``phi_polynomial`` and ``euler_char`` walk over shapes and ``lindstrom_minor``
over path levels; none lists a tableau or a family.  Here the enumerators are
the oracle: the content counts of ``enumerate_chess`` and the ascent tuples of
``enumerate_families`` must give the same polynomials, and
``enumerate_by_parity`` the same tableau counts.
"""

from collections import Counter
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from loopminors.multipoly import MultiPoly
from loopminors.networks import _ascent_counts, enumerate_families, lindstrom_minor
from loopminors.partitions import partitions_of, partitions_up_to, size, subpartitions
from loopminors.phi import euler_char, phi_polynomial
from loopminors.tableaux import (
    enumerate_by_parity,
    enumerate_chess,
    enumerate_standard,
    parity_string,
)

from conftest import sorted_terms


def alternating(length, start):
    return tuple((start + t) % 2 for t in range(length))


def families_oracle(word, mu, lam, i):
    counts = Counter(_ascent_counts(fam) for fam in enumerate_families(word, mu, lam, i))
    return MultiPoly(len(word), counts)


def chess_oracle(lam, i, word):
    istar = (i + word[0] + 1) % 2
    grouped = enumerate_chess(lam, istar, len(word))
    return MultiPoly(len(word), {j: len(tabs) for j, tabs in grouped.items()})


def assert_bound_covers_exponents(poly):
    assert all(e <= poly._bound for exps, _ in sorted_terms(poly) for e in exps)


def check_case(lam, mu, i, word):
    got = lindstrom_minor(word, mu, lam, i)
    assert got == families_oracle(word, mu, lam, i), (word, mu, lam, i)
    assert_bound_covers_exponents(got)
    if not mu:
        got = phi_polynomial(lam, i, word)
        assert got == chess_oracle(lam, i, word), (lam, i, word)
        assert_bound_covers_exponents(got)


def test_walks_match_the_enumerators_on_the_full_grid():
    cases = 0
    for lam in partitions_up_to(6):
        for mu in subpartitions(lam):
            for i in (0, 1):
                for length in range(1, 8):
                    for start in (0, 1):
                        check_case(lam, mu, i, alternating(length, start))
                        cases += 1 + (not mu)
    # 6,440 path cases and 840 chess cases
    assert cases == 7280


OFF_GRID_SHAPES = [lam for n in (7, 8, 9) for lam in partitions_of(n)]


@st.composite
def off_grid_cases(draw):
    lam = draw(st.sampled_from(OFF_GRID_SHAPES))
    mu = draw(st.sampled_from(subpartitions(lam)))
    i = draw(st.integers(0, 1))
    word = alternating(draw(st.integers(8, 10)), draw(st.integers(0, 1)))
    return lam, mu, i, word


@given(case=off_grid_cases())
@settings(max_examples=40, deadline=2000)
def test_walks_match_the_enumerators_off_the_grid(case):
    check_case(*case)


def test_parity_walk_matches_the_enumerator_on_every_parity_string():
    cases = realizable = 0
    for lam in partitions_up_to(6):
        for i in (0, 1):
            for d in product((0, 1), repeat=size(lam)):
                count = euler_char(lam, i, d)
                assert count == len(enumerate_by_parity(lam, i, d)), (lam, i, d)
                cases += 1
                realizable += count > 0
    assert cases == 2086
    # most strings fit no tableau, and the walk gives those 0
    assert realizable == 112


@st.composite
def parity_cases(draw):
    lam = draw(st.sampled_from(OFF_GRID_SHAPES))
    i = draw(st.integers(0, 1))
    if draw(st.booleans()):
        tableaux = enumerate_standard(lam)
        d = parity_string(tableaux[draw(st.integers(0, len(tableaux) - 1))], i)
    else:
        d = tuple(draw(st.lists(st.integers(0, 1), min_size=size(lam), max_size=size(lam))))
    return lam, i, d


@given(case=parity_cases())
@settings(max_examples=40, deadline=2000)
def test_parity_walk_matches_the_enumerator_off_the_grid(case):
    lam, i, d = case
    assert euler_char(lam, i, d) == len(enumerate_by_parity(lam, i, d))
