"""What the library builds through the trusted ``Value._made`` equals its rebuild through the
public constructor, which checks every field: the tableaux and path families of the
enumerators, and every Laurent polynomial of the loop kernel, entries and column steps alike.
The enumerators and the kernel build each object once without a check, so the checks run here.
"""

import random
from fractions import Fraction

import pytest

from loopminors.loop import LaurentPoly, generator, identity_loop, word_to_loop
from loopminors.multipoly import MultiPoly
from loopminors.networks import PathFamily, enumerate_families
from loopminors.partitions import partitions_up_to, size, subpartitions
from loopminors.tableaux import ChessTableau, StandardTableau, enumerate_chess, enumerate_standard
from loopminors.verify import all_words_up_to


def test_standard_tableaux_equal_their_rebuild():
    built = [T for lam in partitions_up_to(7) for T in enumerate_standard(lam)]
    assert len(built) == 1 + 1 + 2 + 4 + 10 + 26 + 76 + 232  # the involutions of 0..7
    for T in built:
        assert StandardTableau(T.rows) == T


def test_chess_tableaux_equal_their_rebuild():
    built = 0
    for lam in partitions_up_to(5):
        for i in (0, 1):
            for k in range(size(lam) + 3):
                for tableaux in enumerate_chess(lam, i, k).values():
                    for T in tableaux:
                        assert ChessTableau(T.rows, T.parity, T.content) == T
                        built += 1
    assert built == 533


def test_path_families_equal_their_rebuild():
    built = 0
    for word in all_words_up_to(6):
        for lam in partitions_up_to(5):
            for mu in subpartitions(lam):
                for i in (0, 1):
                    for family in enumerate_families(word, mu, lam, i):
                        assert PathFamily(family.word, family.levels) == family
                        built += 1
    assert built == 5632


@pytest.fixture
def laurent_made(monkeypatch):
    """Every ``LaurentPoly`` built through ``_made`` while the test runs."""
    made, kernel = [], LaurentPoly._made

    def record(cls, **fields):
        made.append(kernel(**fields))
        return made[-1]

    monkeypatch.setattr(LaurentPoly, "_made", classmethod(record))
    return made


def assert_rebuilt(made, elements):
    entries = [entry for g in elements for row in g.entries for entry in row]
    assert made and entries
    for poly in made + entries:
        assert LaurentPoly(poly.terms) == poly


def test_every_laurent_polynomial_of_a_word_equals_its_rebuild(laurent_made):
    assert_rebuilt(laurent_made, [word_to_loop(word) for word in all_words_up_to(16)])


@pytest.mark.parametrize("seed", range(6))
def test_every_laurent_polynomial_of_a_numeric_product_equals_its_rebuild(laurent_made, seed):
    # zero parameters, and each letter's inverse multiplied on either side, so that
    # coefficients cancel in the determinant and in some products
    rng = random.Random(seed)
    products = [identity_loop()]
    for step in range(8):
        bit = rng.randrange(2)
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if step % 3 else Fraction(0)
        g = products[-1]
        for x in (generator(bit, a), generator(bit, -a), generator(1 - bit, a)):
            g = g * x if rng.randrange(2) else x * g
            assert g.determinant() == LaurentPoly.const(1)
        products.append(g)
    products.append(generator(0, MultiPoly.zero(2)) * generator(1, MultiPoly.zero(2)))
    assert_rebuilt(laurent_made, products)
