import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from loopminors import toeplitz
from loopminors.errors import DomainError
from loopminors.loop import (
    LaurentPoly,
    LoopElement,
    generator,
    identity_loop,
    is_unipotent_plus,
    word_to_loop,
)
from loopminors.multipoly import MultiPoly
from loopminors.networks import lindstrom_minor
from loopminors.partitions import index_windows, part, partitions_up_to, subpartitions
from loopminors.toeplitz import (
    _determinant,
    decompose_index,
    entry_E,
    minor,
    pieri_determinant,
    toeplitz_entry,
    window,
)
from loopminors.verify import alternating_words

from conftest import word_strategy

GOLDEN = "a1*a2^2 + 2*a1*a2*a4 + a1*a4^2 + a3*a4^2"


def test_decompose_index_round_trip():
    for l in range(-9, 10):
        m, comp = decompose_index(l)
        assert comp in (1, 2)
        assert 2 * m + comp == l


def test_entry_examples():
    a = Fraction(7)
    assert toeplitz_entry(generator(1, a), 1, 2) == a
    assert toeplitz_entry(generator(0, a), 2, 3) == a
    g = word_to_loop((0, 1, 0))
    for diag in (-3, 0, 1, 4):
        assert toeplitz_entry(g, diag, diag) == MultiPoly.one(3)


@given(word=word_strategy(max_length=5))
@settings(max_examples=30, deadline=None)
def test_block_shift_identity(word):
    g = word_to_loop(word)
    rng = random.Random(20240517)
    for _ in range(20):
        row = rng.randint(-6, 6)
        col = rng.randint(-6, 6)
        assert toeplitz_entry(g, row, col) == toeplitz_entry(g, row + 2, col + 2)


def test_minor_golden_example():
    g = word_to_loop((1, 0, 1, 0))
    assert minor(g, (), (2, 1), 1).text() == GOLDEN


def test_minor_on_equal_partitions_is_one():
    # mu = lam is a unitriangular window: the ring's one, not the int 1
    numeric = generator(0, Fraction(3)) * generator(1, Fraction(-2, 5))
    for g, one in (
        (identity_loop(), Fraction(1)),
        (numeric, Fraction(1)),
        (word_to_loop((1, 0, 1)), MultiPoly.one(3)),
    ):
        for mu in ((), (1,), (2, 1), (1, 1, 1), (3, 3)):
            for i in (0, 1):
                value = minor(g, mu, mu, i)
                assert type(value) is type(one) and value == one


def test_minor_single_box():
    g = word_to_loop((0,))
    assert minor(g, (), (1,), 0) == MultiPoly.variable(1, 0)


def test_minor_rejects_non_contained():
    g = identity_loop()
    with pytest.raises(DomainError):
        minor(g, (3,), (2, 2), 0)


def test_minor_degenerate_window():
    # mu = lam = empty gives the 1x1 window at the diagonal entry
    g = word_to_loop((1, 0))
    assert minor(g, (), (), 0) == MultiPoly.one(2)
    assert minor(identity_loop(), (3, 2, 1), (3, 2, 1), 1) == Fraction(1)


def test_entry_E_examples():
    a = Fraction(2, 3)
    assert entry_E(generator(0, a), 0, 1) == a
    g = word_to_loop((1, 0))
    assert entry_E(g, 0, -1) == MultiPoly.zero(2)
    assert entry_E(g, 1, -5) == MultiPoly.zero(2)
    assert entry_E(identity_loop(), 0, 0) == Fraction(1)
    assert entry_E(identity_loop(), 1, 0) == Fraction(1)


def test_entry_E_is_the_single_row_minor():
    g = word_to_loop((0, 1, 0, 1))
    for i in (0, 1):
        for n in range(1, 5):
            assert entry_E(g, i, n) == minor(g, (), (n,), i)


def test_pieri_golden_example():
    g = word_to_loop((1, 0, 1, 0))
    assert pieri_determinant(g, (2, 1), 1).text() == GOLDEN


def test_pieri_single_row_is_entry_E():
    g = word_to_loop((1, 0, 1))
    for n in (1, 2, 3):
        for i in (0, 1):
            assert pieri_determinant(g, (n,), i) == entry_E(g, i, n)


def test_pieri_identity_element():
    assert pieri_determinant(identity_loop(), (1,), 0) == Fraction(0)


def test_pieri_requires_unipotent_plus():
    bad = LoopElement(
        (
            (LaurentPoly({0: Fraction(1)}), LaurentPoly({-1: Fraction(1)})),
            (LaurentPoly(), LaurentPoly({0: Fraction(1)})),
        )
    )
    with pytest.raises(DomainError):
        pieri_determinant(bad, (1,), 0)


def _band(g):
    exps = [
        e
        for i in (1, 2)
        for j in (1, 2)
        for e in g.entry(i, j).terms
    ]
    low = min(exps) if exps else 0
    high = max(exps) if exps else 0
    return 2 * low - 1, 2 * high + 1


def _assert_window_multiplicative(g1, g2):
    g = g1 * g2
    lo1, hi1 = _band(g1)
    for row in range(-3, 4):
        for col in range(-3, 4):
            mids = range(row + lo1, row + hi1 + 1)
            total = sum(
                (toeplitz_entry(g1, row, mid) * toeplitz_entry(g2, mid, col) for mid in mids),
                Fraction(0),
            )
            assert total == toeplitz_entry(g, row, col)


def test_window_of_product_is_product_of_windows():
    g1 = generator(0, Fraction(2)) * generator(1, Fraction(3))
    g2 = generator(0, Fraction(5, 2)) * generator(1, Fraction(1, 3)) * generator(0, Fraction(4))
    _assert_window_multiplicative(g1, g2)


@given(w1=word_strategy(max_length=4), w2=word_strategy(max_length=4))
@settings(max_examples=20, deadline=None)
def test_window_product_on_random_words(w1, w2):
    rng = random.Random(hash((w1, w2)) & 0xFFFF)

    def numeric(word):
        g = identity_loop()
        for bit in word:
            g = g * generator(bit, Fraction(rng.randint(1, 5), rng.randint(1, 5)))
        return g

    _assert_window_multiplicative(numeric(w1), numeric(w2))


@given(word=word_strategy(max_length=5))
@settings(max_examples=20, deadline=None)
def test_symbolic_minor_evaluates_to_numeric_minor(word):
    # the symbolic cofactor route and the numeric Bareiss route must agree
    # after substituting rational parameter values
    rng = random.Random(sum(word) + 31 * len(word))
    values = [Fraction(rng.randint(1, 6), rng.randint(1, 6)) for _ in word]
    numeric = identity_loop()
    for bit, value in zip(word, values):
        numeric = numeric * generator(bit, value)
    for lam in ((1,), (2, 1), (2, 2), (1, 1, 1), (2, 2, 2)):
        for mu in ((), (1,)):
            for i in (0, 1):
                symbolic = minor(word_to_loop(word), mu, lam, i)
                assert symbolic.evaluate(values) == minor(numeric, mu, lam, i)


def _direct_cases(g, max_size):
    """(mu, lam, i, direct-window determinant, whether lam has fewer columns
    than rows) for every mu inside lam with |lam| <= max_size."""
    for lam in partitions_up_to(max_size):
        for mu in subpartitions(lam):
            for i in (0, 1):
                rows, cols = index_windows(mu, lam, i)
                tall = part(lam, 0) < len(lam)
                yield mu, lam, i, _determinant(g, window(g, rows, cols)), tall


def test_minor_equals_direct_window_and_path_route():
    # every mu inside lam with |lam| <= 7, both parities, both alternating
    # words of each length <= 7: 12,572 cases, 5,068 of them on the
    # conjugate window
    cases = conjugated = 0
    for length in range(1, 8):
        for word in alternating_words(length):
            g = word_to_loop(word)
            for mu, lam, i, direct, tall in _direct_cases(g, 7):
                value = minor(g, mu, lam, i)
                assert value == direct and value == lindstrom_minor(word, mu, lam, i)
                cases += 1
                conjugated += tall
    assert (cases, conjugated) == (12572, 5068)


def test_minor_off_the_unipotent_plus_subgroup_reads_the_direct_window():
    # T(g) of diag(t, 1/t) is not triangular, so the conjugate shape's minor
    # is not the same; many tall shapes would read wrong
    g = LoopElement(
        (
            (LaurentPoly({1: Fraction(1)}), LaurentPoly()),
            (LaurentPoly(), LaurentPoly({-1: Fraction(1)})),
        )
    )
    tall_shapes = 0
    for mu, lam, i, direct, tall in _direct_cases(g, 5):
        assert minor(g, mu, lam, i) == direct
        tall_shapes += tall
    assert tall_shapes == 86


def test_each_clause_of_unipotent_plus_guards_the_complementary_window():
    # polynomial entries, but g1 has diagonal constants 2 and 1/2 and g2 a
    # lower constant 2: T(g) is not unitriangular, so a membership test that
    # missed either clause would send tall minors to the wrong window
    def laurent(*coeffs):
        return LaurentPoly(dict(enumerate(map(Fraction, coeffs))))

    half, eleven_halves = Fraction(1, 2), Fraction(11, 2)
    diag = LoopElement(((laurent(2), laurent()), (laurent(), laurent(half))))
    g1 = diag * generator(0, 1) * generator(1, 1)
    g2 = LoopElement(((laurent(1), laurent(0, 1)), (laurent(2), laurent(1, 2))))
    g2 = g2 * generator(0, 3) * generator(0, Fraction(5, 2))
    assert g1.entries == ((laurent(2), laurent(2)), (laurent(0, half), laurent(half, half)))
    assert g2.entries == (
        (laurent(1, 0, eleven_halves), laurent(0, 1)),
        (laurent(2, eleven_halves, 11), laurent(1, 2)),
    )
    for g in (g1, g2):
        assert not is_unipotent_plus(g)
        for mu, lam, i, direct, _ in _direct_cases(g, 5):
            assert minor(g, mu, lam, i) == direct
    assert minor(g1, (), (1, 1), 0) == 1
    assert (minor(g2, (), (1, 1), 1), minor(g2, (), (1, 1, 1), 0)) == (-2, 0)


def _off_the_subgroup():
    """g1 and g2 of the guard test above: det 1, polynomial entries, and T(g)
    not unitriangular."""
    def laurent(*coeffs):
        return LaurentPoly(dict(enumerate(map(Fraction, coeffs))))

    diag = LoopElement(((laurent(2), laurent()), (laurent(), laurent(Fraction(1, 2)))))
    lower = LoopElement(((laurent(1), laurent(0, 1)), (laurent(2), laurent(1, 2))))
    g1 = diag * generator(0, 1) * generator(1, 1)
    return g1, lower * generator(0, 3) * generator(0, Fraction(5, 2))


def test_minor_expands_the_shorter_of_lam_and_its_conjugate(monkeypatch):
    # a word's element expands side min(l(lam), lam_1); g1 and g2 expand the
    # direct window, side l(lam), whatever the shape
    sides = []

    def recording(g, matrix):
        sides.append(len(matrix))
        return _determinant(g, matrix)

    monkeypatch.setattr(toeplitz, "_determinant", recording)
    elements = [(word_to_loop((1, 0, 1, 0)), True), *((g, False) for g in _off_the_subgroup())]
    shorter = 0
    for g, unipotent_plus in elements:
        for lam in partitions_up_to(6):
            for mu in subpartitions(lam):
                for i in (0, 1):
                    sides.clear()
                    minor(g, mu, lam, i)
                    side = min(len(lam), part(lam, 0)) if unipotent_plus else len(lam)
                    assert sides == [max(1, side)], (mu, lam, i)
                    shorter += side < len(lam)
    assert shorter > 0


def test_window_helper_shape():
    g = identity_loop()
    grid = window(g, [0, 1], [0, 1, 2])
    assert len(grid) == 2 and len(grid[0]) == 3
    assert grid[0][0] == Fraction(1) and grid[1][1] == Fraction(1)
