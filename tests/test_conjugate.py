"""Conjugation symmetry: for a unipotent-plus g, transposing the shape leaves a
minor unchanged at the same parity, which lets the Pieri determinant expand the
shorter of lam and lam'."""

from fractions import Fraction
from itertools import product

from loopminors import toeplitz
from loopminors.loop import LaurentPoly, LoopElement, generator, is_unipotent_plus, word_to_loop
from loopminors.networks import lindstrom_minor
from loopminors.partitions import (
    conjugate, index_windows, max_index, part, partitions_up_to, size, subpartitions,
)
from loopminors.phi import euler_char, phi_polynomial
from loopminors.toeplitz import _determinant, entry_E, minor, pieri_determinant, window
from loopminors.verify import all_words_up_to


def side_length_pieri(g, lam, i):
    """The literal side-maxIndex(lam) + 1 single-row determinant on lam itself."""
    side = range(max_index(lam) + 1)
    return _determinant(g, [[entry_E(g, (i + s) % 2, part(lam, t) + s - t) for t in side] for s in side])


def direct(g, mu, lam, i):
    """The determinant of the direct window of (mu, lam), never minor's choice of window."""
    rows, cols = index_windows(mu, lam, i)
    return _determinant(g, window(g, rows, cols))


def skew_cases(max_size):
    for lam in partitions_up_to(max_size):
        for mu in subpartitions(lam):
            for i in (0, 1):
                yield mu, lam, i


def test_pieri_on_the_shorter_shape_equals_the_side_length_determinant_on_lam_and_the_minor():
    # every |lam| <= 7, both parities, both alternating words of each length <= 7
    cases = swapped = 0
    for word in all_words_up_to(7):
        g = word_to_loop(word)
        for lam in partitions_up_to(7):
            for i in (0, 1):
                value = side_length_pieri(g, lam, i)
                assert pieri_determinant(g, lam, i) == value == minor(g, (), lam, i)
                cases += 1
                swapped += len(conjugate(lam)) < len(lam)
    assert (cases, swapped) == (1260, 504)


def test_reading_the_conjugate_at_the_other_parity_differs():
    # the mutation i -> 1 - i on lam' must show, or the test above would be vacuous
    g = word_to_loop((1, 0, 1, 0, 1, 0))
    differ = [
        (lam, i) for lam in partitions_up_to(6) for i in (0, 1)
        if side_length_pieri(g, conjugate(lam), 1 - i) != minor(g, (), lam, i)
    ]
    assert len(differ) > 0


def test_direct_windows_and_path_families_agree_on_the_conjugate_skew_shape():
    # |lam| <= 5, every mu inside it, both parities, both alternating words of each length <= 6
    cases = nonzero = 0
    for word in all_words_up_to(6):
        g = word_to_loop(word)
        for mu, lam, i in skew_cases(5):
            mu_c, lam_c = conjugate(mu), conjugate(lam)
            value = direct(g, mu, lam, i)
            assert direct(g, mu_c, lam_c, i) == value
            assert lindstrom_minor(word, mu_c, lam_c, i) == lindstrom_minor(word, mu, lam, i) == value
            cases += 1
            nonzero += bool(value)
    assert cases == 2640 and nonzero > 0


def test_phi_and_the_euler_characteristic_are_conjugation_invariant():
    words = all_words_up_to(6)
    for lam in partitions_up_to(5):
        lam_c = conjugate(lam)
        for i in (0, 1):
            for word in words:
                assert phi_polynomial(lam_c, i, word) == phi_polynomial(lam, i, word)
            for d in product((0, 1), repeat=size(lam)):
                assert euler_char(lam_c, i, d) == euler_char(lam, i, d)


def test_off_the_unipotent_plus_set_the_conjugate_window_differs():
    # g1 and g2 of test_toeplitz's guard test: det 1 and polynomial entries, but
    # T(g) is not unitriangular, so the symmetry, and with it the Pieri swap, fails
    def laurent(*coeffs):
        return LaurentPoly(dict(enumerate(map(Fraction, coeffs))))

    diag = LoopElement(((laurent(2), laurent()), (laurent(), laurent(Fraction(1, 2)))))
    g1 = diag * generator(0, 1) * generator(1, 1)
    g2 = LoopElement(((laurent(1), laurent(0, 1)), (laurent(2), laurent(1, 2))))
    g2 = g2 * generator(0, 3) * generator(0, Fraction(5, 2))
    for g, straight, skew in ((g1, 2, 64), (g2, 8, 50)):
        assert not is_unipotent_plus(g)
        differ = [
            (mu, lam, i) for mu, lam, i in skew_cases(5)
            if direct(g, mu, lam, i) != direct(g, conjugate(mu), conjugate(lam), i)
        ]
        assert (sum(not mu for mu, _, _ in differ), len(differ)) == (straight, skew)


def test_pieri_expands_a_matrix_of_the_shorter_side(monkeypatch):
    sides = []

    def recording(g, matrix):
        sides.append(len(matrix))
        return _determinant(g, matrix)

    monkeypatch.setattr(toeplitz, "_determinant", recording)
    g = word_to_loop((1, 0, 1, 0))
    for lam in partitions_up_to(9):
        for i in (0, 1):
            sides.clear()
            pieri_determinant(g, lam, i)
            assert sides == [max(1, min(len(lam), part(lam, 0)))]
    sides.clear()
    pieri_determinant(g, (2,) * 9, 1)
    assert sides == [2]


def test_entry_E_reads_zero_below_the_diagonal_off_the_unipotent_plus_set():
    # entry_E keeps its own convention: n < 0 reads 0 even where the raw Toeplitz entry
    # does not vanish; pieri_determinant reads raw entries, and only of unipotent-plus elements
    one = Fraction(1)
    g = LoopElement(((LaurentPoly({-1: one}), LaurentPoly()), (LaurentPoly(), LaurentPoly({1: one}))))
    assert toeplitz.toeplitz_entry(g, 1, -1) == 1
    assert entry_E(g, 1, -2) == 0 and entry_E(g, 1, 0) == 0


def test_pieri_reads_zero_below_the_block_diagonal_as_entry_E_does():
    # pieri_determinant reads a negative subscript as the raw entry below the block
    # diagonal, which vanishes on every unipotent-plus element, symbolic or numeric
    numeric = generator(0, Fraction(3, 2)) * generator(1, 2) * generator(0, 5) * generator(1, -1)
    for g in [word_to_loop(word) for word in all_words_up_to(6)] + [numeric]:
        assert is_unipotent_plus(g)
        for r, n in product((0, 1), range(-6, 0)):
            assert window(g, [r], [n + r]) == [[g.zero_coeff()]]
        for lam in partitions_up_to(6):
            for i in (0, 1):
                nu = min(lam, conjugate(lam), key=len)
                assert pieri_determinant(g, lam, i) == side_length_pieri(g, nu, i)
