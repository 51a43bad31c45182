from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopminors.determinants import det_bareiss, det_cofactor
from loopminors.errors import DomainError
from loopminors.multipoly import MultiPoly


def test_empty_and_singleton():
    assert det_cofactor([]) == 1
    assert det_bareiss([]) == Fraction(1)
    assert det_cofactor([[Fraction(5)]]) == Fraction(5)
    assert det_bareiss([[5]]) == Fraction(5)


def test_known_three_by_three():
    mat = [[2, 0, 1], [1, 1, 0], [0, 3, 1]]
    assert det_bareiss(mat) == Fraction(5)
    assert det_cofactor(mat) == 5


def test_singular_matrix():
    mat = [[1, 2], [2, 4]]
    assert det_bareiss(mat) == Fraction(0)
    assert det_cofactor(mat) == 0


def test_zero_row_with_polynomial_entries():
    zero = MultiPoly.zero(1)
    a = MultiPoly.variable(1, 0)
    mat = [[zero, zero], [a, a]]
    assert det_cofactor(mat) == MultiPoly.zero(1)


def test_rejects_non_square():
    with pytest.raises(DomainError):
        det_cofactor([[1, 2]])
    with pytest.raises(DomainError):
        det_bareiss([[1], [2]])


@st.composite
def square_matrices(draw, max_n=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    entry = st.fractions(
        min_value=-4, max_value=4, max_denominator=3
    )
    return [[draw(entry) for _ in range(n)] for _ in range(n)]


@given(mat=square_matrices())
@settings(max_examples=120, deadline=None)
def test_both_routes_agree(mat):
    assert det_cofactor(mat) == det_bareiss(mat)


@given(mat=square_matrices(max_n=4))
@settings(max_examples=60, deadline=None)
def test_transpose_invariance(mat):
    n = len(mat)
    transposed = [[mat[j][i] for j in range(n)] for i in range(n)]
    assert det_bareiss(mat) == det_bareiss(transposed)


def leibniz(mat, zero):
    """Reference determinant: the signed sum over all permutations."""
    total = zero
    for perm in permutations(range(len(mat))):
        inversions = sum(perm[j] > perm[i] for i in range(len(perm)) for j in range(i))
        term = MultiPoly.one(zero.nvars)
        for row, col in enumerate(perm):
            term = term * mat[row][col]
        total = total - term if inversions % 2 else total + term
    return total


@st.composite
def polynomial_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    k = 2
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
    terms = st.dictionaries(exps, st.integers(-3, 3), max_size=3)
    # zero entries are drawn often, and at most one row is all zero
    entry = st.one_of(st.just({}), terms).map(lambda t: MultiPoly(k, t))
    mat = [[draw(entry) for _ in range(n)] for _ in range(n)]
    zero_row = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    if zero_row is not None:
        mat[zero_row] = [MultiPoly.zero(k)] * n
    return mat


@given(mat=polynomial_matrices(), data=st.data())
@settings(max_examples=120, deadline=None)
def test_symbolic_cofactor_matches_leibniz_and_alternates(mat, data):
    zero = MultiPoly.zero(2)
    det = det_cofactor(mat)
    assert det == leibniz(mat, zero)
    if any(not any(row) for row in mat):
        assert det.terms == {}
    n = len(mat)
    if n > 1:
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        swapped = list(mat)
        swapped[i], swapped[j] = mat[j], mat[i]
        assert det_cofactor(swapped) == -det
