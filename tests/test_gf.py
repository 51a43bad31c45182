import random
from itertools import product

import pytest

from loopminors.errors import DomainError
from loopminors.gf import GF, left_kernel_basis, projective_vectors


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_field_axioms_exhaustive(q):
    field = GF(q)
    add, mul, neg, inv = field.add, field.mul, field.neg, field.inv
    elems = range(q)
    assert sorted(inv) == list(elems)[1:]
    for x in elems:
        assert add[x][0] == x
        assert mul[x][1] == x
        assert add[x][neg[x]] == 0
        if x:
            assert mul[x][inv[x]] == 1
        for y in elems:
            assert add[x][y] == add[y][x]
            assert mul[x][y] == mul[y][x]
            for z in elems:
                assert add[add[x][y]][z] == add[x][add[y][z]]
                assert mul[x][add[y][z]] == add[mul[x][y]][mul[x][z]]
                assert mul[mul[x][y]][z] == mul[x][mul[y][z]]


def test_gf4_is_not_integers_mod_4():
    field = GF(4)
    assert field.add[2][2] == 0
    assert field.add[1][3] == 2
    assert field.mul[2][2] == 3
    assert field.mul[2][3] == 1
    assert field.mul[3][3] == 2


def test_unsupported_field_sizes():
    with pytest.raises(DomainError):
        GF(6)
    with pytest.raises(DomainError):
        GF(7)


def _dot(field, u, v):
    total = 0
    for a, b in zip(u, v):
        total = field.add[total][field.mul[a][b]]
    return total


def test_right_kernel_is_the_left_kernel_of_the_transpose():
    field = GF(3)
    mat = [[1, 2, 0], [0, 1, 1]]
    # the right kernel of mat is the left kernel of its transpose
    basis = left_kernel_basis(field, [list(column) for column in zip(*mat)])
    assert len(basis) == 1
    for vec in basis:
        for row in mat:
            assert _dot(field, row, vec) == 0
    assert len(left_kernel_basis(GF(2), [[1, 1], [1, 1]])) == 1


def _kernel_cases():
    """Seeded matrices with n, m <= 4: every shape, including no rows or no
    columns, at random density, plus the zero and a full-rank matrix."""
    rng = random.Random(0)
    for q in (2, 3, 4, 5):
        for n, m in product(range(5), repeat=2):
            yield q, [[0] * m for _ in range(n)]
            yield q, [[int(i == j) for j in range(m)] for i in range(n)]
            for density in (0.3, 0.7, 1.0):
                yield q, [[rng.randrange(1, q) if rng.random() < density else 0
                           for _ in range(m)] for _ in range(n)]


def test_left_kernel_basis_spans_the_brute_force_kernel():
    for q, mat in _kernel_cases():
        field = GF(q)
        n = len(mat)
        columns = list(zip(*mat))
        kernel = {f for f in product(range(q), repeat=n)
                  if all(_dot(field, f, column) == 0 for column in columns)}
        basis = left_kernel_basis(field, mat)
        span = set()
        for coeffs in product(range(q), repeat=len(basis)):
            vec = [0] * n
            for coeff, base in zip(coeffs, basis):
                vec = [field.add[x][field.mul[coeff][b]] for x, b in zip(vec, base)]
            span.add(tuple(vec))
        assert span == kernel, (q, mat)
        assert len(kernel) == q ** len(basis), (q, mat)


def test_left_kernel():
    field = GF(2)
    mat = [[1, 0], [1, 0]]
    basis = left_kernel_basis(field, mat)
    assert len(basis) == 1
    f = basis[0]
    assert [_dot(field, f, column) for column in zip(*mat)] == [0, 0]
    # with no columns every row vector is in the kernel
    assert left_kernel_basis(GF(3), [[], [], []]) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert left_kernel_basis(field, []) == []


def test_projective_vectors_counts():
    for q in (2, 3, 4, 5):
        field = GF(q)
        for dim in range(6):
            lines = projective_vectors(field, dim)
            assert len(lines) == (q ** dim - 1) // (q - 1)
            assert all(len(vec) == dim for vec in lines)
            assert all(vec[next(i for i, v in enumerate(vec) if v)] == 1 for vec in lines)
            # no two proportional: the nonzero multiples of the lines are all distinct
            multiples = [tuple(field.mul[c][v] for v in vec) for vec in lines for c in range(1, q)]
            assert len(set(multiples)) == len(multiples)
    assert projective_vectors(GF(3), 0) == []
