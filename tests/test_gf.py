import pytest

from loopminors.errors import DomainError
from loopminors.gf import GF, left_kernel_basis, projective_vectors, rref


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


def test_rref_and_kernel():
    field = GF(3)
    mat = [[1, 2, 0], [0, 1, 1]]
    reduced, pivots = rref(field, mat)
    assert pivots == [0, 1]
    assert reduced == [[1, 0, 1], [0, 1, 1]]
    # the right kernel of mat is the left kernel of its transpose
    basis = left_kernel_basis(field, [list(column) for column in zip(*mat)])
    assert len(basis) == 1
    for vec in basis:
        for row in mat:
            assert _dot(field, row, vec) == 0
    assert rref(GF(2), [[1, 1], [1, 1]])[1] == [0]


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
    field = GF(3)
    lines = projective_vectors(field, 2)
    assert len(lines) == 4  # (q^2 - 1) / (q - 1)
    assert all(vec[next(i for i, v in enumerate(vec) if v)] == 1 for vec in lines)
    assert projective_vectors(field, 0) == []
