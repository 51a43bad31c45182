import pytest

from loopminors.errors import DomainError
from loopminors.gf import (
    GF,
    QQ,
    identity_matrix,
    kernel_basis,
    left_kernel_basis,
    mat_mul,
    projective_vectors,
    rref,
)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_field_axioms_exhaustive(q):
    field = GF(q)
    elems = list(field.elements())
    for x in elems:
        assert field.add(x, 0) == x
        assert field.mul(x, 1) == x
        assert field.add(x, field.neg(x)) == 0
        if x:
            assert field.mul(x, field.inv(x)) == 1
        for y in elems:
            assert field.add(x, y) == field.add(y, x)
            assert field.mul(x, y) == field.mul(y, x)
            for z in elems:
                assert field.mul(x, field.add(y, z)) == field.add(
                    field.mul(x, y), field.mul(x, z)
                )
                assert field.mul(field.mul(x, y), z) == field.mul(x, field.mul(y, z))


def test_gf4_is_not_integers_mod_4():
    field = GF(4)
    assert field.add(2, 2) == 0
    assert field.mul(2, 2) == 3
    assert field.mul(2, 3) == 1
    assert field.mul(3, 3) == 2


def test_unsupported_field_sizes():
    with pytest.raises(DomainError):
        GF(6)
    with pytest.raises(DomainError):
        GF(7)


def test_rref_and_kernel():
    field = GF(3)
    mat = [[1, 2, 0], [0, 1, 1]]
    reduced, pivots = rref(field, mat)
    assert pivots == [0, 1]
    basis = kernel_basis(field, mat)
    assert len(basis) == 1
    for vec in basis:
        for row in mat:
            total = 0
            for coeff, v in zip(row, vec):
                total = field.add(total, field.mul(coeff, v))
            assert total == 0
    # over Q the rank is exact: [[1, 1], [1, -1]] has rank 2, but rank 1 mod 2
    mixed = [[1, 1], [1, -1]]
    assert rref(QQ, mixed) == ([[1, 0], [0, 1]], [0, 1])
    assert rref(GF(2), [[1, 1], [1, 1]])[1] == [0]
    reduced, pivots = rref(QQ, [[2, 4, 1], [3, 6, 0]])
    assert pivots == [0, 2]
    assert reduced == [[1, 2, 0], [0, 0, 1]]
    with pytest.raises(DomainError):
        QQ.inv(0)


def test_left_kernel():
    field = GF(2)
    mat = [[1, 0], [1, 0]]
    basis = left_kernel_basis(field, mat)
    assert len(basis) == 1
    f = basis[0]
    assert mat_mul(field, [f], mat) == [[0, 0]]


def test_projective_vectors_counts():
    field = GF(3)
    lines = projective_vectors(field, 2)
    assert len(lines) == 4  # (q^2 - 1) / (q - 1)
    assert all(vec[next(i for i, v in enumerate(vec) if v)] == 1 for vec in lines)
    assert projective_vectors(field, 0) == []


def test_identity_matrix():
    assert identity_matrix(2) == [[1, 0], [0, 1]]
