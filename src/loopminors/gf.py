"""Small fields and the one elimination that ``shapemod`` runs over them.

Supported fields: the prime fields F2, F3, F5 and F4 via an explicit
four-element table (elements encoded 0..3 as bit pairs over F2, product
reduced modulo x^2 + x + 1).  No general Galois tower is provided.
"""

from __future__ import annotations

from itertools import product

from .errors import DomainError

_GF4_MUL = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 2, 3, 1),
    (0, 3, 1, 2),
)


class GF:
    """F_q for q in {2, 3, 4, 5} as tables; elements are ints 0..q-1.

    ``add[a][b]`` and ``mul[a][b]`` are the sum and product, ``neg[a]`` the
    negative and ``inv[a]`` the inverse of a nonzero ``a`` (``inv`` has no 0).
    """

    def __init__(self, q: int):
        if q not in (2, 3, 4, 5):
            raise DomainError(f"unsupported field size {q} (need 2, 3, 4, or 5)")
        self.q = q
        elements = range(q)
        if q == 4:
            self.add = tuple(tuple(a ^ b for b in elements) for a in elements)
            self.mul = _GF4_MUL
        else:
            self.add = tuple(tuple((a + b) % q for b in elements) for a in elements)
            self.mul = tuple(tuple(a * b % q for b in elements) for a in elements)
        self.neg = tuple(row.index(0) for row in self.add)
        self.inv = {a: row.index(1) for a, row in enumerate(self.mul) if a}


Matrix = list[list[int]]
Vector = list[int]


def left_kernel_basis(field: GF, mat: Matrix) -> list[Vector]:
    """Basis of {f : f @ mat = 0} (row vectors); the unit vectors if mat has no columns.

    One forward elimination: each row carries, in an appended identity block, the
    combination of rows of mat that it now is.  Row operations are invertible, so
    the combinations carried by the rows that reach zero are a basis.
    """
    add, mul, neg, inv = field.add, field.mul, field.neg, field.inv
    cols = len(mat[0]) if mat else 0
    pivots, basis = [], []
    for i, row in enumerate(mat):
        v = list(row) + [int(i == j) for j in range(len(mat))]
        # reduce by each earlier pivot row, which is 1 at its column c
        for c, pivot_row in pivots:
            if v[c]:
                factor = mul[neg[v[c]]]
                v = [add[x][factor[y]] for x, y in zip(v, pivot_row)]
        c = next((c for c in range(cols) if v[c]), None)
        if c is None:
            basis.append(v[cols:])
        else:
            scale = mul[inv[v[c]]]
            pivots.append((c, [scale[x] for x in v]))
    return basis


def projective_vectors(field: GF, dim: int) -> list[Vector]:
    """One vector per line in F_q^dim: k leading zeros, a 1, any tail; k = dim - 1, ..., 0."""
    return [
        [0] * k + [1, *tail]
        for k in reversed(range(dim))
        for tail in product(range(field.q), repeat=dim - 1 - k)
    ]
