"""Small fields and the dense elimination that ``shapemod`` runs over them.

Supported fields: the prime fields F2, F3, F5 and F4 via an explicit
four-element table (elements encoded 0..3 as bit pairs over F2, product
reduced modulo x^2 + x + 1).  No general Galois tower is provided.
"""

from __future__ import annotations

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


def rref(field: GF, mat: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column indices (in-place on a copy)."""
    add, mul, neg, inv = field.add, field.mul, field.neg, field.inv
    a = [row[:] for row in mat]
    rows = len(a)
    cols = len(a[0]) if a else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        scale = mul[inv[a[r][c]]]
        a[r] = [scale[v] for v in a[r]]
        for i in range(rows):
            if i != r and a[i][c]:
                factor = mul[neg[a[i][c]]]
                a[i] = [add[v][factor[w]] for v, w in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def left_kernel_basis(field: GF, mat: Matrix) -> list[Vector]:
    """Basis of {f : f @ mat = 0} (row vectors); the unit vectors if mat has no columns."""
    rows = len(mat)
    reduced, pivots = rref(field, [list(column) for column in zip(*mat)])
    basis = []
    for free in range(rows):
        if free in pivots:
            continue
        vec = [0] * rows
        vec[free] = 1
        for r, p in enumerate(pivots):
            vec[p] = field.neg[reduced[r][free]]
        basis.append(vec)
    return basis


def projective_vectors(field: GF, dim: int) -> list[Vector]:
    """One representative per line in F_q^dim: first nonzero coordinate is 1."""
    reps: list[Vector] = []

    def build(prefix: Vector, started: bool) -> None:
        if len(prefix) == dim:
            if started:
                reps.append(prefix[:])
            return
        if not started:
            build(prefix + [0], False)
            build(prefix + [1], True)
        else:
            for v in range(field.q):
                build(prefix + [v], True)

    build([], False)
    return reps
