"""Small fields and the dense elimination that ``shapemod`` runs over them.

Supported fields: the prime fields F2, F3, F5 and F4 via an explicit
four-element table (elements encoded 0..3 as bit pairs over F2, product
reduced modulo x^2 + x + 1), and the rationals ``QQ`` for exact ranks over
Q.  No general Galois tower is provided.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError

_GF4_MUL = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 2, 3, 1),
    (0, 3, 1, 2),
)


class GF:
    """Arithmetic in F_q for q in {2, 3, 4, 5}; elements are ints 0..q-1."""

    def __init__(self, q: int):
        if q not in (2, 3, 4, 5):
            raise DomainError(f"unsupported field size {q} (need 2, 3, 4, or 5)")
        self.q = q
        self._gf4 = q == 4
        if self._gf4:
            self._inv = {1: 1, 2: 3, 3: 2}
        else:
            self._inv = {a: pow(a, q - 2, q) for a in range(1, q)}

    def add(self, a: int, b: int) -> int:
        if self._gf4:
            return a ^ b
        return (a + b) % self.q

    def neg(self, a: int) -> int:
        if self._gf4:
            return a
        return (-a) % self.q

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self._gf4:
            return _GF4_MUL[a][b]
        return (a * b) % self.q

    def inv(self, a: int) -> int:
        if a == 0:
            raise DomainError("division by zero in finite field")
        return self._inv[a]

    def elements(self) -> range:
        return range(self.q)


class _Rationals:
    """The rationals behind the ``GF`` interface; elements are ints or Fractions."""

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def inv(a) -> Fraction:
        if a == 0:
            raise DomainError("division by zero in the rationals")
        return 1 / Fraction(a)


QQ = _Rationals()


Matrix = list[list[int]]
Vector = list[int]


def zero_matrix(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def identity_matrix(n: int) -> Matrix:
    out = zero_matrix(n, n)
    for i in range(n):
        out[i][i] = 1
    return out


def mat_mul(field: GF | _Rationals, a: Matrix, b: Matrix) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = zero_matrix(rows, cols)
    for i in range(rows):
        for k in range(inner):
            aik = a[i][k]
            if not aik:
                continue
            for j in range(cols):
                out[i][j] = field.add(out[i][j], field.mul(aik, b[k][j]))
    return out


def rref(field: GF | _Rationals, mat: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column indices (in-place on a copy)."""
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
        scale = field.inv(a[r][c])
        a[r] = [field.mul(scale, v) for v in a[r]]
        for i in range(rows):
            if i != r and a[i][c]:
                factor = a[i][c]
                a[i] = [field.sub(v, field.mul(factor, w)) for v, w in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def kernel_basis(field: GF, mat: Matrix) -> list[Vector]:
    """Basis of the right null space {x : mat @ x = 0}."""
    cols = len(mat[0]) if mat else 0
    if not mat:
        return [e for e in identity_matrix(cols)]
    reduced, pivots = rref(field, mat)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * cols
        vec[f] = 1
        for r, p in enumerate(pivots):
            vec[p] = field.neg(reduced[r][f])
        basis.append(vec)
    return basis


def left_kernel_basis(field: GF, mat: Matrix) -> list[Vector]:
    """Basis of {f : f @ mat = 0} (row vectors)."""
    rows = len(mat)
    cols = len(mat[0]) if mat else 0
    transposed = [[mat[i][j] for i in range(rows)] for j in range(cols)]
    if not transposed:
        return [e for e in identity_matrix(rows)]
    return kernel_basis(field, transposed)


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
            for v in field.elements():
                build(prefix + [v], True)

    build([], False)
    return reps
