"""Entries and minors of the doubly infinite block-Toeplitz matrix of a loop.

Integer row/column indices decompose as l = 2m + c with component c in
{1, 2}: odd l is component 1 with m = (l - 1)/2, even l is component 2 with
m = (l - 2)/2.  The (M, N) entry is then the coefficient of t^(n - m) in the
(c_M, c_N) matrix entry of the loop element, which makes the (M, N) and
(M + 2, N + 2) entries equal (the block-shift identity).  This is the unique
decomposition under which the weight matrix of a single chip diagram equals
the Toeplitz matrix of the matching generator.
"""

from __future__ import annotations

from .determinants import det_bareiss, det_cofactor
from .errors import DomainError
from .loop import LoopElement, is_unipotent_plus
from .partitions import Partition, check_bit, check_partition, index_windows, max_index


def decompose_index(l: int) -> tuple[int, int]:
    """Split an integer index into (block row m, component in {1, 2})."""
    if l % 2:
        return (l - 1) // 2, 1
    return (l - 2) // 2, 2


def toeplitz_entry(g: LoopElement, row: int, col: int):
    """Coefficient of t^(n - m) in the component picked by the index split."""
    m, comp_row = decompose_index(row)
    n, comp_col = decompose_index(col)
    return g.entry(comp_row, comp_col).coeff(n - m, g.zero_coeff())


def window(g: LoopElement, rows, cols) -> list[list]:
    """Dense submatrix of the Toeplitz matrix on explicit index lists."""
    return [[toeplitz_entry(g, r, c) for c in cols] for r in rows]


def _determinant(g: LoopElement, matrix):
    if g.nvars is None:
        return det_bareiss(matrix)
    return det_cofactor(matrix)


def minor(g: LoopElement, mu: Partition, lam: Partition, i: int):
    """Minor on rows set(mu) and columns set(lam), both windowed at maxIndex(lam).

    Rows and columns are kept in canonical order (the n = 0 element first),
    making the determinant sign deterministic; the window is square of side
    maxIndex(lam) + 1.
    """
    rows, cols = index_windows(mu, lam, i)
    return _determinant(g, window(g, rows, cols))


def entry_E(g: LoopElement, i: int, n: int):
    """Single-row minor value: the (i, n + i) entry, forced to 0 for n < 0.

    The vanishing convention for negative n is what lets the Pieri
    determinant be written uniformly; for unipotent-plus elements the raw
    entry below the block diagonal vanishes anyway.
    """
    check_bit(i)
    if n < 0:
        return g.zero_coeff()
    return toeplitz_entry(g, i, n + i)


def pieri_determinant(g: LoopElement, lam: Partition, i: int):
    """Determinant in single-row entries that reproduces minor(g, (), lam, i).

    Entry (s, t) is E^(parity of i + s), subscript lam[t] + s - t, for
    s, t in 0..maxIndex(lam).  Each entry equals the (s, t) entry of the
    canonical minor window by the block-shift identity, with negative
    subscripts reading 0.  Stated for unipotent-plus elements only.
    """
    if not is_unipotent_plus(g):
        raise DomainError("the Pieri determinant is only defined on unipotent-plus elements")
    lam = check_partition(lam)
    i = check_bit(i)
    n_max = max_index(lam)
    matrix = []
    for s in range(n_max + 1):
        parity = (i + s) % 2
        row = []
        for t in range(n_max + 1):
            sub = (lam[t] if t < len(lam) else 0) + s - t
            row.append(entry_E(g, parity, sub))
        matrix.append(row)
    return _determinant(g, matrix)
