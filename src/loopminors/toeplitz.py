"""Entries and minors of the doubly infinite block-Toeplitz matrix of a loop.

Integer row/column indices decompose as l = 2m + c with component c in
{1, 2}: odd l is component 1 with m = (l - 1)/2, even l is component 2 with
m = (l - 2)/2.  The (M, N) entry is then the coefficient of t^(n - m) in the
(c_M, c_N) matrix entry of the loop element, which makes the (M, N) and
(M + 2, N + 2) entries equal (the block-shift identity).  This is the unique
decomposition under which the weight matrix of a single chip diagram equals
the Toeplitz matrix of the matching generator.  For a unipotent-plus g a
minor equals the one on the conjugate shape; ``pieri_determinant`` proves it.
"""

from __future__ import annotations

from .determinants import det_bareiss, det_cofactor
from .errors import DomainError
from .loop import LoopElement, is_unipotent_plus
from .partitions import (
    Partition, _index_window, check_bit, check_int, check_partition, conjugate, index_windows,
    max_index, part,
)


def decompose_index(l: int) -> tuple[int, int]:
    """Split an integer index into (block row m, component in {1, 2})."""
    if l % 2:
        return (l - 1) // 2, 1
    return (l - 2) // 2, 2


def toeplitz_entry(g: LoopElement, row: int, col: int):
    """Coefficient of t^(n - m) in the component picked by the index split."""
    return window(g, [check_int(row, "index")], [check_int(col, "index")])[0][0]


def window(g: LoopElement, rows, cols) -> list[list]:
    """Dense submatrix of the Toeplitz matrix on explicit index lists."""
    cols, zero = list(map(decompose_index, cols)), g.zero_coeff()
    return [
        [g.entries[c - 1][d - 1].terms.get(n - m, zero) for n, d in cols]
        for m, c in map(decompose_index, rows)
    ]


def _determinant(g: LoopElement, matrix):
    if g.nvars is None:
        return det_bareiss(matrix)
    return det_cofactor(matrix)


def minor(g: LoopElement, mu: Partition, lam: Partition, i: int):
    """Minor on rows set(mu) and columns set(lam), both windowed at maxIndex(lam).

    Rows R and columns C are kept in canonical (decreasing) order, making the
    determinant sign deterministic; the window is square of side
    maxIndex(lam) + 1.  For a unipotent-plus g, the minor on (mu', lam') at
    the same parity is equal (see ``pieri_determinant``), so when lam has
    fewer columns than rows its narrower window is the one expanded.
    """
    rows, cols = index_windows(mu, lam, i)
    if part(lam, 0) < len(lam) and is_unipotent_plus(g):
        # checked above, so their conjugates are partitions, the one inside the other
        mu, lam = conjugate(mu), conjugate(lam)
        rows, cols = _index_window(mu, i, max_index(lam)), _index_window(lam, i, max_index(lam))
    return _determinant(g, window(g, rows, cols))


def entry_E(g: LoopElement, i: int, n: int):
    """Single-row minor value: the (i, n + i) entry, forced to 0 for n < 0.

    The vanishing convention for negative n is what lets the Pieri
    determinant be written uniformly; for unipotent-plus elements the raw
    entry below the block diagonal vanishes anyway.
    """
    i, n = check_bit(i), check_int(n, "subscript")
    return g.zero_coeff() if n < 0 else window(g, [i], [n + i])[0][0]


def pieri_determinant(g: LoopElement, lam: Partition, i: int):
    """Determinant in single-row entries that reproduces minor(g, (), lam, i).

    Stated for unipotent-plus elements only.  It expands the shape nu, of
    lam and its conjugate lam', with fewer rows (lam on a tie): entry (s, t)
    is E^(parity of i + s), subscript nu[t] + s - t, for s, t in
    0..maxIndex(nu).  Each entry equals the (s, t) entry of the canonical
    minor window of nu by the block-shift identity, with negative subscripts
    reading 0, so the determinant is minor(g, (), nu, i).

    That equals the minor on lam, by conjugation, which ``minor`` uses too:
    for a unipotent-plus g, minor(g, mu, lam, i) = minor(g, mu', lam', i).
    Let R and C be the windows of (mu, lam), in [lo, hi] = [R[-1], C[0]].
    T(g) is upper unitriangular, and T(g)^-1 = T(adj g) as det g = 1, so
    its block on [lo, hi] has determinant 1 and inverse the same block of
    T(adj g).  Jacobi's complementary minors give det T(g)[R, C] =
    +-det T(adj g)[C', R'] with C', R' the complements in [lo, hi].
    Transposing T(h) and re-indexing by l -> 1 - l gives T(sigma h^T sigma),
    sigma swapping the two components, and sigma adj(g)^T sigma = D g D with
    D = diag(1, -1), whose Toeplitz matrix is a +-1 diagonal, so the minor
    is +-det T(g)[1 - R', 1 - C'].  As {lam[n] - n} and {1 - (lam'[n] - n)}
    for n >= 0 partition the integers, 1 - C' and 1 - R' are the windows of
    (mu', lam') moved down by 2i, which the block-shift identity absorbs,
    less the first mu[maxIndex(lam)] indices that the two windows share.
    Each shared index is the top one left of both, so its row of T(g) there
    is (1, 0, ..., 0), and dropping it keeps the determinant.  The sign
    depends on (mu, lam, i) alone, and both minors count non-crossing path
    families with positive weights, so it is +.
    """
    if not is_unipotent_plus(g):
        raise DomainError("the Pieri determinant is only defined on unipotent-plus elements")
    lam = check_partition(lam)
    i = check_bit(i)
    nu = min(lam, conjugate(lam), key=len)
    side = range(max_index(nu) + 1)
    # a negative subscript is below the block diagonal: 0 for the unipotent-plus g let in above
    matrix = [window(g, [(i + s) % 2], [part(nu, t) + s - t + (i + s) % 2 for t in side])[0]
              for s in side]
    return _determinant(g, matrix)
