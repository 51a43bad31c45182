"""Entries and minors of the doubly infinite block-Toeplitz matrix of a loop.

Integer row/column indices decompose as l = 2m + c with component c in
{1, 2}: odd l is component 1 with m = (l - 1)/2, even l is component 2 with
m = (l - 2)/2.  The (M, N) entry is then the coefficient of t^(n - m) in the
(c_M, c_N) matrix entry of the loop element, which makes the (M, N) and
(M + 2, N + 2) entries equal (the block-shift identity).  This is the unique
decomposition under which the weight matrix of a single chip diagram equals
the Toeplitz matrix of the matching generator.

Windows multiply (T(g h) = T(g) T(h)), so T(g)^-1 = T(g^-1) = T(adj g), the
adjugate being the inverse because det g = 1: the public ``LoopElement``
constructor checks it, and words, generators and their products hold it by
construction.  For a unipotent-plus g, T(g) is upper unitriangular in
index order, so each finite block on an index interval is unitriangular and
its inverse is the same block of T(adj g).  Jacobi's complementary-minor
theorem then reads any minor of T(g) inside an interval [lo, hi] from the
complementary window of T(adj g); ``minor`` takes whichever of the two
windows is smaller.  Transposing and re-indexing that complementary window
turns it into the window of the conjugate shape, so a straight-shape minor
on lam equals the one on lam' at the same parity, and ``pieri_determinant``
expands whichever of the two shapes has fewer rows.
"""

from __future__ import annotations

from .determinants import det_bareiss, det_cofactor
from .errors import DomainError
from .loop import LoopElement, is_unipotent_plus
from .partitions import (
    Partition, check_bit, check_int, check_partition, conjugate, index_windows, max_index, part,
)


def decompose_index(l: int) -> tuple[int, int]:
    """Split an integer index into (block row m, component in {1, 2})."""
    if l % 2:
        return (l - 1) // 2, 1
    return (l - 2) // 2, 2


def _read(entries, rows, cols, zero) -> list[list]:
    """Toeplitz block of the 2x2 Laurent matrix ``entries`` on index lists; a
    missing coefficient reads as the caller's one ring zero ``zero``."""
    cols = list(map(decompose_index, cols))
    block = []
    for m, c in map(decompose_index, rows):
        line = entries[c - 1]
        block.append([line[d - 1].coeff(n - m, zero) for n, d in cols])
    return block


def toeplitz_entry(g: LoopElement, row: int, col: int):
    """Coefficient of t^(n - m) in the component picked by the index split."""
    return _toeplitz_entry(g, check_int(row, "index"), check_int(col, "index"))


def _toeplitz_entry(g: LoopElement, row: int, col: int):
    """``toeplitz_entry`` for int indices."""
    (m, c), (n, d) = decompose_index(row), decompose_index(col)
    value = g.entries[c - 1][d - 1].terms.get(n - m)
    return g.zero_coeff() if value is None else value


def window(g: LoopElement, rows, cols) -> list[list]:
    """Dense submatrix of the Toeplitz matrix on explicit index lists."""
    return _read(g.entries, rows, cols, g.zero_coeff())


def _determinant(g: LoopElement, matrix):
    if g.nvars is None:
        return det_bareiss(matrix)
    return det_cofactor(matrix)


def minor(g: LoopElement, mu: Partition, lam: Partition, i: int):
    """Minor on rows set(mu) and columns set(lam), both windowed at maxIndex(lam).

    Rows R and columns C are kept in canonical (decreasing) order, making the
    determinant sign deterministic; this direct window is square of side
    maxIndex(lam) + 1.  Every index of R and C lies in [lo, hi], with
    lo = R[-1] and hi = C[0].  For a unipotent-plus g, T(g) is upper
    unitriangular, so its block on [lo, hi] has determinant 1 and its
    inverse is the same block of T(adj g) (adj g = g^-1 as det g = 1, which the
    public constructor checks and ``loop``'s own builders keep by construction).
    Jacobi's complementary-minor theorem then gives, with the complements
    C' = [lo, hi] \\ C as rows and R' = [lo, hi] \\ R as columns, also in
    decreasing order:

        det T(g)[R, C] = (-1)^(sum(r - lo) + sum(c - lo)) det T(adj g)[C', R']

    T(adj g) is read off g's entries with the diagonal components swapped;
    the minus signs of adj g's off-diagonal components add one flip per even
    (component-2) index of C' and of R' to the sign above.  The total is even,
    so the complementary minor is read with no sign.  R and C have N elements
    each, all in [lo, hi], so #even(C') + #even(R') = #even(C) + #even(R)
    (mod 2); and r + [r even] is odd for every integer r, so
    r - lo + [r even] = 1 + lo (mod 2).  The flip count is then
    sum_R (1 + lo) + sum_C (1 + lo) = 2N(1 + lo) = 0 (mod 2).  An empty
    complement gives the ring's one.  The complementary window is read only
    for a unipotent-plus g whose complementary side (hi - lo + 1) - |R| is
    strictly smaller than |R|; every other minor reads the direct window.
    """
    rows, cols = index_windows(mu, lam, i)
    lo, hi = rows[-1], cols[0]
    if hi - lo + 1 - len(rows) >= len(rows) or not is_unipotent_plus(g):
        return _determinant(g, window(g, rows, cols))
    span = range(hi, lo - 1, -1)
    co_rows = [l for l in span if l not in cols]
    co_cols = [l for l in span if l not in rows]
    if not co_rows:
        return g.one_coeff()
    (g11, g12), (g21, g22) = g.entries
    return _determinant(g, _read(((g22, g12), (g21, g11)), co_rows, co_cols, g.zero_coeff()))


def _entry_E(g: LoopElement, i: int, n: int, zero):
    """``entry_E`` for a checked bit i and an int n, with ``zero`` the ring's zero."""
    return zero if n < 0 else _toeplitz_entry(g, i, n + i)


def entry_E(g: LoopElement, i: int, n: int):
    """Single-row minor value: the (i, n + i) entry, forced to 0 for n < 0.

    The vanishing convention for negative n is what lets the Pieri
    determinant be written uniformly; for unipotent-plus elements the raw
    entry below the block diagonal vanishes anyway.
    """
    return _entry_E(g, check_bit(i), check_int(n, "subscript"), g.zero_coeff())


def pieri_determinant(g: LoopElement, lam: Partition, i: int):
    """Determinant in single-row entries that reproduces minor(g, (), lam, i).

    Stated for unipotent-plus elements only.  It expands the shape nu, of
    lam and its conjugate lam', with fewer rows (lam on a tie): entry (s, t)
    is E^(parity of i + s), subscript nu[t] + s - t, for s, t in
    0..maxIndex(nu).  Each entry equals the (s, t) entry of the canonical
    minor window of nu by the block-shift identity, with negative subscripts
    reading 0, so the determinant is minor(g, (), nu, i).

    That equals minor(g, (), lam, i), at the same parity.  Let R and C be the
    row and column windows of ((), lam) in [lo, hi] = [R[-1], C[0]].
    Jacobi's complementary minors, as in ``minor``, give det T(g)[R, C] =
    +-det T(adj g)[C', R'] with C', R' the complements in [lo, hi].
    Transposing T(h) and re-indexing by l -> 1 - l gives T(sigma h^T sigma),
    sigma swapping the two components, and sigma adj(g)^T sigma = D g D
    with D = diag(1, -1), whose Toeplitz matrix is a +-1 diagonal.  So the
    minor is +-det T(g)[1 - R', 1 - C'].  These re-indexed complements are
    the row and column windows of ((), lam'), both moved down by 2i, which
    the block-shift identity absorbs: {lam[n] - n} and {1 - (lam'[n] - n)}
    for n >= 0 partition the integers.  The signs cancel on every straight
    shape, which the tests check against the side-maxIndex(lam) + 1
    determinant and ``minor``.
    """
    if not is_unipotent_plus(g):
        raise DomainError("the Pieri determinant is only defined on unipotent-plus elements")
    lam = check_partition(lam)
    i = check_bit(i)
    nu = min(lam, conjugate(lam), key=len)
    side = range(max_index(nu) + 1)
    zero = g.zero_coeff()
    matrix = [[_entry_E(g, (i + s) % 2, part(nu, t) + s - t, zero) for t in side] for s in side]
    return _determinant(g, matrix)
