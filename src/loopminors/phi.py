"""The flag-counting generating polynomial attached to a shape and parity.

The polynomial in a1..ak for a shape lam, parity i, and alternating word of
length k has, as coefficient of a^j, the number of chess tableaux of shape
lam, parity ``(i + word[0] + 1) % 2``, and content j.  Each such coefficient
equals the number of standard tableaux whose i-parity string is the expanded
word, divided by j_1! ... j_k!, which is an exact integer.  Every monomial has total
degree |lam|.
"""

from __future__ import annotations

from .multipoly import MultiPoly
from .partitions import Partition, check_partition, size
from .tableaux import check_bit, check_word, enumerate_by_parity, enumerate_chess


def euler_char(lam: Partition, i: int, d) -> int:
    """Number of standard tableaux of shape lam with i-parity string d."""
    return len(enumerate_by_parity(lam, i, d))


def phi_polynomial(lam: Partition, i: int, word) -> MultiPoly:
    """Generating polynomial over contents j with sum(j) = |lam|."""
    lam = check_partition(lam)
    i = check_bit(i)
    word = check_word(word)
    k = len(word)
    istar = (i + word[0] + 1) % 2
    chess = enumerate_chess(lam, istar, k)
    poly = MultiPoly(k, {j: len(tabs) for j, tabs in chess.items()})
    if poly and not poly.is_homogeneous(size(lam)):
        raise AssertionError(f"chess contents of {lam} do not all sum to |lam|")
    return poly
