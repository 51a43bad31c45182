"""The flag-counting generating polynomial attached to a shape and parity.

The polynomial in a1..ak for a shape lam, parity i, and alternating word of
length k has, as coefficient of a^j, the number of chess tableaux of shape
lam, parity ``(i + word[0] + 1) % 2``, and content j.  Each such coefficient
equals the number of standard tableaux whose i-parity string is the expanded
word, divided by j_1! ... j_k!, which is an exact integer.  Every monomial has total
degree |lam|.  Both counts are walks of the one kernel ``MultiPoly.transfer_walk``
over the shapes inside lam, each with its own moves.
"""

from __future__ import annotations

from .multipoly import MultiPoly
from .partitions import (
    Partition, check_bit, check_factorization_word, check_parity_string, check_partition, size
)


def euler_char(lam: Partition, i: int, d) -> int:
    """Number of standard tableaux of shape lam with i-parity string d.

    A walk over the shapes inside lam whose moves all have exponent 0, so it
    counts: label c + 1 fills an addable corner (s, length) of box parity d_c.
    """
    lam = check_partition(lam)
    i = check_bit(i)
    d = check_parity_string(d, lam)

    def moves(c: int, shape: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
        return [
            (shape[:s] + (length + 1,) + shape[s + 1 :], 0)
            for s, (length, full) in enumerate(zip(shape, lam))
            if length < full and (s == 0 or shape[s - 1] > length) and (s + length + i) % 2 == d[c]
        ]

    return MultiPoly.transfer_walk(len(d), (0,) * len(lam), lam, moves)._coefficient((0,) * len(d))


def phi_polynomial(lam: Partition, i: int, word) -> MultiPoly:
    """Generating polynomial over contents j with sum(j) = |lam|.

    Counted by a walk over the shapes inside lam, one label at a time.  The
    parity makes neighbouring labels differ, so a chess tableau holds each
    label at most once per row and column: label c + 1 fills a set of
    addable corners of the shape filled so far, each of the label's parity.
    A shape is dropped once a row has more boxes left than labels remain.
    """
    lam = check_partition(lam)
    i = check_bit(i)
    word = check_factorization_word(word)
    k = len(word)
    istar = (i + word[0] + 1) % 2

    def moves(c: int, shape: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
        left = k - c - 1
        label_parity = (c + 1) % 2
        grown: list[tuple[tuple[int, ...], int]] = [((), 0)]
        for s, (length, full) in enumerate(zip(shape, lam)):
            steps = [0] if full - length <= left else []
            if (
                length < full
                and (s == 0 or shape[s - 1] > length)
                and (s + length + istar) % 2 == label_parity
            ):
                steps.append(1)
            grown = [(rows + (length + d,), e + d) for rows, e in grown for d in steps]
        return grown

    poly = MultiPoly.transfer_walk(k, (0,) * len(lam), lam, moves)
    if poly and not poly.is_homogeneous(size(lam)):
        raise AssertionError(f"chess contents of {lam} do not all sum to |lam|")
    return poly
