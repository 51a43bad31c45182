"""Standard and chess tableaux, parity strings, expansion words, ground states.

Conventions frozen throughout the package: box coordinates (s, t) are
0-origin (top row and leftmost column are row and column zero), labels are
1-origin.  The parity of the box (s, t) at tableau parity i is
``(s + t + i) % 2``.  Rows of a tableau increase strictly left to right;
columns of a standard tableau increase strictly top to bottom, while a
semi-standard filling only needs weak column increase.
"""

from __future__ import annotations

from .errors import DomainError
from .partitions import (
    BitString, Partition, Value, check_bit, check_count, check_int, check_ints,
    check_parity_string, check_partition, check_word, is_prime_power, size,
)


def _rows_standard(rows) -> bool:
    """Strict increase along the rows and down the columns of a partition-shaped grid."""
    return all(a < b for row in rows for a, b in zip(row, row[1:])) and all(
        a < b for upper, lower in zip(rows, rows[1:]) for a, b in zip(upper, lower)
    )


def _check_rows(rows) -> tuple[tuple[int, ...], ...]:
    """Integer rows of a partition shape, strictly increasing both ways."""
    rows = tuple(check_ints(row, "tableau") for row in rows)
    if len(check_partition([len(row) for row in rows])) != len(rows):
        raise DomainError("empty rows are not allowed in a tableau")
    if not _rows_standard(rows):
        raise DomainError(f"filling {rows} does not increase strictly along rows and columns")
    return rows


def _boxes(rows) -> dict[int, tuple[int, int]]:
    """Label -> (row, column) of a filling with distinct labels."""
    return {label: (s, t) for s, row in enumerate(rows) for t, label in enumerate(row)}


class StandardTableau(Value):
    """A filling of a partition shape with the labels 1..|lam|, each once, strictly increasing
    along the rows and down the columns.  Trailing empty rows are dropped."""

    _fields = ("rows",)

    def __init__(self, rows):
        rows = [check_ints(row, "tableau") for row in rows]
        while rows and not rows[-1]:
            rows.pop()
        rows = _check_rows(rows)
        labels = sorted(label for row in rows for label in row)
        if labels != list(range(1, len(labels) + 1)):
            raise DomainError(f"a standard tableau requires content (1,...,1), got labels {labels}")
        vars(self).update(rows=rows)

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.rows]


class ChessTableau(Value):
    """A semi-standard filling whose box parities match the label parities.

    Rows and columns must weakly increase.  The parity condition makes
    neighbouring labels differ, so the increase is then strict both ways,
    which is the row check shared with ``StandardTableau``.  Both conditions
    are checked on construction.
    """

    _fields = ("rows", "parity", "content")

    def __init__(self, rows, parity: int, content=()):
        parity = check_bit(parity)
        rows = _check_rows(rows)
        content = check_ints(content, "content")
        k = len(content)
        counts = [0] * k
        for s, row in enumerate(rows):
            for t, label in enumerate(row):
                if not 1 <= label <= k:
                    raise DomainError(f"label {label} outside 1..{k}")
                if label % 2 != (s + t + parity) % 2:
                    raise DomainError(
                        f"label {label} at box ({s},{t}) violates the parity condition"
                    )
                counts[label - 1] += 1
        if tuple(counts) != content:
            raise DomainError(f"content mismatch: counted {tuple(counts)}")
        vars(self).update(rows=rows, parity=parity, content=content)

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.rows]


def enumerate_standard(lam: Partition) -> list[StandardTableau]:
    """All standard tableaux of shape lam with content (1, ..., 1).

    Label l extends each filling at each row that is not full and is the top
    row or shorter than the one above.  Returned in lexicographic order of the
    rows, so callers and golden files see a stable enumeration.
    """
    lam = check_partition(lam)
    fillings = [((),) * len(lam)]
    for label in range(1, size(lam) + 1):
        fillings = [
            rows[:s] + (rows[s] + (label,),) + rows[s + 1:]
            for rows in fillings for s in range(len(lam))
            if len(rows[s]) < lam[s] and (s == 0 or len(rows[s - 1]) > len(rows[s]))
        ]
    return [StandardTableau._made(rows=rows) for rows in sorted(fillings)]


def parity_string(tableau: StandardTableau, i: int) -> BitString:
    """Bit string d with d_t the i-parity of the box labeled t."""
    if not isinstance(tableau, StandardTableau):
        raise DomainError(f"a parity string needs a StandardTableau, got {type(tableau).__name__}")
    i = check_bit(i)
    return tuple((s + t + i) % 2 for _, (s, t) in sorted(_boxes(tableau.rows).items()))


def enumerate_by_parity(lam: Partition, i: int, d) -> list[StandardTableau]:
    """Standard tableaux of shape lam whose i-parity string equals d."""
    lam = check_partition(lam)
    i = check_bit(i)
    d = check_parity_string(d, lam)
    return [T for T in enumerate_standard(lam) if parity_string(T, i) == d]


def enumerate_chess(lam: Partition, i: int, k: int) -> dict[tuple[int, ...], list[ChessTableau]]:
    """All chess tableaux of shape lam and parity i with labels in 1..k, grouped by
    content (length k) with sorted keys; k is explicit, as the full family is infinite.

    Box (s, t), in row-reading order, takes each label of parity (s + t + i) % 2
    past its left neighbour's and at least its upper neighbour's.
    """
    lam = check_partition(lam)
    i = check_bit(i)
    k = check_count(k, "label bound")
    boxes = [(s, t) for s in range(len(lam)) for t in range(lam[s])]
    # a filling's position 0 holds a 0, read for the neighbours outside the shape
    at = {box: n for n, box in enumerate(boxes, start=1)}
    fillings = [(0,)]
    for s, t in boxes:
        left, above = at.get((s, t - 1), 0), at.get((s - 1, t), 0)
        fillings = [
            labels + (label,)
            for labels in fillings for label in range(max(labels[left] + 1, labels[above]), k + 1)
            if label % 2 == (s + t + i) % 2
        ]
    grouped: dict[tuple[int, ...], list[ChessTableau]] = {}
    for labels in fillings:
        rows = tuple(labels[at[s, 0]:at[s, 0] + p] for s, p in enumerate(lam))
        content = tuple(labels.count(c) for c in range(1, k + 1))
        tableau = ChessTableau._made(rows=rows, parity=i, content=content)
        grouped.setdefault(content, []).append(tableau)
    return {j: grouped[j] for j in sorted(grouped)}


def expand_word(word, j) -> BitString:
    """The bit string of length sum(j) whose t-th bit is word[s], for the
    smallest s (1-origin) with j_1 + ... + j_s >= t.

    ``word`` must be alternating and the content j nonnegative with
    len(j) == len(word).
    """
    word = check_word(word)
    j = check_ints(j, "content")
    if len(j) != len(word):
        raise DomainError(f"content length {len(j)} != word length {len(word)}")
    if any(v < 0 for v in j):
        raise DomainError(f"content must be nonnegative, got {j}")
    return tuple(bit for bit, v in zip(word, j) for _ in range(v))


def ground_state(tableau: StandardTableau, i: int) -> int:
    """Number of grounded d-transposition pairs of a standard tableau.

    A pair {s, t} with s < t counts when d_s = d_t (d the i-parity string),
    exchanging the labels s and t leaves the tableau standard, the row of s
    is above the row of t, and the column of t is left of the column of s.
    """
    d = parity_string(tableau, i)
    boxes = _boxes(tableau.rows)
    grid = [list(row) for row in tableau.rows]
    count = 0
    for s in range(1, len(d) + 1):
        row_s, col_s = boxes[s]
        for t in range(s + 1, len(d) + 1):
            row_t, col_t = boxes[t]
            if d[s - 1] != d[t - 1] or not (row_s < row_t and col_t < col_s):
                continue
            grid[row_s][col_s], grid[row_t][col_t] = t, s
            count += _rows_standard(grid)
            grid[row_s][col_s], grid[row_t][col_t] = s, t
    return count


def conjecture1_prediction(lam: Partition, i: int, d, q: int) -> int:
    """Sum of q^(ground state) over the tableaux with i-parity string d.

    q is a field size, so a prime power, or 1, where the sum is the Euler
    characteristic ``euler_char``; any other q is a DomainError.
    """
    q = check_int(q, "field size")
    if q != 1 and not is_prime_power(q):
        raise DomainError(f"field size {q} is neither a prime power nor 1")
    return sum(q ** ground_state(T, i) for T in enumerate_by_parity(lam, i, d))
