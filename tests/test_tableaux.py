from itertools import accumulate, permutations, product

import pytest
from hypothesis import given, settings

from loopminors.errors import DomainError
from loopminors.partitions import check_word, is_alternating, partitions_up_to, size
from loopminors.tableaux import (
    ChessTableau,
    StandardTableau,
    enumerate_by_parity,
    enumerate_chess,
    enumerate_standard,
    expand_word,
    ground_state,
    parity_string,
)
from loopminors.verify import alternating_words, compositions

from conftest import hook_length_count, partition_strategy


def box_parity(s: int, t: int, i: int) -> int:
    """Parity of s + t + i for the box in row s, column t."""
    return (s + t + i) % 2


def sigma(j, t: int) -> int:
    """Smallest s (1-origin) with j_1 + ... + j_s >= t."""
    if not 1 <= t <= sum(j):
        raise DomainError(f"position {t} outside 1..{sum(j)}")
    return next(s for s, running in enumerate(accumulate(j), start=1) if running >= t)


def test_box_parity():
    assert box_parity(0, 0, 0) == 0
    assert box_parity(0, 1, 0) == 1
    assert box_parity(1, 1, 1) == 1


def test_is_alternating_and_indicator():
    assert is_alternating((1, 0, 1, 0))
    assert not is_alternating((1, 1))
    assert is_alternating(())


def test_check_word_rejects():
    with pytest.raises(DomainError):
        check_word((0, 0))
    with pytest.raises(DomainError):
        check_word((0, 2))


def test_enumerate_standard_small_shapes():
    two_one = enumerate_standard((2, 1))
    assert [t.to_lists() for t in two_one] == [[[1, 2], [3]], [[1, 3], [2]]]
    column = enumerate_standard((1, 1))
    assert [t.to_lists() for t in column] == [[[1], [2]]]
    empty = enumerate_standard(())
    assert len(empty) == 1 and empty[0].to_lists() == []


def test_enumerate_standard_counts_match_hook_lengths():
    for lam in partitions_up_to(6):
        assert len(enumerate_standard(lam)) == hook_length_count(lam)


def test_standard_tableau_rejects_bad_fillings():
    with pytest.raises(DomainError):
        StandardTableau([[2, 1]])
    with pytest.raises(DomainError):
        StandardTableau([[1, 2], [2]])
    with pytest.raises(DomainError):
        StandardTableau([[1], [2, 3]])


def test_parity_string_examples():
    T1 = StandardTableau([[1, 2], [3]])
    T2 = StandardTableau([[1, 3], [2]])
    column = StandardTableau([[1], [2]])
    assert parity_string(T1, 0) == (0, 1, 1)
    assert parity_string(T2, 1) == (1, 0, 0)
    assert parity_string(column, 0) == (0, 1)


def test_enumerate_by_parity_examples():
    both = enumerate_by_parity((2, 1), 1, (1, 0, 0))
    assert len(both) == 2
    assert enumerate_by_parity((2, 1), 0, (1, 0, 0)) == []
    only = enumerate_by_parity((1, 1), 0, (0, 1))
    assert [t.to_lists() for t in only] == [[[1], [2]]]


@given(lam=partition_strategy(max_size=6))
@settings(max_examples=30, deadline=None)
def test_parity_classes_partition_all_tableaux(lam):
    for i in (0, 1):
        classes = {}
        for T in enumerate_standard(lam):
            classes.setdefault(parity_string(T, i), []).append(T)
        assert sum(len(v) for v in classes.values()) == hook_length_count(lam)


def test_enumerate_chess_golden_contents():
    grouped = enumerate_chess((2, 1), 1, 4)
    counts = {j: len(tabs) for j, tabs in grouped.items()}
    assert counts == {
        (1, 2, 0, 0): 1,
        (1, 1, 0, 1): 2,
        (1, 0, 0, 2): 1,
        (0, 0, 1, 2): 1,
    }


def test_enumerate_chess_edge_cases():
    assert enumerate_chess((1,), 0, 1) == {}
    empty = enumerate_chess((), 0, 3)
    assert list(empty) == [(0, 0, 0)]
    assert empty[(0, 0, 0)][0].rows == ()


@given(lam=partition_strategy(max_size=5))
@settings(max_examples=20, deadline=None)
def test_chess_tableaux_are_strict_both_ways(lam):
    for i in (0, 1):
        for tabs in enumerate_chess(lam, i, 5).values():
            for tab in tabs:
                for row in tab.rows:
                    assert all(a < b for a, b in zip(row, row[1:]))
                for upper, lower in zip(tab.rows, tab.rows[1:]):
                    assert all(upper[t] < lower[t] for t in range(len(lower)))


def test_sigma_examples():
    assert sigma((2, 1), 2) == 1
    assert sigma((2, 1), 3) == 2
    assert sigma((0, 5), 1) == 2
    with pytest.raises(DomainError):
        sigma((2, 1), 4)
    with pytest.raises(DomainError):
        sigma((2, 1), 0)


def test_expand_word_examples():
    assert expand_word((1, 0), (2, 1)) == (1, 1, 0)
    assert expand_word((1, 0, 1, 0), (0, 0, 1, 2)) == (1, 0, 0)
    assert expand_word((0,), (0,)) == ()
    with pytest.raises(DomainError):
        expand_word((1, 1), (1, 1))


def test_expand_word_repeats_each_letter_as_sigma_reads_it():
    for length in range(1, 7):
        for word in alternating_words(length):
            for total in range(7):
                for j in compositions(total, length):
                    by_sigma = tuple(word[sigma(j, t) - 1] for t in range(1, total + 1))
                    assert expand_word(word, j) == by_sigma, (word, j)


def test_ground_state_examples():
    assert ground_state(StandardTableau([[1, 2], [3]]), 1) == 1
    assert ground_state(StandardTableau([[1, 3], [2]]), 1) == 0
    assert ground_state(StandardTableau([[1], [2]]), 0) == 0


def test_ground_state_three_one_shape():
    # gr values within one parity class sum to the number of swappable pairs
    T_b = StandardTableau([[1, 2, 4], [3]])
    T_c = StandardTableau([[1, 3, 4], [2]])
    assert ground_state(T_b, 0) == 1
    assert ground_state(T_c, 0) == 0



def _standard(rows) -> bool:
    # strict increase along each row and down each column, box by box
    for s, row in enumerate(rows):
        for t, label in enumerate(row):
            if t > 0 and row[t - 1] >= label:
                return False
            if s > 0 and rows[s - 1][t] >= label:
                return False
    return True


def _ground_state_by_docstring(rows, i) -> int:
    # pairs s < t with d_s = d_t whose exchange stays standard, s in a higher
    # row than t and t in a column left of s
    where = {label: (r, c) for r, row in enumerate(rows) for c, label in enumerate(row)}
    d = {label: (r + c + i) % 2 for label, (r, c) in where.items()}
    count = 0
    for s in where:
        for t in where:
            if not (s < t and d[s] == d[t]):
                continue
            (row_s, col_s), (row_t, col_t) = where[s], where[t]
            swapped = [[{s: t, t: s}.get(v, v) for v in row] for row in rows]
            if _standard(swapped) and row_s < row_t and col_t < col_s:
                count += 1
    return count


def test_ground_state_and_parity_string_on_every_shape_up_to_six():
    for lam in partitions_up_to(6):
        for T in enumerate_standard(lam):
            rows = T.to_lists()
            for i in (0, 1):
                assert ground_state(T, i) == _ground_state_by_docstring(rows, i), (rows, i)
                by_box = {v: box_parity(s, t, i) for s, row in enumerate(rows) for t, v in enumerate(row)}
                assert parity_string(T, i) == tuple(by_box[v] for v in range(1, len(by_box) + 1))


def _cut(lam, labels):
    """The rows of lam filled by a sequence of labels in row-reading order."""
    ends = list(accumulate(lam, initial=0))
    return tuple(tuple(labels[a:b]) for a, b in zip(ends, ends[1:]))


def test_enumerate_standard_is_every_increasing_permutation_filling():
    # every filling of lam's boxes by a permutation of 1..n that increases
    # along rows and down columns, in sorted order of the rows
    for lam in partitions_up_to(6):
        fillings = (_cut(lam, perm) for perm in permutations(range(1, size(lam) + 1)))
        expected = sorted(rows for rows in fillings if _standard(rows))
        assert [T.rows for T in enumerate_standard(lam)] == expected, lam


def test_enumerate_chess_is_every_labelling_with_the_chess_conditions():
    # strict rows, weak columns and the box parities, grouped by content with
    # the keys sorted and each group in row-reading order of the labels
    for lam in partitions_up_to(4):
        for i in (0, 1):
            for k in range(6):
                grouped = {}
                for labels in product(range(1, k + 1), repeat=size(lam)):
                    rows = _cut(lam, labels)
                    if (all(a < b for row in rows for a, b in zip(row, row[1:]))
                            and all(a <= b for up, low in zip(rows, rows[1:])
                                    for a, b in zip(up, low))
                            and all(v % 2 == box_parity(s, t, i)
                                    for s, row in enumerate(rows) for t, v in enumerate(row))):
                        content = tuple(labels.count(c) for c in range(1, k + 1))
                        grouped.setdefault(content, []).append(rows)
                found = enumerate_chess(lam, i, k)
                assert list(found) == sorted(grouped), (lam, i, k)
                assert {j: [T.rows for T in tabs] for j, tabs in found.items()} == grouped
                assert all(T.content == j and T.parity == i
                           for j, tabs in found.items() for T in tabs)


def test_standard_tableau_is_a_value():
    T = StandardTableau([[1, 2], [3], []])
    assert T == StandardTableau(((1, 2), (3,)))
    assert hash(T) == hash(StandardTableau(((1, 2), (3,))))
    assert T.rows == ((1, 2), (3,))
    assert repr(T) == "StandardTableau(rows=((1, 2), (3,)))"
    with pytest.raises(AttributeError, match="cannot assign to field 'rows'"):
        T.rows = ((1,),)
    assert T.rows == ((1, 2), (3,)) and T != T.rows
    with pytest.raises(DomainError):
        StandardTableau([[0, 2], [3]])
    with pytest.raises(DomainError):
        StandardTableau([[1, 3], [3]])


def test_chess_tableau_is_a_value():
    T = ChessTableau(rows=[[1, 2]], parity=1, content=[1, 1])
    assert T == ChessTableau(((1, 2),), 1, (1, 1)) and hash(T) == hash(ChessTableau(((1, 2),), 1, (1, 1)))
    assert T != ChessTableau(((1, 2),), 1, (1, 1, 0)) and T != StandardTableau(((1, 2),))
    assert repr(T) == "ChessTableau(rows=((1, 2),), parity=1, content=(1, 1))"
    for name, value in (("rows", ((1,),)), ("parity", 0), ("content", (1,))):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(T, name, value)
    assert (T.rows, T.parity, T.content) == (((1, 2),), 1, (1, 1))
