from itertools import combinations

from hypothesis import given, settings

import pytest

from loopminors.errors import DomainError, InvalidWindowError
from loopminors.partitions import (
    check_partition,
    conjugate,
    contains,
    format_partition,
    index_set,
    max_index,
    parse_partition,
    part,
    partitions_of,
    partitions_up_to,
    size,
    subpartitions,
)

from conftest import partition_strategy


def test_check_partition_normalizes():
    assert check_partition([4, 3, 2, 2, 1]) == (4, 3, 2, 2, 1)
    assert check_partition([2, 1, 0, 0]) == (2, 1)
    assert check_partition([]) == ()


def test_check_partition_rejects_bad_input():
    with pytest.raises(DomainError):
        check_partition([1, 2])
    with pytest.raises(DomainError):
        check_partition([2, -1])


def test_part_reads_zero_beyond_length():
    assert part((3, 1), 0) == 3
    assert part((3, 1), 5) == 0


def test_max_index_convention():
    assert max_index((4, 3, 2, 2, 1)) == 4
    assert max_index(()) == 0


def test_contains_examples():
    assert contains((), (2, 1))
    assert contains((2, 1), (4, 3, 2, 2, 1))
    assert not contains((3,), (2, 2))


def test_index_set_examples():
    assert index_set((4, 3, 2, 2, 1), 0, 4) == [4, 2, 0, -1, -3]
    assert index_set((), 1, 1) == [1, 0]
    assert index_set((2, 1), 1, 1) == [3, 1]
    assert index_set((2, 1, 0), 0, 1) == [2, 0]  # a trailing zero part is stripped


def test_index_set_window_guard():
    with pytest.raises(InvalidWindowError):
        index_set((2, 1, 1), 0, 1)


@given(lam=partition_strategy(), )
@settings(max_examples=100)
def test_index_set_strictly_decreasing(lam):
    for i in (0, 1):
        values = index_set(lam, i, max_index(lam) + 2)
        assert all(a > b for a, b in zip(values, values[1:]))
        assert len(set(values)) == len(values)


@given(a=partition_strategy(), b=partition_strategy(), c=partition_strategy())
@settings(max_examples=200)
def test_contains_is_a_partial_order(a, b, c):
    assert contains(a, a)
    if contains(a, b) and contains(b, a):
        assert a == b
    if contains(a, b) and contains(b, c):
        assert contains(a, c)


def test_parse_and_format_round_trip():
    assert parse_partition("4,3,2,2,1") == (4, 3, 2, 2, 1)
    assert parse_partition("") == ()
    assert format_partition((2, 1)) == "2,1"
    assert format_partition(()) == ""
    with pytest.raises(DomainError):
        parse_partition("2,x")


def test_partitions_of_counts():
    expected = {0: 1, 1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11}
    for n, count in expected.items():
        parts = partitions_of(n)
        assert len(parts) == count
        assert all(size(p) == n for p in parts)
    assert len(partitions_up_to(6)) == sum(expected.values())


def partitions_by_compositions(n: int) -> list:
    """The partitions of n in descending lexicographic order, with no growth: each
    composition of n, cut at a subset of 1..n-1, with its parts sorted largest first."""
    found = {()} if n == 0 else set()
    for k in range(n):
        for cuts in combinations(range(1, n), k):
            bounds = (0, *cuts, n)
            found.add(tuple(sorted((b - a for a, b in zip(bounds, bounds[1:])), reverse=True)))
    return sorted(found, reverse=True)


def test_partition_lists_match_the_compositions():
    by_size = [partitions_by_compositions(n) for n in range(13)]
    assert [len(parts) for parts in by_size] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
    for n in range(13):
        assert partitions_of(n) == by_size[n], n
    for n in range(11):
        assert partitions_up_to(n) == [lam for parts in by_size[: n + 1] for lam in parts], n
    assert partitions_up_to(-1) == []


def test_subpartitions_explicit():
    assert subpartitions((2, 1)) == [(2, 1), (2,), (1, 1), (1,), ()]


def test_subpartitions_are_contained_and_complete():
    # every partition inside lam, each once, in descending lexicographic order
    for lam in partitions_up_to(8):
        inside = [mu for mu in partitions_up_to(size(lam)) if contains(mu, lam)]
        assert subpartitions(lam) == sorted(inside, reverse=True)


def test_conjugate_is_an_involution_that_keeps_the_size():
    for lam in partitions_up_to(10):
        assert conjugate(conjugate(lam)) == lam
        assert size(conjugate(lam)) == size(lam)


def test_conjugate_is_the_transpose_of_the_box_set():
    for lam in partitions_up_to(10):
        boxes = {(c, r) for r, length in enumerate(lam) for c in range(length)}
        rows = [sum(1 for r, _ in boxes if r == row) for row in range(size(lam) + 1)]
        assert conjugate(lam) == check_partition(rows)
    assert conjugate((4, 3, 1)) == (3, 2, 2, 1)


def test_conjugate_of_the_empty_partition_is_empty():
    assert conjugate(()) == ()
