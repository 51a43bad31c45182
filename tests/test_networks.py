from collections import Counter
from itertools import accumulate, product

import pytest
from hypothesis import given, settings

from loopminors.errors import DomainError
from loopminors.loop import generator, word_to_loop
from loopminors.multipoly import MultiPoly
from loopminors.networks import (
    PathFamily,
    enumerate_families,
    family_weight,
    lindstrom_minor,
    render_family,
)
from loopminors.partitions import contains, part, partitions_up_to, size, subpartitions
from loopminors.tableaux import ChessTableau, enumerate_chess
from loopminors.toeplitz import minor, toeplitz_entry
from loopminors.verify import all_words_up_to

from conftest import word_strategy

GOLDEN = "a1*a2^2 + 2*a1*a2*a4 + a1*a4^2 + a3*a4^2"


def chip_weight_entry(bit: int, source: int, sink: int) -> MultiPoly:
    """Weight-matrix entry of a single chip, as a polynomial in its parameter:
    level source reaches level sink straight across, or diagonally up from a
    level of the chip's parity."""
    if sink == source:
        return MultiPoly.one(1)
    if sink == source + 1 and source % 2 == bit:
        return MultiPoly.variable(1, 0)
    return MultiPoly.zero(1)


def path_to_tableau(family: PathFamily) -> ChessTableau:
    """Record each path's ascent chips as a tableau row.

    Only defined for families whose sources are i, i-1, ..., i-N with i in
    {0, 1} (the empty-mu case); the result is a chess tableau of parity
    (i + word[0] + 1) mod 2 whose content counts ascents per chip.
    """
    sources = [path[0] for path in family.levels]
    i = sources[0]
    if i not in (0, 1) or any(s != i - n for n, s in enumerate(sources)):
        raise DomainError("tableau bijection requires empty-mu sources i, i-1, ...")
    rows = [
        tuple(c for c in range(1, len(path)) if path[c] > path[c - 1]) for path in family.levels
    ]
    content = tuple(sum(c in row for row in rows) for c in range(1, len(family.word) + 1))
    return ChessTableau(rows=tuple(filter(None, rows)), parity=(i + family.word[0] + 1) % 2,
                        content=content)


def test_single_chip_weight_matrix_is_the_generator_matrix():
    a = MultiPoly.variable(1, 0)
    for bit in (0, 1):
        g = generator(bit, a)
        for source in range(-6, 7):
            for sink in range(-6, 7):
                assert chip_weight_entry(bit, source, sink) == toeplitz_entry(
                    g, source, sink
                )


def test_enumerate_families_golden_count():
    families = enumerate_families((1, 0, 1, 0), (), (2, 1), 1)
    assert len(families) == 5
    weights = Counter(family_weight(f).text() for f in families)
    assert weights == Counter(
        {"a1*a2*a4": 2, "a3*a4^2": 1, "a1*a4^2": 1, "a1*a2^2": 1}
    )


def test_enumerate_families_edge_cases():
    one = enumerate_families((0,), (), (1,), 0)
    assert len(one) == 1
    assert one[0].levels == ((0, 1),)
    assert enumerate_families((1,), (), (2,), 1) == []


def _paths_by_steps(word, source, sink):
    """The level sequences of the step strings in {0, 1}^k that rise only from a
    level of the chip's parity and end at the sink, in lexicographic order."""
    paths = (tuple(accumulate(steps, initial=source))
             for steps in product((0, 1), repeat=len(word)))
    return [path for path in paths if path[-1] == sink and all(
        b == a or a % 2 == bit for a, b, bit in zip(path, path[1:], word))]


def test_enumerate_families_is_every_separated_choice_of_step_strings():
    for lam in partitions_up_to(4):
        for mu in subpartitions(lam):
            for i in (0, 1):
                ends = [(part(mu, n) + i - n, part(lam, n) + i - n)
                        for n in range(max(len(lam), 1))]
                for word in [()] + all_words_up_to(5):
                    choices = product(*(_paths_by_steps(word, u, v) for u, v in ends))
                    expected = sorted(levels for levels in choices if all(
                        a > b for upper, lower in zip(levels, levels[1:])
                        for a, b in zip(upper, lower)))
                    found = enumerate_families(word, mu, lam, i)
                    assert [f.levels for f in found] == expected, (word, mu, lam, i)


def test_subpartitions_are_the_contained_partitions_by_padded_parts():
    for lam in partitions_up_to(8):
        inside = [mu for mu in partitions_up_to(size(lam)) if contains(mu, lam)]
        padded = sorted(inside, key=lambda mu: mu + (0,) * (len(lam) - len(mu)), reverse=True)
        assert subpartitions(lam) == padded, lam


def test_family_weight_no_ascents_is_one():
    fam = enumerate_families((1, 0), (1,), (1,), 1)[0]
    assert family_weight(fam) == MultiPoly.one(2)


def test_path_family_validation():
    with pytest.raises(DomainError):
        PathFamily(word=(0, 1), levels=((0, 1, 1), (0, 0, 0)))  # shares level 0 start
    with pytest.raises(DomainError):
        PathFamily(word=(0,), levels=((0, 2),))  # illegal step
    with pytest.raises(DomainError):
        PathFamily(word=(0,), levels=((1, 2),))  # ascent from odd level in a 0-chip
    # a valid family is a read-only value
    fam = PathFamily(word=[0, 1], levels=[[1, 1, 2], [0, 0, 0]])
    same = PathFamily(word=(0, 1), levels=((1, 1, 2), (0, 0, 0)))
    assert fam == same and hash(fam) == hash(same) and fam != PathFamily(word=(0, 1), levels=((0, 0, 0),))
    assert repr(fam) == "PathFamily(word=(0, 1), levels=((1, 1, 2), (0, 0, 0)))"
    with pytest.raises(AttributeError, match="cannot assign to field 'levels'"):
        fam.levels = ()
    assert fam.levels == ((1, 1, 2), (0, 0, 0))


def test_lindstrom_golden_example():
    assert lindstrom_minor((1, 0, 1, 0), (), (2, 1), 1).text() == GOLDEN


def test_lindstrom_single_box_and_equal_partitions():
    assert lindstrom_minor((0,), (), (1,), 0) == MultiPoly.variable(1, 0)
    for word in ((1, 0), (0, 1, 0)):
        for mu in ((), (1,), (2, 1)):
            assert lindstrom_minor(word, mu, mu, 0) == MultiPoly.one(len(word))


def test_path_to_tableau_worked_example():
    fam = PathFamily(
        word=(1, 0, 1, 0, 1),
        levels=((1, 2, 2, 2, 3, 4), (0, 0, 1, 1, 1, 2)),
    )
    tab = path_to_tableau(fam)
    assert tab.to_lists() == [[1, 4, 5], [2, 5]]
    assert tab.content == (1, 1, 0, 1, 2)
    assert tab.parity == 1


def test_path_to_tableau_simple_cases():
    single = enumerate_families((0,), (), (1,), 0)[0]
    assert path_to_tableau(single).to_lists() == [[1]]
    empty = enumerate_families((1, 0), (), (), 1)[0]
    assert path_to_tableau(empty).to_lists() == []


def test_path_to_tableau_rejects_nonempty_mu():
    fam = enumerate_families((1, 0), (1,), (1,), 1)[0]
    with pytest.raises(DomainError):
        path_to_tableau(fam)


def test_bijection_with_chess_tableaux():
    # families <-> chess tableaux, preserving content (weight)
    for lam in partitions_up_to(5):
        for i in (0, 1):
            for word in all_words_up_to(6):
                families = enumerate_families(word, (), lam, i)
                # the families come in lexicographic order of their levels
                assert [f.levels for f in families] == sorted(f.levels for f in families)
                istar = (i + word[0] + 1) % 2
                expected = [
                    tab
                    for tabs in enumerate_chess(lam, istar, len(word)).values()
                    for tab in tabs
                ]
                images = [path_to_tableau(fam) for fam in families]
                assert len(set(images)) == len(images)
                assert sorted(t.rows for t in images) == sorted(
                    t.rows for t in expected
                )
                for fam, tab in zip(families, images):
                    weight = family_weight(fam)
                    assert weight == MultiPoly.monomial(len(word), tab.content)


@given(word=word_strategy(max_length=5))
@settings(max_examples=20, deadline=None)
def test_lindstrom_equals_toeplitz_on_random_words(word):
    g = word_to_loop(word)
    for lam in ((1,), (2,), (1, 1), (2, 1)):
        for mu in subpartitions(lam):
            for i in (0, 1):
                assert lindstrom_minor(word, mu, lam, i) == minor(g, mu, lam, i)


def test_lindstrom_equals_toeplitz_full_grid():
    # all mu inside lam, |lambda| <= 5, words up to length 6
    from loopminors.verify import summarize, sweep

    assert summarize(sweep("lindstrom", 5, 6)) == {"cases": 2640, "failures": 0}


def test_render_family_is_deterministic_ascii():
    fam = enumerate_families((1, 0, 1, 0), (), (2, 1), 1)[0]
    art = render_family(fam)
    assert "*" in art and "/" in art
    assert art == render_family(fam)
    assert art.splitlines()[0].startswith("   3")


def test_render_family_draws_each_vertex_and_edge_in_place():
    # recorded from the rendering that scanned every (level, chip) pair; a gap
    # line that holds no ascent is left out
    fam = PathFamily((1, 0, 1, 0), ((1, 2, 2, 2, 3), (0, 0, 1, 1, 1)))
    assert render_family(fam).split("\n") == [
        "   3 o   o   o   o   *",
        "                   /",
        "   2 o   *---*---*   o",
        "       /",
        "   1 *   o   *---*---*",
        "           /",
        "   0 *---*   o   o   o",
    ]
    flat = PathFamily((1, 0), ((3, 3, 3), (0, 0, 0)))
    assert render_family(flat).split("\n") == [
        "   3 *---*---*", "   2 o   o   o", "   1 o   o   o", "   0 *---*---*",
    ]


def test_a_family_of_no_paths_renders_as_no_lines():
    empty = PathFamily((1, 0), ())
    assert family_weight(empty) == 1
    assert render_family(empty) == ""
