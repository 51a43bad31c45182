"""One transfer walk per word family: every prefix's value off one walk.

The alternating word of length k that starts with letter s is a prefix of the
one of length K, and both routes' moves at step c read only c, the letter and
the steps left, which only prune.  So ``phi_prefixes`` and
``lindstrom_prefixes`` read every shorter word's value off the walk of the
longest, and the word sweeps walk once per shape and start letter.
"""

import pytest

from loopminors import verify
from loopminors.multipoly import MultiPoly
from loopminors.networks import lindstrom_minor, lindstrom_prefixes
from loopminors.partitions import partitions_up_to, subpartitions
from loopminors.phi import phi_polynomial, phi_prefixes
from loopminors.verify import alternating_words, summarize, sweep


def up(c, level):
    return [(level + e, e) for e in (0, 1) if level + e <= 2]


def test_a_walk_reports_the_end_state_after_every_step():
    steps = MultiPoly.transfer_walk(3, 0, 2, up, every=True)
    assert steps == [
        MultiPoly.zero(1),
        MultiPoly(2, {(1, 1): 1}),
        MultiPoly(3, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}),
    ]
    assert [poly.nvars for poly in steps] == [1, 2, 3]
    assert MultiPoly.transfer_walk(3, 0, 2, up) == steps[-1:]
    assert MultiPoly.transfer_walk(0, 0, 0, up, every=True) == []


def test_phi_prefixes_equal_the_route_pruned_at_each_length():
    for lam in partitions_up_to(6):
        for i in (0, 1):
            for word in alternating_words(8):
                prefixes = phi_prefixes(lam, i, word)
                assert len(prefixes) == 8
                for k, poly in enumerate(prefixes, 1):
                    assert poly == phi_polynomial(lam, i, word[:k]), (lam, i, word[:k])
                    assert poly.nvars == k
                    assert all(e <= poly._bound for exps, _ in poly.sorted_terms() for e in exps)


def test_lindstrom_prefixes_equal_the_route_pruned_at_each_length():
    cases = 0
    for lam in partitions_up_to(6):
        for mu in subpartitions(lam) if sum(lam) <= 5 else [()]:
            for i in (0, 1):
                for word in alternating_words(8):
                    prefixes = lindstrom_prefixes(word, mu, lam, i)
                    for k, poly in enumerate(prefixes, 1):
                        assert poly == lindstrom_minor(word[:k], mu, lam, i), (word[:k], mu, lam, i)
                        assert poly.nvars == k
                        cases += 1
    # 110 pairs (mu, lam) with |lam| <= 5, and the 11 straight shapes of size 6
    assert cases == (110 + 11) * 2 * 2 * 8


def _one_layer_late(route, word_at):
    """``route`` reading layer k + 1 for the prefix of length k."""
    def late(*args):
        word = args[word_at]
        longer = word + ((word[-1] + 1) % 2,)
        return route(*args[:word_at], longer, *args[word_at + 1 :])[1:]
    return late


@pytest.mark.parametrize(
    "target, route, word_at",
    [("theorem2", "phi_prefixes", 2), ("theorem2", "lindstrom_prefixes", 0),
     ("lindstrom", "lindstrom_prefixes", 0)],
)
def test_a_read_one_layer_late_fails_every_case(monkeypatch, target, route, word_at):
    monkeypatch.setattr(verify, route, _one_layer_late(getattr(verify, route), word_at))
    reports = list(sweep(target, 3, 4))
    assert reports and not any(report.ok for report in reports)


def _counted_walks(monkeypatch):
    """The kernel's calls, as (route module, steps, every), while the patch is on."""
    walks = []
    real = MultiPoly.transfer_walk.__func__

    def counted(cls, nvars, start, end, moves, every=False):
        walks.append((moves.__module__.rpartition(".")[2], nvars, every))
        return real(cls, nvars, start, end, moves, every)

    monkeypatch.setattr(MultiPoly, "transfer_walk", classmethod(counted))
    return walks


@pytest.mark.parametrize(
    "target, max_size, max_word, counts",
    [
        # word by word these were 1,440 walks of each route, 2,640 and 456
        ("theorem2", 7, 8, {"phi": 180, "networks": 180}),
        ("lindstrom", 5, 6, {"networks": 440}),
        ("prop1", 5, 6, {"phi": 76}),
    ],
)
def test_a_sweep_walks_once_per_shape_and_start_letter(monkeypatch, target, max_size, max_word, counts):
    walks = _counted_walks(monkeypatch)
    assert summarize(sweep(target, max_size, max_word))["failures"] == 0
    assert {route: sum(1 for w in walks if w[0] == route) for route in counts} == counts
    assert len(walks) == sum(counts.values())
    assert set(walks) == {(route, max_word, True) for route in counts}


def test_a_single_word_call_walks_once_and_keeps_only_the_last_step(monkeypatch):
    walks = _counted_walks(monkeypatch)
    word = (1, 0, 1, 0)
    assert phi_polynomial((2, 1), 1, word) == lindstrom_minor(word, (), (2, 1), 1)
    assert walks == [("phi", 4, False), ("networks", 4, False)]
    # check() walks the case's own word, to its own length
    del walks[:]
    assert verify.check("theorem2", word, (2, 1), 1).ok
    assert walks == [("phi", 4, True), ("networks", 4, True)]
