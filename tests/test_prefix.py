"""One value per word family: every prefix's value off the longest word's.

The alternating word of length k that starts with letter s is a prefix of the
one of length K.  A chess tableau with no label above k, or a path family with
no ascent past chip k, is one of the prefix, and a generator at parameter 0 is
the identity, so each route's value on ``word[:k]`` is its value on ``word`` at
a_{k+1} = ... = a_K = 0 (``MultiPoly._prefix``).  The word sweeps read every
shorter word's value off the longest's, and compute it once per shape and
start letter.
"""

import pytest

from loopminors import loop, networks, phi, verify
from loopminors.loop import word_to_loop
from loopminors.multipoly import MultiPoly
from loopminors.networks import lindstrom_minor
from loopminors.partitions import partitions_up_to, subpartitions
from loopminors.phi import phi_polynomial
from loopminors.toeplitz import minor, pieri_determinant
from loopminors.verify import alternating_words, summarize, sweep

from conftest import sorted_terms


def test_phi_prefixes_equal_the_route_pruned_at_each_length():
    for lam in partitions_up_to(6):
        for i in (0, 1):
            for word in alternating_words(8):
                whole = phi_polynomial(lam, i, word)
                for k in range(1, 9):
                    poly = whole._prefix(k)
                    assert poly == phi_polynomial(lam, i, word[:k]), (lam, i, word[:k])
                    assert poly.nvars == k
                    assert all(e <= poly._bound for exps, _ in sorted_terms(poly) for e in exps)


def test_lindstrom_prefixes_equal_the_route_pruned_at_each_length():
    cases = 0
    for lam in partitions_up_to(6):
        for mu in subpartitions(lam) if sum(lam) <= 5 else [()]:
            for i in (0, 1):
                for word in alternating_words(8):
                    whole = lindstrom_minor(word, mu, lam, i)
                    for k in range(1, 9):
                        poly = whole._prefix(k)
                        assert poly == lindstrom_minor(word[:k], mu, lam, i), (word[:k], mu, lam, i)
                        assert poly.nvars == k
                        cases += 1
    # 110 pairs (mu, lam) with |lam| <= 5, and the 11 straight shapes of size 6
    assert cases == (110 + 11) * 2 * 2 * 8


def test_determinant_prefixes_equal_the_routes_pruned_at_each_length():
    cases = 0
    for lam in partitions_up_to(6):
        for mu in subpartitions(lam) if sum(lam) <= 5 else [()]:
            for i in (0, 1):
                for word in alternating_words(8):
                    loops = [word_to_loop(word[:k]) for k in range(1, 9)]
                    whole = minor(loops[-1], mu, lam, i)
                    pieri = pieri_determinant(loops[-1], lam, i) if not mu else None
                    for k, g in enumerate(loops, 1):
                        poly = whole._prefix(k)
                        assert poly == minor(g, mu, lam, i), (word[:k], mu, lam, i)
                        assert poly.nvars == k
                        if pieri is not None:
                            assert pieri._prefix(k) == pieri_determinant(g, lam, i), (word[:k], lam, i)
                        cases += 1
    # as for the Lindström walks: 110 pairs (mu, lam) with |lam| <= 5, 11 shapes of size 6
    assert cases == (110 + 11) * 2 * 2 * 8


@pytest.mark.parametrize(
    "target, route, word_at",
    [("theorem2", "phi_polynomial", 2), ("theorem2", "lindstrom_minor", 0),
     ("lindstrom", "lindstrom_minor", 0), ("theorem2", "word_to_loop", 0)],
)
def test_a_read_one_layer_late_fails_every_case(monkeypatch, target, route, word_at):
    # the route under test runs one letter past the sweep's longest word (the Toeplitz route
    # takes its word through word_to_loop), so only its values have more letters: each of them
    # is read one layer late, its restriction to k + 1 letters as its value on k, while the
    # other routes read their own; verify imports each route from its module when it runs
    home = {"phi_polynomial": phi, "lindstrom_minor": networks, "word_to_loop": loop}[route]
    real, cut, longest = getattr(home, route), MultiPoly._prefix, 4

    def longer(*args):
        word = args[word_at]
        return real(*args[:word_at], word + ((word[-1] + 1) % 2,), *args[word_at + 1 :])

    monkeypatch.setattr(home, route, longer)
    monkeypatch.setattr(MultiPoly, "_prefix", lambda p, k: cut(p, k + (p.nvars > longest)))
    reports = list(sweep(target, 3, longest))
    assert reports and not any(report.ok for report in reports)


def _counted_walks(monkeypatch):
    """The kernel's calls, as (function whose moves walk, steps), while the patch is on."""
    walks = []
    real = MultiPoly.transfer_walk.__func__

    def counted(cls, nvars, start, end, moves):
        walks.append((moves.__qualname__.partition(".")[0], nvars))
        return real(cls, nvars, start, end, moves)

    monkeypatch.setattr(MultiPoly, "transfer_walk", classmethod(counted))
    return walks


@pytest.mark.parametrize(
    "target, max_size, max_word, counts",
    [
        # word by word these were 1,440 walks of each route, 2,640 and 456
        ("theorem2", 7, 8, {"phi_polynomial": 180, "lindstrom_minor": 180, "euler_char": 0}),
        ("lindstrom", 5, 6, {"lindstrom_minor": 440, "euler_char": 0}),
        # and one parity walk per distinct (lambda, i, d), as tests/test_prop1.py pins
        ("prop1", 5, 6, {"phi_polynomial": 76, "euler_char": 678}),
    ],
)
def test_a_sweep_walks_once_per_shape_and_start_letter(monkeypatch, target, max_size, max_word, counts):
    walks = _counted_walks(monkeypatch)
    assert summarize(sweep(target, max_size, max_word))["failures"] == 0
    assert {route: sum(1 for w in walks if w[0] == route) for route in counts} == counts
    assert len(walks) == sum(counts.values())
    # the word routes walk the longest words; a parity walk takes one step per box
    assert {steps for route, steps in walks if route != "euler_char"} == {max_word}
    assert all(steps <= max_size for route, steps in walks if route == "euler_char")


def test_a_single_word_call_walks_once_and_keeps_only_the_last_step(monkeypatch):
    walks = _counted_walks(monkeypatch)
    word = (1, 0, 1, 0)
    assert phi_polynomial((2, 1), 1, word) == lindstrom_minor(word, (), (2, 1), 1)
    assert walks == [("phi_polynomial", 4), ("lindstrom_minor", 4)]
    # check() walks the case's own word, to its own length
    del walks[:]
    assert verify.check("theorem2", word, (2, 1), 1).ok
    assert walks == [("phi_polynomial", 4), ("lindstrom_minor", 4)]


@pytest.mark.parametrize(
    "target, case, restrictions",
    [("theorem2", ((1, 0, 1, 0), (2, 1), 1), 3),
     ("lindstrom", ((1, 0, 1, 0), (1,), (2, 1), 1), 2),
     ("prop1", ((1, 0, 1, 0), (2, 1), 1, (1, 1, 0, 1)), 0),
     ("pieri", ((1, 0, 1, 0), (2, 1), 1), 2)],
)
def test_check_restricts_once_per_route_it_reads(monkeypatch, target, case, restrictions):
    # a case restricts a value when it reads it, and prop1 reads its coefficient off the walk
    cuts, real = [], MultiPoly._prefix
    monkeypatch.setattr(MultiPoly, "_prefix", lambda p, k: cuts.append((p.nvars, k)) or real(p, k))
    assert verify.check(target, *case).ok
    assert cuts == [(4, 4)] * restrictions
