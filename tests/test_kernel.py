"""The walk kernel and the homogeneity read against brute force.

``MultiPoly.transfer_walk`` lists the moves out of every reachable state, then
sums walks forward from the start over the first half of the steps and
backward from the end over the rest, and joins the halves in the middle with
one more step of the same loop, so it wraps no polynomial but its answer.  Here
random layered move systems are walked by listing every walk; the walk's value
and the listing must agree, and the kernel must ask for each reachable
(step, state)'s moves exactly once.
"""

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopminors.errors import DomainError
from loopminors.multipoly import MAX_EXPONENT, MultiPoly
from loopminors.networks import lindstrom_minor
from loopminors.phi import phi_polynomial

from conftest import sorted_terms


@st.composite
def move_systems(draw):
    """(nvars, start, end, table): table[c][state] lists step c's (target, e) moves."""
    nstates = draw(st.integers(1, 6))
    nvars = draw(st.integers(0, 8))
    state = st.integers(0, nstates - 1)
    moves = st.lists(st.tuples(state, st.integers(0, 3)), max_size=3)
    table = [draw(st.lists(moves, min_size=nstates, max_size=nstates)) for _ in range(nvars)]
    return nvars, draw(state), draw(state), table


def listed_walks(nvars, start, end, table):
    """The walks' exponent tuples, each walk listed on its own."""
    walks = Counter()

    def extend(state, exps):
        if len(exps) == nvars:
            walks[tuple(exps)] += state == end
            return
        for target, e in table[len(exps)][state]:
            extend(target, exps + [e])

    extend(start, [])
    return MultiPoly(nvars, walks)


def reachable(nvars, start, table):
    """Every (c, state) a walk from ``start`` stands on before step c."""
    pairs, states = set(), {start}
    for c in range(nvars):
        pairs.update((c, state) for state in states)
        states = {target for state in states for target, _ in table[c][state]}
    return pairs


@given(system=move_systems())
@example(system=(0, 0, 0, []))
@example(system=(0, 0, 1, []))
@example(system=(1, 0, 1, [[[(1, 2), (0, 1)], [(1, 0)]]]))
@example(system=(1, 1, 1, [[[(1, 2), (0, 1)], []]]))
@settings(max_examples=300, deadline=None)
def test_the_two_ended_walk_matches_the_listed_walks(system):
    nvars, start, end, table = system
    calls = Counter()

    def moves(c, state):
        calls[c, state] += 1
        return table[c][state]

    last = MultiPoly.transfer_walk(nvars, start, end, moves)
    assert calls == Counter(reachable(nvars, start, table))
    assert last.nvars == nvars
    assert last == listed_walks(nvars, start, end, table)
    assert all(e <= last._bound for exps, _ in sorted_terms(last) for e in exps)
    # no walk ends off the states
    assert MultiPoly.transfer_walk(nvars, start, "off", moves) == MultiPoly.zero(nvars)


@pytest.mark.parametrize("bad", [-1, MAX_EXPONENT + 1])
@pytest.mark.parametrize("at", [1, 2, 3])
def test_a_bad_exponent_on_a_dead_end_is_rejected(bad, at):
    # "dead" is reached at step 0 and never reaches the end, whose walks are fine
    def moves(c, state):
        if state == "dead":
            return [("dead", bad if c == at else 0)]
        return [(state, 1), ("dead", 0)] if c == 0 else [(state, 1)]

    with pytest.raises(DomainError, match=rf"^step exponent {bad} outside 0\.\.{MAX_EXPONENT}$"):
        MultiPoly.transfer_walk(4, "live", "live", moves)
    assert MultiPoly.transfer_walk(at, "live", "live", moves) == MultiPoly.monomial(at, (1,) * at)


def test_symbolic_reach_both_routes_agree_on_fourteen_letters():
    lam, word = (6, 5, 4, 3, 2, 1), tuple((1 + t) % 2 for t in range(14))
    phi = phi_polynomial(lam, 1, word)
    assert len(phi.terms) == 220_206
    assert phi == lindstrom_minor(word, (), lam, 1)


def test_the_walk_wraps_only_its_answer(monkeypatch):
    # the halves join through the walk's own step, not a product of polynomials
    calls = Counter()
    for name in ("sum_of_products", "_made"):
        def counted(cls, *args, name=name, kernel=getattr(MultiPoly, name), **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)

        monkeypatch.setattr(MultiPoly, name, classmethod(counted))
    phi = phi_polynomial((5, 4, 3, 2, 1), 1, (1, 0) * 6)
    assert len(phi.terms) == 3_885
    assert calls == Counter(_made=1)


def degrees_by_tuple(poly):
    return {sum(exps) for exps, _ in sorted_terms(poly)}


def test_homogeneity_on_each_side_of_the_exact_read():
    # bound * nvars < MAX_EXPONENT: the packed key's residue is its degree
    small = MultiPoly(3, {(2, 1, 0): 1, (0, 0, 3): -2})
    assert small._bound * small.nvars < MAX_EXPONENT
    assert small.is_homogeneous(3) and not small.is_homogeneous(2)
    assert not (small + MultiPoly.monomial(3, (1, 1, 0))).is_homogeneous()
    edge = MultiPoly.monomial(1, (MAX_EXPONENT - 1,))
    assert edge.is_homogeneous(MAX_EXPONENT - 1)
    # bound * nvars = MAX_EXPONENT: a degree of 65,535 would read as 0
    third = MAX_EXPONENT // 3
    full = MultiPoly.monomial(3, (third, third, third))
    assert full._bound * full.nvars == MAX_EXPONENT
    assert full.is_homogeneous(MAX_EXPONENT) and not full.is_homogeneous(0)
    big = MultiPoly(2, {(40_000, 0): 1, (0, 40_000): 5, (20_000, 20_000): 1})
    assert big.is_homogeneous(40_000)
    assert not (big + MultiPoly.monomial(2, (1, 0))).is_homogeneous()


def test_degrees_a_multiple_of_the_field_apart_are_not_homogeneous():
    for poly in (
        MultiPoly(1, {(MAX_EXPONENT,): 1, (0,): 1}),
        MultiPoly(2, {(40_000, 25_535): 1, (0, 0): 1}),
        MultiPoly(3, {(MAX_EXPONENT, MAX_EXPONENT, 2): 1, (0, 0, 2): 3}),
    ):
        assert len(degrees_by_tuple(poly)) == 2
        assert not poly.is_homogeneous()


@given(terms=st.dictionaries(st.tuples(*[st.integers(0, 40)] * 3), st.integers(-3, 3), max_size=5))
def test_homogeneity_matches_the_tuple_sums(terms):
    poly = MultiPoly(3, terms)
    degrees = degrees_by_tuple(poly)
    assert poly.is_homogeneous() == (len(degrees) <= 1)
    for degree in degrees | {0, 7}:
        assert poly.is_homogeneous(degree) == (degrees <= {degree})
