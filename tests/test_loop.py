import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from loopminors.errors import DomainError
from loopminors.loop import (
    LaurentPoly,
    LoopElement,
    _graded_sum,
    _ring,
    generator,
    identity_loop,
    is_unipotent_plus,
    word_to_loop,
)
from loopminors.multipoly import MultiPoly
from loopminors.verify import all_words_up_to

from conftest import sorted_terms, word_strategy


def sym(k, idx):
    return MultiPoly.variable(k, idx)


# diag(t, t^-1): determinant 1, not unipotent-plus
DIAG_T = LoopElement(
    ((LaurentPoly({1: Fraction(1)}), LaurentPoly()), (LaurentPoly(), LaurentPoly({-1: Fraction(1)})))
)


def test_generator_matrices():
    a = Fraction(3)
    x0 = generator(0, a)
    assert x0.entry(2, 1) == LaurentPoly({1: a})
    assert x0.entry(1, 1) == LaurentPoly({0: Fraction(1)})
    assert x0.entry(1, 2) == LaurentPoly()
    x1 = generator(1, a)
    assert x1.entry(1, 2) == LaurentPoly({0: a})
    assert x1.entry(2, 1) == LaurentPoly()


def test_generator_determinants_are_one():
    for i in (0, 1):
        g = generator(i, Fraction(5, 7))
        assert g.determinant() == LaurentPoly({0: Fraction(1)})


@pytest.mark.parametrize("a, nvars", [(Fraction(3, 4), None), (sym(2, 1), 2)])
def test_generators_and_identity_pin_every_entry(a, nvars):
    # x0(a) = [[1, 0], [a t, 1]], x1(a) = [[1, a], [0, 1]] and the identity,
    # all three built by the same column-operation loop
    unit = LaurentPoly({0: Fraction(1) if nvars is None else MultiPoly.one(nvars)})
    empty = LaurentPoly()
    expected = [
        (generator(0, a), ((unit, empty), (LaurentPoly({1: a}), unit))),
        (generator(1, a), ((unit, LaurentPoly({0: a})), (empty, unit))),
        (identity_loop(nvars), ((unit, empty), (empty, unit))),
    ]
    for g, entries in expected:
        assert g.nvars == nvars
        assert g.entries == entries


def test_word_to_loop_two_letters():
    g = word_to_loop((1, 0))
    a1, a2 = sym(2, 0), sym(2, 1)
    one = MultiPoly.one(2)
    assert g.entry(1, 1) == LaurentPoly({0: one, 1: a1 * a2})
    assert g.entry(1, 2) == LaurentPoly({0: a1})
    assert g.entry(2, 1) == LaurentPoly({1: a2})
    assert g.entry(2, 2) == LaurentPoly({0: one})


def test_word_to_loop_single_letter():
    g = word_to_loop((0,))
    assert g.entry(2, 1) == LaurentPoly({1: sym(1, 0)})


def test_word_to_loop_four_letters_top_entry():
    g = word_to_loop((1, 0, 1, 0))
    a1, a2, a3, a4 = (sym(4, t) for t in range(4))
    expected = LaurentPoly(
        {0: MultiPoly.one(4), 1: a1 * a2 + a1 * a4 + a3 * a4, 2: a1 * a2 * a3 * a4}
    )
    assert g.entry(1, 1) == expected


def test_word_to_loop_is_the_checked_product_of_its_generators():
    # the column operations against LoopElement.__mul__; neither checks det = 1
    # (both keep it by construction), so the product is re-checked through the
    # public constructor, and word_to_loop's result through its own determinant
    for length in range(1, 11):
        for start in (0, 1):
            word = tuple((start + t) % 2 for t in range(length))
            product = identity_loop(length)
            for t, bit in enumerate(word):
                product = product * generator(bit, sym(length, t))
            assert LoopElement(product.entries, nvars=length) == product
            g = word_to_loop(word)
            assert g == product
            assert is_unipotent_plus(g)
            assert g.determinant() == LaurentPoly({0: MultiPoly.one(length)})


def test_every_word_up_to_16_letters_passes_the_public_determinant_check():
    # word_to_loop builds without the det = 1 check, so the public constructor
    # re-checks every alternating word of 1-16 letters (two per length, 32)
    for word in all_words_up_to(16):
        g = word_to_loop(word)
        assert LoopElement(g.entries, nvars=g.nvars) == g


@pytest.mark.parametrize("seed", range(6))
def test_seeded_products_of_generators_pass_the_public_determinant_check(seed):
    # products of unchecked elements, numeric and symbolic, multiplied on
    # either side, the numeric ones through an element that is not
    # unipotent-plus, re-checked
    rng = random.Random(seed)
    k = 3
    symbols = [sym(k, idx) for idx in range(k)]
    numeric, symbolic = DIAG_T, identity_loop(k)
    for step in range(8):
        bit = (seed + step) % 2
        x = generator(bit, Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        numeric = numeric * x if rng.randrange(2) else x * numeric
        a = rng.choice(symbols) * rng.randint(-3, 3) + rng.choice(symbols) * rng.choice(symbols)
        x = generator(bit, a)
        symbolic = symbolic * x if rng.randrange(2) else x * symbolic
    assert LoopElement(numeric.entries) == numeric
    assert LoopElement(symbolic.entries, nvars=k) == symbolic


def test_word_to_loop_rejects_bad_words():
    with pytest.raises(DomainError):
        word_to_loop((1, 1))
    with pytest.raises(DomainError):
        word_to_loop(())


@given(w1=word_strategy(max_length=4), w2=word_strategy(max_length=4))
@settings(max_examples=40, deadline=None)
def test_multiplicativity_after_reindexing(w1, w2):
    if w1[-1] == w2[0]:
        return  # concatenation must stay alternating
    word = w1 + w2
    k = len(word)
    combined = word_to_loop(word)
    g1, g2 = word_to_loop(w1), word_to_loop(w2)

    def reindex(g, offset, nv):
        # a_j becomes a_{j+offset} among nv variables
        pad = nv - offset - g.nvars
        rows = []
        for i in (1, 2):
            rows.append(
                tuple(
                    LaurentPoly(
                        {
                            e: MultiPoly(
                                nv,
                                {(0,) * offset + exps + (0,) * pad: n for exps, n in sorted_terms(c)},
                            )
                            for e, c in g.entry(i, j).terms.items()
                        }
                    )
                    for j in (1, 2)
                )
            )
        return LoopElement(tuple(rows), nvars=nv)

    product = reindex(g1, 0, k) * reindex(g2, len(w1), k)
    assert product == combined


def test_each_mode_keeps_one_zero_and_one():
    # no coefficient is changed in place, so every window, membership test and product of a
    # mode reads the same two values
    for nvars, ring in ((None, (Fraction(0), Fraction(1))), (3, (MultiPoly.zero(3), MultiPoly.one(3)))):
        zero, one = _ring(nvars)
        assert (zero, one) == ring and _ring(nvars)[0] is zero and _ring(nvars)[1] is one
    g, h = word_to_loop((1, 0, 1)), word_to_loop((0, 1, 0))
    assert g.zero_coeff() is h.zero_coeff() and g.one_coeff() is h.one_coeff()
    assert identity_loop().zero_coeff() is generator(1, 2).zero_coeff()


def test_unipotent_plus_membership():
    assert is_unipotent_plus(word_to_loop((1, 0, 1)))
    assert is_unipotent_plus(identity_loop())
    bad = LoopElement(
        (
            (LaurentPoly({0: Fraction(1)}), LaurentPoly({-1: Fraction(1)})),
            (LaurentPoly(), LaurentPoly({0: Fraction(1)})),
        )
    )
    assert not is_unipotent_plus(bad)


@given(word=word_strategy(max_length=6))
@settings(max_examples=24, deadline=None)
def test_every_word_lands_in_unipotent_plus(word):
    assert is_unipotent_plus(word_to_loop(word))


@given(word=word_strategy(max_length=6))
@settings(max_examples=24, deadline=None)
def test_word_entries_respect_degree_bound(word):
    # length-k words never push the t-degree past ceil(k/2) + 1
    g = word_to_loop(word)
    bound = (len(word) + 1) // 2 + 1
    for i in (1, 2):
        for j in (1, 2):
            assert all(0 <= exp <= bound for exp in g.entry(i, j).terms)


def test_loop_element_rejects_bad_determinant():
    one = LaurentPoly({0: Fraction(1)})
    with pytest.raises(DomainError):
        LoopElement(((one, one), (one, one)))
    with pytest.raises(DomainError):
        LoopElement(((1, 0), (0, 1)))


def test_symbolic_loop_element_checks_every_t_degree_of_its_determinant():
    g = word_to_loop((1, 0, 1))
    (g11, g12), (g21, g22) = g.entries
    exp, coeff = next(iter(g12.terms.items()))
    bad = LaurentPoly({**g12.terms, exp: coeff + sym(3, 0)})
    with pytest.raises(DomainError):
        LoopElement(((g11, bad), (g21, g22)), nvars=3)
    one, zero, a1 = LaurentPoly.const(MultiPoly.one(1)), LaurentPoly(), sym(1, 0)
    # determinant 1 + a1 t: wrong only at t^1
    with pytest.raises(DomainError):
        LoopElement(((one, zero), (zero, LaurentPoly({0: MultiPoly.one(1), 1: a1}))), nvars=1)
    # (1 + a1 t) * 1 - a1 * t: the two t^1 products cancel
    top = (LaurentPoly({0: MultiPoly.one(1), 1: a1}), LaurentPoly({0: a1}))
    cancelling = LoopElement((top, (LaurentPoly({1: MultiPoly.one(1)}), one)), nvars=1)
    assert cancelling.determinant() == one


def reference_graded_sum(triples, zero):
    """Sum of sign * a * b, one operator product per pair of terms; zeros dropped last."""
    total = {}
    for sign, a, b in triples:
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                total[e1 + e2] = total.get(e1 + e2, zero) + sign * c1 * c2
    return {exp: coeff for exp, coeff in total.items() if coeff}


def random_laurent(rng, coefficient):
    return LaurentPoly({rng.randint(-3, 3): coefficient() for _ in range(rng.randint(0, 4))})


@pytest.mark.parametrize("seed", range(8))
def test_graded_sum_matches_the_term_by_term_reference(seed):
    rng = random.Random(seed)
    k = 3

    def numeric():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    def symbolic():
        exps = lambda: tuple(rng.randint(0, 2) for _ in range(k))
        return MultiPoly(k, {exps(): rng.randint(-3, 3) for _ in range(rng.randint(1, 3))})

    for coefficient, zero in ((numeric, Fraction(0)), (symbolic, MultiPoly.zero(k))):
        for _ in range(20):
            triples = [
                (rng.choice((1, -1)), random_laurent(rng, coefficient),
                 random_laurent(rng, coefficient))
                for _ in range(rng.randint(0, 4))
            ]
            assert _graded_sum(triples, zero).terms == reference_graded_sum(triples, zero)


@pytest.mark.parametrize(
    "one, zero, a",
    [(Fraction(1), Fraction(0), Fraction(-2, 3)), (MultiPoly.one(2), MultiPoly.zero(2), sym(2, 1))],
)
def test_graded_sum_drops_a_cancelled_t_degree(one, zero, a):
    # (1 + a t^-1)(1 - a t^-1) = 1 - a^2 t^-2: the two t^-1 products cancel
    plus, minus = LaurentPoly({0: one, -1: a}), LaurentPoly({0: one, -1: -a})
    product = _graded_sum(((1, plus, minus),), zero)
    assert product.terms == {0: one, -2: -a * a}
    # a t * 1 - 1 * a t and a t * t - t * a t: every degree cancels
    t_a, t_one, unit = LaurentPoly({1: a}), LaurentPoly({1: one}), LaurentPoly.const(one)
    assert _graded_sum(((1, t_a, unit), (-1, unit, t_a)), zero).terms == {}
    assert _graded_sum(((1, t_a, t_one), (-1, t_one, t_a)), zero).terms == {}


@pytest.mark.parametrize("zero", [Fraction(0), MultiPoly.zero(2)])
def test_graded_sum_takes_the_int_one_as_a_coefficient_of_b(zero):
    one = zero + 1
    a = LaurentPoly({-2: one * 3, 1: one * -5})
    step = LaurentPoly({1: one * 2})
    keep = LaurentPoly.const(1)
    assert _graded_sum(((1, a, keep),), zero) == a
    assert _graded_sum(((-1, a, keep),), zero).terms == {-2: one * -3, 1: one * 5}
    expected = {-2: one * 3, -1: one * 6, 1: one * -5, 2: one * -10}
    assert _graded_sum(((1, a, keep), (1, a, step)), zero).terms == expected


def test_determinant_error_prints_a_polynomial_in_t():
    one, a1 = MultiPoly.one(1), sym(1, 0)
    unit = LaurentPoly.const(one)
    with pytest.raises(DomainError) as excinfo:
        LoopElement(((unit, LaurentPoly({0: a1, -1: one})), (LaurentPoly.const(a1), unit)), nvars=1)
    message = str(excinfo.value)
    assert message == "determinant is not 1: -a1^2 + 1 - a1*t^-1"
    assert not any(name in message for name in ("LaurentPoly(", "MultiPoly(", "Fraction("))
    numeric = LaurentPoly({2: Fraction(-1), 0: Fraction(1), -2: Fraction(-3, 4), 1: Fraction(1)})
    assert str(numeric) == "-t^2 + t + 1 - 3/4*t^-2"
    assert str(LaurentPoly({1: (a1 + 1) * -1, 0: a1})) == "(-a1 - 1)*t + a1"
    assert str(LaurentPoly()) == "0"


def test_laurent_poly_is_a_value():
    p = LaurentPoly({0: Fraction(1), 2: Fraction(3)})
    assert p == LaurentPoly({2: 3, 0: 1, 1: 0}) and p != LaurentPoly({0: Fraction(1)})
    assert p != {0: Fraction(1), 2: Fraction(3)} and p != ({0: Fraction(1), 2: Fraction(3)},)
    assert repr(p) == "LaurentPoly(terms={0: Fraction(1, 1), 2: Fraction(3, 1)})"
    with pytest.raises(TypeError):
        hash(p)
    with pytest.raises(AttributeError, match="cannot assign to field 'terms'"):
        p.terms = {0: Fraction(2)}
    assert p.terms == {0: 1, 2: 3}


def test_loop_element_is_a_value():
    g = word_to_loop((1, 0, 1))
    assert g == word_to_loop((1, 0, 1)) and g != word_to_loop((0, 1, 0)) and g != identity_loop(3)
    assert g != (g.entries, g.nvars) and g != {"entries": g.entries, "nvars": g.nvars}
    assert repr(identity_loop()) == (
        "LoopElement(entries=((LaurentPoly(terms={0: Fraction(1, 1)}), LaurentPoly(terms={})), "
        "(LaurentPoly(terms={}), LaurentPoly(terms={0: Fraction(1, 1)}))), nvars=None)"
    )
    with pytest.raises(TypeError):
        hash(g)
    for name, value in (("entries", identity_loop(3).entries), ("nvars", None), ("nvars", 4)):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(g, name, value)
    assert g.nvars == 3 and g == word_to_loop((1, 0, 1))
