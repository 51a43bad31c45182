import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopminors.errors import DomainError
from loopminors.multipoly import MAX_EXPONENT, MultiPoly
from loopminors.partitions import Value
from loopminors.phi import phi_polynomial

from conftest import sorted_terms


def a(k, idx):
    return MultiPoly.variable(k, idx)


def test_square_of_a_sum():
    p = a(2, 0) + a(2, 1)
    assert p * p == MultiPoly(
        2, {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    )


def test_zero_terms_are_dropped():
    p = a(1, 0) - a(1, 0)
    assert not p
    assert p == MultiPoly.zero(1)
    assert p.text() == "0"


def test_int_coercion_and_equality():
    assert MultiPoly.const(3, 5) == 5
    assert 5 in {MultiPoly.const(1, 5)} and 0 in {MultiPoly.zero(2)}
    assert 2 * a(1, 0) + 1 == MultiPoly(1, {(1,): 2, (0,): 1})
    assert a(1, 0) != a(2, 0) or True  # different nvars raise on arithmetic
    with pytest.raises(DomainError):
        a(1, 0) + a(2, 0)


def test_canonical_text_is_descending_lex():
    poly = MultiPoly(
        4, {(1, 2, 0, 0): 1, (1, 1, 0, 1): 2, (1, 0, 0, 2): 1, (0, 0, 1, 2): 1}
    )
    assert poly.text() == "a1*a2^2 + 2*a1*a2*a4 + a1*a4^2 + a3*a4^2"
    assert list(poly.json_terms()) == ["1,2,0,0", "1,1,0,1", "1,0,0,2", "0,0,1,2"]


def test_negative_coefficients_render():
    poly = MultiPoly(1, {(1,): -3, (0,): 1})
    assert poly.text() == "-3*a1 + 1"
    poly = MultiPoly(1, {(1,): 1, (0,): -1})
    assert poly.text() == "a1 - 1"


def test_evaluate():
    poly = MultiPoly(2, {(1, 1): 2, (0, 0): 1})
    assert poly.evaluate([Fraction(1, 2), 3]) == Fraction(4)


def test_homogeneity_and_degree():
    poly = a(2, 0) * a(2, 0) + a(2, 0) * a(2, 1)
    assert poly.is_homogeneous(2)
    assert not (poly + 1).is_homogeneous()


def small_polys(k=2):
    exps = st.tuples(*[st.integers(0, 2)] * k)
    return st.dictionaries(exps, st.integers(-5, 5), max_size=4).map(
        lambda terms: MultiPoly(k, terms)
    )


@given(p=small_polys(), q=small_polys(), r=small_polys(), n=st.integers(-5, 5))
@settings(max_examples=100)
def test_ring_axioms(p, q, r, n):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + MultiPoly.zero(2) == p
    assert p * MultiPoly.one(2) == p
    # equal values hash equal, int operands included
    for x, y in ((p, q), (p + q, q + p), (p - p + n, n), (p, n), (p * q, q * p)):
        if x == y:
            assert hash(x) == hash(y)


@given(p=small_polys())
@settings(max_examples=50)
def test_evaluation_is_a_homomorphism(p):
    values = [Fraction(2), Fraction(1, 3)]
    q = p * p + 1
    assert q.evaluate(values) == p.evaluate(values) ** 2 + 1


# -- the packed ring against a tuple-keyed reference ----------------------


class TuplePoly:
    """Reference ring: exponent tuples as dict keys, no packing, no limit."""

    def __init__(self, nvars, terms):
        self.nvars = nvars
        self.terms = {}
        for exps, coeff in terms.items():
            total = self.terms.get(exps, 0) + coeff
            if total:
                self.terms[exps] = total
            else:
                self.terms.pop(exps, None)

    def __add__(self, other):
        merged = dict(self.terms)
        for exps, coeff in other.terms.items():
            merged[exps] = merged.get(exps, 0) + coeff
        return TuplePoly(self.nvars, {e: c for e, c in merged.items() if c})

    def __neg__(self):
        return TuplePoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        product = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                product[exps] = product.get(exps, 0) + c1 * c2
        return TuplePoly(self.nvars, {e: c for e, c in product.items() if c})

    def max_exponent(self):
        return max((max(exps, default=0) for exps in self.terms), default=0)

    def evaluate(self, values):
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            term = Fraction(coeff)
            for v, e in zip(values, exps):
                term *= Fraction(v) ** e
            total += term
        return total

    def json_terms(self):
        return {",".join(map(str, e)): c for e, c in sorted(self.terms.items(), reverse=True)}

    def text(self):
        pieces = []
        for exps, coeff in sorted(self.terms.items(), reverse=True):
            factors = [
                f"a{idx + 1}" if e == 1 else f"a{idx + 1}^{e}"
                for idx, e in enumerate(exps)
                if e
            ]
            mag = abs(coeff)
            body = "*".join(([str(mag)] if mag != 1 or not factors else []) + factors)
            pieces.append(("-" if coeff < 0 else "+", body))
        if not pieces:
            return "0"
        text = ("-" if pieces[0][0] == "-" else "") + pieces[0][1]
        return text + "".join(f" {sign} {body}" for sign, body in pieces[1:])


def assert_same(packed, ref):
    assert packed.nvars == ref.nvars
    assert packed.json_terms() == ref.json_terms()
    assert packed.text() == ref.text()


# exponents near zero and at the top of a field, so that products both fit and overflow
exponents = st.one_of(st.integers(0, 3), st.integers(MAX_EXPONENT - 3, MAX_EXPONENT))


def term_maps(k):
    return st.dictionaries(st.tuples(*[exponents] * k), st.integers(-4, 4), max_size=4)


# evaluation points: several denominators and both signs, and the cheap values
# used at exponents near MAX_EXPONENT, where a generic rational's powers would
# need a gcd of million-bit integers
VALUES = [0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7), Fraction(-7, 4), -3]
CHEAP_VALUES = [0, 1, -1, 2, Fraction(1, 2)]


def assert_same_value(packed, ref, values):
    value = packed.evaluate(values)
    assert type(value) is Fraction
    assert value == ref.evaluate(values)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_packed_ring_matches_tuple_reference(data):
    k = data.draw(st.integers(1, 6), label="k")
    p_terms = data.draw(term_maps(k), label="p")
    q_terms = data.draw(term_maps(k), label="q")
    p, q = MultiPoly(k, p_terms), MultiPoly(k, q_terms)
    rp, rq = TuplePoly(k, p_terms), TuplePoly(k, q_terms)
    assert_same(p, rp)
    assert_same(p + q, rp + rq)
    assert_same(p - q, rp + -rq)
    product = rp * rq
    if product.max_exponent() > MAX_EXPONENT:
        with pytest.raises(DomainError):
            p * q
    else:
        assert_same(p * q, product)
    probe = data.draw(st.tuples(*[exponents] * k), label="probe")
    for exps in list(p_terms) + [probe]:
        assert p.coefficient(exps) == rp.terms.get(exps, 0)
    cheap = data.draw(st.lists(st.sampled_from(CHEAP_VALUES), min_size=k, max_size=k))
    assert_same_value(p, rp, cheap)
    small = data.draw(
        st.dictionaries(st.tuples(*[st.integers(0, 4)] * k), st.integers(-4, 4), max_size=8),
        label="small",
    )
    values = data.draw(st.lists(st.sampled_from(VALUES), min_size=k, max_size=k), label="values")
    assert_same_value(MultiPoly(k, small), TuplePoly(k, small), values)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_a_prefix_is_the_polynomial_at_zero_in_the_trailing_variables(data):
    nvars = data.draw(st.integers(1, 6), label="nvars")
    p = MultiPoly(nvars, data.draw(term_maps(nvars), label="p"))
    values = data.draw(st.lists(st.sampled_from(CHEAP_VALUES), min_size=nvars, max_size=nvars))
    assert p._prefix(nvars) == p
    for k in range(1, nvars + 1):
        prefix, zeros = p._prefix(k), (0,) * (nvars - k)
        assert prefix.nvars == k
        assert sorted_terms(prefix) == [
            (exps[:k], n) for exps, n in sorted_terms(p) if exps[k:] == zeros]
        assert all(e <= prefix._bound for exps, _ in sorted_terms(prefix) for e in exps)
        assert prefix.evaluate(values[:k]) == p.evaluate(values[:k] + list(zeros))


def test_readers_match_the_reference_on_the_twelve_variable_anchor():
    word = tuple((t + 1) % 2 for t in range(12))
    poly = phi_polynomial((5, 4, 3, 2, 1), 1, word)
    ref = TuplePoly(12, dict(sorted_terms(poly)))
    assert len(ref.terms) == 3885
    assert_same(poly, ref)
    assert_same_value(poly, ref, [Fraction((-1) ** t * (t + 2), t + 3) for t in range(12)])
    assert_same_value(poly, ref, [Fraction(-2, 3), Fraction(5, 7), 2, -1, 0, Fraction(1, 2)] * 2)


# -- the split-key decoder against the tuple-keyed reference --------------


# exponents at 10 and above, where "10" < "9" as strings, and up to the top of a field
wide_exponents = st.one_of(
    st.integers(0, 2), st.integers(9, 12), st.integers(MAX_EXPONENT - 1, MAX_EXPONENT)
)
coefficients = st.one_of(st.sampled_from([1, -1]), st.integers(-(10**30), 10**30))


@pytest.mark.parametrize("nvars", range(1, 15))
@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_split_key_readers_match_the_tuple_reference(nvars, data):
    terms = data.draw(
        st.dictionaries(st.tuples(*[wide_exponents] * nvars), coefficients, max_size=6), label="terms"
    )
    if data.draw(st.booleans(), label="constant"):
        terms[(0,) * nvars] = data.draw(coefficients, label="constant term")
    # whole values: a denominator of 2^65535 per variable makes Fraction's gcd the cost
    values = data.draw(st.lists(st.sampled_from([0, 1, -1, 2, -3]), min_size=nvars, max_size=nvars),
                       label="values")
    for t in (terms, {}, {(0,) * nvars: -7}):
        poly, ref = MultiPoly(nvars, t), TuplePoly(nvars, t)
        assert_same(poly, ref)
        assert_same_value(poly, ref, values)
        assert sorted(poly._exponents()) == sorted(ref.terms)
        # the JSON prints the map in its order
        assert list(poly.json_terms().items()) == list(ref.json_terms().items())
        assert poly.text_and_terms() == (ref.text(), ref.json_terms())


def test_evaluate_powers_only_the_exponents_that_occur():
    # 2^65535 takes 8 KiB; a table of 2^e for every e up to 65535 would take 256 MiB
    tracemalloc.start()
    try:
        value = MultiPoly.monomial(1, (MAX_EXPONENT,)).evaluate([Fraction(1, 2)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert value == Fraction(1, 2**MAX_EXPONENT)
    assert type(value) is Fraction
    mixed = MultiPoly(2, {(MAX_EXPONENT, 1): 3, (0, 2): -1})
    assert mixed.evaluate([Fraction(-1, 2), Fraction(2, 3)]) == (
        3 * Fraction(-1, 2) ** MAX_EXPONENT * Fraction(2, 3) - Fraction(4, 9)
    )
    assert type(MultiPoly.zero(2).evaluate([1, 2])) is Fraction


def test_transfer_sum_counts_walks_by_step_exponents():
    # walks on 0..2 that move up by e in {0, 1} each step, from 0 to 2
    def up(c, level):
        return [(level + e, e) for e in (0, 1) if level + e <= 2]

    poly = MultiPoly.transfer_walk(3, 0, 2, up)
    assert poly == MultiPoly(3, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1})
    assert poly._bound == 1
    # two routes into one state add up; an unreachable end gives zero
    twice = MultiPoly.transfer_walk(1, "s", "t", lambda c, s: [("t", 2), ("t", 2)])
    assert twice == 2 * a(1, 0) * a(1, 0)
    assert MultiPoly.transfer_walk(2, 0, 5, up) == 0
    assert MultiPoly.transfer_walk(0, 0, 0, up) == 1


def test_transfer_sum_rejects_an_exponent_outside_a_field():
    with pytest.raises(DomainError):
        MultiPoly.transfer_walk(1, 0, 0, lambda c, s: [(0, MAX_EXPONENT + 1)])
    with pytest.raises(DomainError):
        MultiPoly.transfer_walk(1, 0, 0, lambda c, s: [(0, -1)])
    top = MultiPoly.transfer_walk(2, 0, 0, lambda c, s: [(0, MAX_EXPONENT)])
    assert top == MultiPoly.monomial(2, (MAX_EXPONENT, MAX_EXPONENT))


def test_exponent_beyond_a_field_is_rejected_on_construction():
    assert MultiPoly.monomial(2, (MAX_EXPONENT, 0)).text() == f"a1^{MAX_EXPONENT}"
    with pytest.raises(DomainError):
        MultiPoly.monomial(2, (0, MAX_EXPONENT + 1))
    with pytest.raises(DomainError):
        MultiPoly(1, {(MAX_EXPONENT + 1,): 1, (0,): 1})


def test_product_beyond_a_field_raises_instead_of_carrying():
    top = MultiPoly.monomial(2, (MAX_EXPONENT, 0))
    with pytest.raises(DomainError):
        top * a(2, 0)
    with pytest.raises(DomainError):
        a(2, 0) * top
    # the exponent bound is exceeded but no single variable overflows
    mixed = top * MultiPoly.monomial(2, (0, MAX_EXPONENT))
    assert mixed == MultiPoly.monomial(2, (MAX_EXPONENT, MAX_EXPONENT))
    with pytest.raises(DomainError):
        mixed * a(2, 1)


# -- the fused kernel -------------------------------------------------------


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_sum_of_products_matches_the_operator_and_tuple_references(data):
    k = data.draw(st.integers(1, 4), label="k")
    maps = st.dictionaries(st.tuples(*[st.integers(0, 3)] * k), st.integers(-4, 4), max_size=5)
    drawn = data.draw(
        st.lists(st.tuples(st.sampled_from((1, -1)), maps, st.one_of(st.just(1), maps)), max_size=5),
        label="triples",
    )
    triples = [(s, MultiPoly(k, a), b if b == 1 else MultiPoly(k, b)) for s, a, b in drawn]
    fused = MultiPoly.sum_of_products(k, triples)
    assert fused == sum((s * a * b for s, a, b in triples), MultiPoly.zero(k))
    assert 0 not in fused.terms.values()
    ref = TuplePoly(k, {})
    for s, a, b in drawn:
        right = TuplePoly(k, {(0,) * k: 1} if b == 1 else b)
        ref = ref + TuplePoly(k, {e: s * c for e, c in a.items()}) * right
    assert_same(fused, ref)


def test_sum_of_products_edge_cases():
    p, q = a(3, 0) + 2 * a(3, 2), a(3, 1) - 1
    empty = MultiPoly.sum_of_products(3, [])
    assert empty == MultiPoly.zero(3) and empty.nvars == 3 and empty.terms == {}
    assert MultiPoly.sum_of_products(3, [(1, p, 1), (-1, q, 1)]) == p - q
    assert MultiPoly.sum_of_products(3, [(1, p, q), (-1, p, q)]).terms == {}
    with pytest.raises(DomainError):
        MultiPoly.sum_of_products(3, [(1, p, a(2, 0))])


def test_sum_of_products_bounds_exponents_as_the_product_does():
    half = MultiPoly.monomial(1, (40000,))
    with pytest.raises(DomainError) as by_operator:
        half * half
    with pytest.raises(DomainError) as by_kernel:
        MultiPoly.sum_of_products(1, [(1, half, half)])
    assert str(by_kernel.value) == str(by_operator.value) == (
        f"product exponent 80000 exceeds the limit {MAX_EXPONENT}"
    )
    # the result's bound covers its degree: one more power of a1 past the
    # limit still raises, by either route
    factors = MultiPoly.monomial(1, (30000,)), MultiPoly.monomial(1, (35535,))
    top = MultiPoly.sum_of_products(1, [(1, *factors)])
    assert top == MultiPoly.monomial(1, (MAX_EXPONENT,))
    with pytest.raises(DomainError):
        top * a(1, 0)
    with pytest.raises(DomainError):
        MultiPoly.sum_of_products(1, [(-1, top, a(1, 0))])
    # a high term that cancels leaves a loose bound, and the true degrees decide
    low = MultiPoly.sum_of_products(1, [(1, half, 1), (-1, half, 1), (1, a(1, 0), 1)])
    assert low == a(1, 0)
    assert low * MultiPoly.monomial(1, (MAX_EXPONENT - 1,)) == top


@pytest.mark.parametrize(
    "make",
    [lambda: MultiPoly(2, {(1, 0): 3, (0, 2): -1}), lambda: phi_polynomial((2, 1), 1, (1, 0))],
    ids=["constructed", "walk"],
)
@pytest.mark.parametrize("name", ["nvars", "terms", "_bound"])
def test_a_polynomial_refuses_assignment_and_deletion_of_each_field(make, name):
    p = make()
    fields = (p.nvars, dict(p.terms), p._bound)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(p, name, 5)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(p, name)
    assert (p.nvars, p.terms, p._bound) == fields


def test_a_refused_variable_count_leaves_the_variable_unchanged():
    m = MultiPoly.variable(2, 0)
    with pytest.raises(AttributeError):
        m.nvars = 5
    with pytest.raises(AttributeError):
        del m.terms
    assert str(m) == "a1" and m == a(2, 0) and hash(m) == hash(a(2, 0))


def test_a_polynomial_is_a_value_with_its_own_ring_equality():
    assert isinstance(MultiPoly.one(2), Value) and MultiPoly._fields == ("nvars", "terms")
    assert not hasattr(MultiPoly, "__slots__")
    # a constant equals, and hashes like, its int; repr shows the text
    assert MultiPoly.const(2, 3) == 3 and hash(MultiPoly.const(2, 3)) == hash(3)
    assert repr(a(2, 0) + 1) == "MultiPoly(2, 'a1 + 1')"
