"""Exact multivariate polynomials over Python integers.

Variables are positional: a polynomial in k variables a1..ak keeps a map
from monomials to nonzero integer coefficients.  Each monomial's exponent
vector is packed into one Python int (Kronecker substitution): every variable
owns a field of ``EXPONENT_BITS`` bits, a1 the highest, so multiplying two
monomials is one int addition and comparing packed ints compares exponent
tuples lexicographically.  An exponent above ``MAX_EXPONENT`` would carry
into the next field, so it is rejected with :class:`DomainError`, both on
construction and when a product would reach it.  Coefficients never round or
overflow.  The canonical term order used for text and JSON output is
descending lexicographic on the exponent tuple, which reproduces the
conventional "leading monomial first" reading.  Text, JSON and evaluation read
keys through one decoder, ``_decoder``: it splits a key into a high half
(a1..ah, h = nvars // 2) and a low half, and decodes each distinct half once.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .errors import DomainError
from .partitions import Value, check_count, check_exact, check_int, check_ints

EXPONENT_BITS = 16
MAX_EXPONENT = (1 << EXPONENT_BITS) - 1


def _pack(exps: tuple[int, ...]) -> int:
    key = 0
    for e in exps:
        key = (key << EXPONENT_BITS) | e
    return key


def _shifts(nvars: int) -> list[int]:
    """The bit offset of each variable's exponent field in a key, a1 first."""
    return [EXPONENT_BITS * k for k in range(nvars - 1, -1, -1)]


# What a key half decodes to, from its (variable number, exponent) pairs: its factors,
# each led by "*" ("*a2*a3^4"), or its exponents, each led by "," (",0,4"), so that
# halves join by +; or its exponent tuple.
_FACTORS, _COMMAS, _TUPLE = (
    lambda pairs: "".join([f"*a{k}" if e == 1 else f"*a{k}^{e}" for k, e in pairs if e]),
    lambda pairs: "".join([f",{e}" for _, e in pairs]),
    lambda pairs: tuple([e for _, e in pairs]),
)


class _Halves(dict):
    """Key halves to ``piece`` of their (variable number, exponent) pairs, each made on
    the half's first lookup; ``fields`` holds the (variable number, shift) pairs."""

    def __init__(self, piece, fields):
        self.piece, self.fields = piece, fields

    def __missing__(self, half: int):
        value = self[half] = self.piece([(k, half >> s & MAX_EXPONENT) for k, s in self.fields])
        return value


@functools.cache
def _decoder(nvars: int, piece):
    """(width, mask, high, low): ``high[key >> width]`` and ``low[key & mask]`` are ``piece``
    of a key's high half, a1..ah with h = nvars // 2, and of its low half, made once each."""
    h, fields = nvars // 2, [(k + 1, shift) for k, shift in enumerate(_shifts(nvars))]
    width = EXPONENT_BITS * (nvars - h)
    high = _Halves(piece, [(k, shift - width) for k, shift in fields[:h]])
    return width, (1 << width) - 1, high, _Halves(piece, fields[h:])


def _carry(layer: dict, edges) -> dict:
    """One walk step or the join: each edge (state, target, step, n) adds n times
    ``layer[state]``, every key raised by the packed offset step, into ``target``."""
    nxt: dict = {}
    for state, target, step, n in edges:
        acc = nxt.setdefault(target, {})
        # every coefficient counts walks, so none can cancel
        get = acc.get
        for key, m in layer[state].items():
            key += step
            acc[key] = get(key, 0) + m * n
    return nxt


class MultiPoly(Value):
    """A read-only ``partitions.Value``: ``terms`` maps packed exponent vectors to
    coefficients; ``_bound`` is at least every exponent of every term, so a product whose
    bounds add up to at most ``MAX_EXPONENT`` cannot carry between fields."""

    _fields = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        nvars = check_count(nvars, "variable count")
        clean: dict[int, int] = {}
        bound = 0
        if terms:
            for exps, coeff in terms.items():
                exps = check_ints(exps, "exponent")
                if len(exps) != nvars:
                    raise DomainError(
                        f"exponent tuple {exps} has length {len(exps)}, expected {nvars}"
                    )
                if any(e < 0 for e in exps):
                    raise DomainError(f"negative exponent in {exps}")
                top = max(exps, default=0)
                if top > MAX_EXPONENT:
                    raise DomainError(
                        f"exponent {top} in {exps} exceeds the limit {MAX_EXPONENT}"
                    )
                coeff = check_int(coeff, "coefficient")
                if coeff:
                    key = _pack(exps)
                    total = clean.get(key, 0) + coeff
                    if total:
                        clean[key] = total
                    else:
                        del clean[key]
                    bound = max(bound, top)
        vars(self).update(nvars=nvars, terms=clean, _bound=bound)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls._made(nvars=check_count(nvars, "variable count"), terms={}, _bound=0)

    @classmethod
    def const(cls, nvars: int, value: int) -> "MultiPoly":
        return cls._lift(check_count(nvars, "variable count"), check_int(value, "coefficient"))

    @classmethod
    def one(cls, nvars: int) -> "MultiPoly":
        return cls._made(nvars=check_count(nvars, "variable count"), terms={0: 1}, _bound=0)

    @classmethod
    def variable(cls, nvars: int, index: int) -> "MultiPoly":
        """The variable a_{index+1} (0-origin index)."""
        nvars, index = check_count(nvars, "variable count"), check_int(index, "variable index")
        if not 0 <= index < nvars:
            raise DomainError(f"variable index {index} out of range for {nvars} variables")
        return cls.monomial(nvars, [int(k == index) for k in range(nvars)])

    @classmethod
    def monomial(cls, nvars: int, exps, coeff: int = 1) -> "MultiPoly":
        return cls(nvars, {check_ints(exps, "exponent"): coeff})

    @classmethod
    def transfer_walk(cls, nvars: int, start, end, moves) -> "MultiPoly":
        """Sum of a^e over the walks of ``nvars`` steps from ``start`` to ``end``.

        Step c (0-origin) takes a walk from ``state`` along each pair
        ``(next_state, e)`` that ``moves(c, state)`` yields, and e, a
        nonnegative int, is the walk's exponent of a_{c+1}.  A transfer-matrix
        evaluation: each step keeps, per reachable state, the polynomial of the
        walks that end there, so walks are summed, never listed.  States must
        be hashable; a step exponent above ``MAX_EXPONENT`` raises DomainError.
        Moves of exponent 0 count walks: the sum is then a constant, their number.

        A state pass first lists each step's moves out of the states reachable
        before it, one ``moves`` call per (c, state).  No coefficient cancels, so
        these are the states a one-way walk holds terms for, in its order, with
        its calls and exponent checks.  The sum meets in the middle
        (bidirectional transfer matrices): the walks from ``start`` over the
        first ``nvars // 2`` steps join, at the states both reach, those into
        ``end`` over the rest, run backward along the listed moves.  The halves
        fill disjoint exponent fields, so no product of their terms carries: the
        join is one more ``_carry``, and no polynomial is wrapped but the answer.
        """
        steps, states, bound = [], [start], 0
        for c in range(nvars):
            steps.append([])
            nxt = {}
            for state in states:
                for target, e in moves(c, state):
                    if not 0 <= e <= bound:
                        if e < 0 or e > MAX_EXPONENT:
                            raise DomainError(f"step exponent {e} outside 0..{MAX_EXPONENT}")
                        bound = e
                    steps[c].append((state, target, e))
                    nxt[target] = None
            states = nxt
        shifts, layer, back, half = _shifts(nvars), {start: {0: 1}}, {end: {0: 1}}, nvars // 2
        for c in range(half):
            layer = _carry(layer, ((s, t, e << shifts[c], 1) for s, t, e in steps[c]))
        for c in range(nvars - 1, half - 1, -1):
            back = _carry(back, ((t, s, e << shifts[c], 1) for s, t, e in steps[c] if t in back))
        meet = ((s, end, key, n) for s in layer if s in back for key, n in back[s].items())
        return cls._made(nvars=nvars, terms=_carry(layer, meet).get(end, {}), _bound=bound)

    @classmethod
    def sum_of_products(cls, nvars: int, triples) -> "MultiPoly":
        """Sum of sign * a * b over (sign, a, b) triples, in one dict pass.

        a and b are polynomials in ``nvars`` variables or ints (such as 1), and
        sign is 1 or -1.  Every term product is added into one map, so no
        product or partial sum is built.  A sum that cancels stays a zero
        until one final pass drops the zeros: in a determinant most products
        land on a key already there, and testing each sum costs more.
        """
        terms: dict[int, int] = {}
        get = terms.get
        bound = 0
        for sign, a, b in triples:
            a, b = cls._lift(nvars, a), cls._lift(nvars, b)
            top = a._bound + b._bound
            if top > MAX_EXPONENT:
                # Degrees in each variable add up exactly in a product over Z,
                # so this is the product's true highest exponent.
                top = max((x + y for x, y in zip(a._degrees(), b._degrees())), default=0)
                if top > MAX_EXPONENT:
                    raise DomainError(f"product exponent {top} exceeds the limit {MAX_EXPONENT}")
            bound = max(bound, top)
            right = b.terms.items()
            for e1, c1 in a.terms.items():
                c1 *= sign
                for key, c2 in right:
                    key += e1
                    terms[key] = get(key, 0) + c1 * c2
        return cls._made(nvars=nvars, terms={key: c for key, c in terms.items() if c}, _bound=bound)

    # -- ring operations ---------------------------------------------------

    @classmethod
    def _lift(cls, nvars: int, value) -> "MultiPoly":
        """``value`` as a polynomial in ``nvars`` variables; ints become constants."""
        if isinstance(value, MultiPoly):
            if value.nvars != nvars:
                raise DomainError(f"variable count mismatch: {nvars} vs {value.nvars}")
            return value
        value = check_int(value, "coefficient")
        return cls._made(nvars=nvars, terms={0: value} if value else {}, _bound=0)

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, (MultiPoly, int)):
            return self._lift(self.nvars, other)
        return NotImplemented

    # sums are products with the constant 1, so one kernel adds every pair of terms
    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return MultiPoly.sum_of_products(self.nvars, ((1, self, 1), (1, other, 1)))

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly.sum_of_products(self.nvars, ((-1, self, 1),))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return MultiPoly.sum_of_products(self.nvars, ((1, self, 1), (-1, other, 1)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return MultiPoly.sum_of_products(self.nvars, ((1, self, other),))

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            other = MultiPoly.const(self.nvars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        # a constant polynomial equals its int value, so it hashes like it
        if not any(self.terms):
            return hash(self.terms.get(0, 0))
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- queries -----------------------------------------------------------

    def coefficient(self, exps) -> int:
        exps = check_ints(exps, "exponent")
        if len(exps) != self.nvars or not all(0 <= e <= MAX_EXPONENT for e in exps):
            return 0
        return self._coefficient(exps)

    def _coefficient(self, exps) -> int:
        """``coefficient`` of ``nvars`` ints in 0..``MAX_EXPONENT``, without the checks."""
        return self.terms.get(_pack(exps), 0)

    def _prefix(self, k: int) -> "MultiPoly":
        """The polynomial at a_{k+1} = ... = a_nvars = 0, in a1..ak: the terms whose
        last ``nvars - k`` fields are zero, those fields dropped."""
        shift = EXPONENT_BITS * (self.nvars - k)
        low = (1 << shift) - 1
        terms = {key >> shift: n for key, n in self.terms.items() if not key & low}
        return MultiPoly._made(nvars=k, terms=terms, _bound=self._bound)

    def _exponents(self):
        """The exponent tuples of the terms, in no particular order."""
        width, mask, high, low = _decoder(self.nvars, _TUPLE)
        return (high[key >> width] + low[key & mask] for key in self.terms)

    def _degrees(self) -> tuple[int, ...]:
        """Highest exponent of each variable; all zero for the zero polynomial."""
        return tuple(max(col) for col in zip(*self._exponents())) or (0,) * self.nvars

    def is_homogeneous(self, degree: int | None = None) -> bool:
        if self._bound * self.nvars < MAX_EXPONENT:  # 2^16 = 1, so key = degree mod 2^16 - 1
            degrees = {key % MAX_EXPONENT for key in self.terms}
        else:
            degrees = {sum(exps) for exps in self._exponents()}
        if not degrees:
            return True
        if len(degrees) > 1:
            return False
        return degree is None or degrees == {degree}

    def evaluate(self, values) -> Fraction:
        """Evaluate at exact values (int or Fraction), one per variable.

        With value k written n_k/d_k and D_k the top exponent of variable k,
        each term adds coeff * prod n_k^e * d_k^(D_k - e) to one int total,
        which is divided once, by prod d_k^D_k.  Each key half's product of the
        powers that occur is taken once, so a lone a1^65535 costs one power.
        """
        values = [check_exact(v, "evaluation value") for v in values]
        if len(values) != self.nvars:
            raise DomainError(f"expected {self.nvars} values, got {len(values)}")
        width, mask, high, low = _decoder(self.nvars, _TUPLE)
        denominator, weights = 1, []
        for side, weight in ((high, {key >> width: 1 for key in self.terms}),
                             (low, {key & mask: 1 for key in self.terms})):
            for (k, _), column in zip(side.fields, zip(*map(side.__getitem__, weight))):
                num, den, top = values[k - 1].numerator, values[k - 1].denominator, max(column)
                if top:
                    power = {e: num**e * den ** (top - e) for e in set(column)}
                    weight = {half: w * power[e] for (half, w), e in zip(weight.items(), column)}
                    denominator *= den**top
            weights.append(weight)
        high_weight, low_weight = weights
        return Fraction(sum([c * high_weight[key >> width] * low_weight[key & mask]
                             for key, c in self.terms.items()]), denominator)

    # -- canonical output ---------------------------------------------------

    def _text(self, keys: list[int]) -> str:
        """The text, from the term keys in descending order; ``_json_terms`` likewise."""
        if not keys:
            return "0"
        width, mask, high, low = _decoder(self.nvars, _FACTORS)
        pieces = []
        for key in keys:
            c = self.terms[key]
            # each factor starts with "*", which a term of coefficient 1 or -1 drops
            factors, mag = high[key >> width] + low[key & mask], -c if c < 0 else c
            body = factors[1:] or "1" if mag == 1 else f"{mag}{factors}"
            pieces.append((" - " if c < 0 else " + ") + body)
        text = "".join(pieces)
        # the leading term keeps only a minus sign
        return text[3:] if text[1] == "+" else "-" + text[3:]

    def _json_terms(self, keys: list[int]) -> dict[str, int]:
        width, mask, high, low = _decoder(self.nvars, _COMMAS)
        return {(high[key >> width] + low[key & mask])[1:]: self.terms[key] for key in keys}

    def text(self) -> str:
        return self._text(sorted(self.terms, reverse=True))

    __str__ = text

    def json_terms(self) -> dict[str, int]:
        """Exponent-keyed coefficient map, e.g. {"1,2,0,0": 1}."""
        return self._json_terms(sorted(self.terms, reverse=True))

    def text_and_terms(self) -> tuple[str, dict[str, int]]:
        """``text()`` and ``json_terms()``, from one sort of the terms."""
        keys = sorted(self.terms, reverse=True)
        return self._text(keys), self._json_terms(keys)

    def __repr__(self):
        return f"MultiPoly({self.nvars}, {self.text()!r})"
