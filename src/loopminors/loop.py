"""Exact 2x2 Laurent-polynomial matrices: generators, words, membership.

Laurent polynomials carry either rational coefficients (numeric mode) or
integer multivariate polynomials in a1..ak (symbolic mode); both are exact,
and ``_ring`` holds each mode's zero and one.  Both classes are read-only
``partitions.Value``s.  A Laurent polynomial has no arithmetic of its own:
matrix products, the determinant and the column operations of ``_letters`` go
through one kernel, ``_graded_sum``, which reduces the coefficient products on
each power of t in one ``signed_sum``.  A loop element is a 2x2 Laurent matrix
of determinant 1, which the public constructor checks and no assignment undoes;
``_letters`` (the builder of ``identity_loop``, ``generator``, ``word_to_loop``) and
products keep it, so they build, like ``_graded_sum``, through the unchecked ``Value._made``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .determinants import signed_sum
from .errors import DomainError
from .multipoly import MultiPoly
from .partitions import (
    EXACT, Value, check_bit, check_count, check_exact, check_factorization_word, check_int,
)


class LaurentPoly(Value):
    """Finitely supported map from integer t-exponents to ring coefficients."""

    _fields = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for exp, coeff in (terms or {}).items():
            exp = check_int(exp, "t-exponent")
            if not isinstance(coeff, (*EXACT, MultiPoly)):
                raise DomainError(f"inexact loop coefficient {coeff!r}: must be an int or Fraction")
            if coeff:
                clean[exp] = coeff
        vars(self).update(terms=clean)

    @classmethod
    def const(cls, coeff) -> "LaurentPoly":
        return cls({0: coeff})

    def __bool__(self):
        return bool(self.terms)

    def is_polynomial(self) -> bool:
        """No negative powers of t."""
        return all(exp >= 0 for exp in self.terms)

    def __str__(self):
        """The polynomial in t, highest power first, with exact coefficients."""
        pieces = []
        for exp in sorted(self.terms, reverse=True):
            text = str(self.terms[exp])
            if exp:
                power = "t" if exp == 1 else f"t^{exp}"
                if text in ("1", "-1"):
                    text = text[:-1] + power
                else:
                    text = f"({text})*{power}" if " " in text else f"{text}*{power}"
            pieces.append(text)
        return " + ".join(pieces).replace(" + -", " - ") or "0"


def _graded_sum(triples, zero) -> LaurentPoly:
    """Sum of sign * a * b over (sign, a, b) triples of Laurent polynomials.

    The one product kernel of this module.  The coefficient products landing
    on one power of t form one group, reduced by one ``signed_sum`` from the
    ring zero ``zero``; a power whose group cancels is dropped.
    """
    groups: dict[int, list] = {}
    for sign, a, b in triples:
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                groups.setdefault(e1 + e2, []).append((sign, c1, c2))
    sums = ((exp, signed_sum(group, zero)) for exp, group in groups.items())
    return LaurentPoly._made(terms={exp: c for exp, c in sums if c})


@cache  # no value is changed in place, so every caller shares them
def _ring(nvars: int | None):
    """The coefficient ring's (zero, one): rationals for None, else polynomials in nvars variables."""
    if nvars is None:
        return Fraction(0), Fraction(1)
    return MultiPoly.zero(nvars), MultiPoly.one(nvars)


class LoopElement(Value):
    """A 2x2 Laurent matrix of determinant 1.

    ``nvars`` is None in numeric (rational) mode, or the shared variable
    count of the symbolic coefficients.  The constructor checks that every
    coefficient is exact (an int or Fraction in numeric mode, a MultiPoly in
    ``nvars`` variables in symbolic mode) and that the determinant is 1.
    """

    _fields = ("entries", "nvars")

    def __init__(self, entries, nvars: int | None = None):
        entries = tuple(tuple(row) for row in entries)
        if len(entries) != 2 or any(len(row) != 2 for row in entries):
            raise DomainError("a loop element is a 2x2 matrix")
        ring = EXACT if nvars is None else MultiPoly
        for entry in (entry for row in entries for entry in row):
            if not isinstance(entry, LaurentPoly):
                raise DomainError(f"loop element entries must be LaurentPoly, got {entry!r}")
            for coeff in entry.terms.values():
                if not isinstance(coeff, ring) or (nvars is not None and coeff.nvars != nvars):
                    raise DomainError(f"inexact loop coefficient {coeff!r} for nvars={nvars}")
        vars(self).update(entries=entries, nvars=nvars)
        det = self.determinant()
        if det != LaurentPoly.const(self.one_coeff()):
            raise DomainError(f"determinant is not 1: {det}")

    def one_coeff(self):
        return _ring(self.nvars)[1]

    def zero_coeff(self):
        return _ring(self.nvars)[0]

    def entry(self, i: int, j: int) -> LaurentPoly:
        """1-origin matrix component, i, j in {1, 2}."""
        if i not in (1, 2) or j not in (1, 2):
            raise DomainError(f"component indices must be 1 or 2, got ({i}, {j})")
        return self.entries[i - 1][j - 1]

    def determinant(self) -> LaurentPoly:
        (g11, g12), (g21, g22) = self.entries
        return _graded_sum(((1, g11, g22), (-1, g12, g21)), self.zero_coeff())

    def __mul__(self, other: "LoopElement") -> "LoopElement":
        if self.nvars != other.nvars:
            raise DomainError("cannot multiply loop elements of different modes")
        a, b, zero = self.entries, other.entries, self.zero_coeff()
        rows = tuple(
            tuple(_graded_sum(((1, a[i][0], b[0][j]), (1, a[i][1], b[1][j])), zero) for j in (0, 1))
            for i in (0, 1)
        )
        return LoopElement._made(entries=rows, nvars=self.nvars)


def _letters(word, params, nvars: int | None) -> LoopElement:
    """The product of generators x_{word[t]}(params[t]) over t, in order.

    Starting from the identity's columns, letter 0 adds column 2 times params[t] t to column 1
    and letter 1 adds column 1 times params[t] to column 2.  These keep the determinant 1, so
    it is not checked again; a zero parameter adds no term.
    """
    zero, one = _ring(nvars)
    unit, empty = LaurentPoly.const(one), LaurentPoly()
    columns = [(unit, empty), (empty, unit)]
    for bit, a in zip(word, params):
        step = LaurentPoly._made(terms={1 - bit: a} if a else {})
        columns[bit] = tuple(
            _graded_sum(((1, own, unit), (1, other, step)), zero)
            for own, other in zip(columns[bit], columns[1 - bit])
        )
    (g11, g21), (g12, g22) = columns
    return LoopElement._made(entries=((g11, g12), (g21, g22)), nvars=nvars)


def identity_loop(nvars: int | None = None) -> LoopElement:
    return _letters((), (), nvars if nvars is None else check_count(nvars, "variable count"))


def generator(i: int, a) -> LoopElement:
    """The one-parameter elements [[1,0],[a t,1]] (i=0) and [[1,a],[0,1]] (i=1).

    The parameter ``a`` is a MultiPoly (symbolic) or an int or Fraction
    (numeric); anything else, a float or a string included, is a DomainError.
    """
    i = check_bit(i, "generator parity")
    nvars = a.nvars if isinstance(a, MultiPoly) else None
    if nvars is None:
        a = Fraction(check_exact(a, "generator parameter"))
    return _letters((i,), (a,), nvars)


def word_to_loop(word) -> LoopElement:
    """Symbolic product of generators along an alternating word, letter t with parameter a_{t+1}."""
    word = check_factorization_word(word)
    k = len(word)
    return _letters(word, [MultiPoly.variable(k, t) for t in range(k)], k)


def is_unipotent_plus(g: LoopElement) -> bool:
    """Membership in the positive unipotent subgroup.

    Diagonal entries lie in 1 + t C[t], the upper entry in C[t], the lower
    in t C[t]; the determinant condition is already guaranteed.
    """
    zero, one = _ring(g.nvars)
    (g11, g12), (g21, g22) = g.entries
    return (
        all(entry.is_polynomial() for entry in (g11, g12, g21, g22))
        and g11.terms.get(0, zero) == one
        and g22.terms.get(0, zero) == one
        and g21.terms.get(0, zero) == zero
    )
