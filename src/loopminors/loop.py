"""Exact 2x2 Laurent-polynomial matrices: generators, words, membership.

Laurent polynomials carry either rational coefficients (numeric mode) or
integer multivariate polynomials in a1..ak (symbolic mode); both are exact.
A Laurent polynomial is a plain value with no arithmetic of its own: matrix
products, the determinant and the column operations of ``word_to_loop`` all
go through one kernel, ``_graded_sum``, which reduces the coefficient
products landing on each power of t in one ``signed_sum``.  A loop element
is a 2x2 Laurent matrix with determinant exactly 1.  The public constructor
checks it.  ``generator``, ``identity_loop``, ``word_to_loop`` and products
hold it by construction, so they build through ``LoopElement._built``, which
skips only that check.
"""

from __future__ import annotations

from fractions import Fraction

from .determinants import signed_sum
from .errors import DomainError
from .multipoly import MultiPoly
from .partitions import EXACT, check_bit, check_exact, check_factorization_word, check_int


class LaurentPoly:
    """Finitely supported map from integer t-exponents to ring coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for exp, coeff in terms.items():
                exp = check_int(exp, "t-exponent")
                if coeff:
                    clean[exp] = coeff
        self.terms = clean

    @classmethod
    def const(cls, coeff) -> "LaurentPoly":
        return cls({0: coeff})

    def coeff(self, exp: int, zero):
        return self.terms.get(exp, zero)

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.terms == other.terms

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

    def __repr__(self):
        return f"LaurentPoly({self.terms!r})"


def _graded_sum(triples, zero) -> LaurentPoly:
    """Sum of sign * a * b over (sign, a, b) triples of Laurent polynomials.

    The one product kernel of this module.  The coefficient products landing
    on one power of t form one group, reduced by one ``signed_sum`` from the
    ring zero ``zero``; a power whose group cancels is dropped.  A coefficient
    of b may be the int 1.
    """
    groups: dict[int, list] = {}
    for sign, a, b in triples:
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                groups.setdefault(e1 + e2, []).append((sign, c1, c2))
    return LaurentPoly({exp: signed_sum(group, zero) for exp, group in groups.items()})


class LoopElement:
    """A 2x2 Laurent matrix of determinant 1.

    ``nvars`` is None in numeric (rational) mode, or the shared variable
    count of the symbolic coefficients.  The constructor checks that every
    coefficient is exact (an int or Fraction in numeric mode, a MultiPoly in
    ``nvars`` variables in symbolic mode) and that the determinant is 1.
    """

    __slots__ = ("entries", "nvars")

    def __init__(self, entries, nvars: int | None = None):
        self._set(entries, nvars)
        det = self.determinant()
        if det != LaurentPoly.const(self.one_coeff()):
            raise DomainError(f"determinant is not 1: {det}")

    @classmethod
    def _built(cls, entries, nvars: int | None) -> "LoopElement":
        """Checked as ``__init__`` checks, but for det = 1, which the caller's construction keeps."""
        g = cls.__new__(cls)
        g._set(entries, nvars)
        return g

    def _set(self, entries, nvars: int | None) -> None:
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
        self.entries = entries
        self.nvars = nvars

    def one_coeff(self):
        return MultiPoly.one(self.nvars) if self.nvars is not None else Fraction(1)

    def zero_coeff(self):
        return MultiPoly.zero(self.nvars) if self.nvars is not None else Fraction(0)

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
        rows = [
            [_graded_sum(((1, a[i][0], b[0][j]), (1, a[i][1], b[1][j])), zero) for j in range(2)]
            for i in range(2)
        ]
        return LoopElement._built(rows, self.nvars)

    def __eq__(self, other):
        return (
            isinstance(other, LoopElement)
            and self.nvars == other.nvars
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"LoopElement({self.entries!r}, nvars={self.nvars})"


def identity_loop(nvars: int | None = None) -> LoopElement:
    unit = LaurentPoly.const(MultiPoly.one(nvars) if nvars is not None else Fraction(1))
    return LoopElement._built(((unit, LaurentPoly()), (LaurentPoly(), unit)), nvars)


def generator(i: int, a) -> LoopElement:
    """The one-parameter elements [[1,0],[a t,1]] (i=0) and [[1,a],[0,1]] (i=1).

    The parameter ``a`` is a MultiPoly (symbolic) or an int or Fraction
    (numeric); anything else, a float or a string included, is a DomainError.
    """
    i = check_bit(i, "generator parity")
    if isinstance(a, MultiPoly):
        nvars = a.nvars
        one = MultiPoly.one(nvars)
    else:
        a = Fraction(check_exact(a, "generator parameter"))
        nvars = None
        one = Fraction(1)
    unit = LaurentPoly.const(one)
    zero = LaurentPoly()
    if i == 0:
        lower = LaurentPoly({1: a})
        entries = ((unit, zero), (lower, unit))
    else:
        upper = LaurentPoly.const(a)
        entries = ((unit, upper), (zero, unit))
    return LoopElement._built(entries, nvars)


def word_to_loop(word) -> LoopElement:
    """Symbolic product of generators along an alternating word.

    The t-th letter contributes the formal parameter a_{t+1} as a column
    operation on the running product: letter 0 adds column 2 times a_{t+1} t
    to column 1, letter 1 adds column 1 times a_{t+1} to column 2.  These
    keep the determinant 1, so it is not checked again.
    """
    word = check_factorization_word(word)
    k = len(word)
    unit, zero = LaurentPoly.const(MultiPoly.one(k)), LaurentPoly()
    columns = [(unit, zero), (zero, unit)]
    keep, ring_zero = LaurentPoly.const(1), MultiPoly.zero(k)
    for t, bit in enumerate(word):
        step = LaurentPoly({1 - bit: MultiPoly.variable(k, t)})
        columns[bit] = tuple(
            _graded_sum(((1, own, keep), (1, other, step)), ring_zero)
            for own, other in zip(columns[bit], columns[1 - bit])
        )
    (g11, g21), (g12, g22) = columns
    return LoopElement._built(((g11, g12), (g21, g22)), k)


def is_unipotent_plus(g: LoopElement) -> bool:
    """Membership in the positive unipotent subgroup.

    Diagonal entries lie in 1 + t C[t], the upper entry in C[t], the lower
    in t C[t]; the determinant condition is already guaranteed.
    """
    one = g.one_coeff()
    zero = g.zero_coeff()
    g11, g12, g21, g22 = g.entry(1, 1), g.entry(1, 2), g.entry(2, 1), g.entry(2, 2)
    if not (g11.is_polynomial() and g12.is_polynomial() and g21.is_polynomial() and g22.is_polynomial()):
        return False
    if g11.coeff(0, zero) != one or g22.coeff(0, zero) != one:
        return False
    if g21.coeff(0, zero) != zero:
        return False
    return True
