"""The input layer: partitions, bits and words, and the index windows of minors.

Every public entry point checks its inputs with the functions here, so each
input rule and its message is written once; ``Value`` is the read-only base
of the classes whose constructors check their fields.

A partition is stored as a tuple of its positive parts in weakly decreasing
order, indexed from 0 (so ``lam[0]`` is the longest row).  Reading an index
beyond the stored length yields 0.  The empty tuple is the empty partition.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import isqrt

from .errors import DomainError, InvalidWindowError

Partition = tuple[int, ...]
BitString = tuple[int, ...]
EXACT = (int, Fraction)  # the types of an exact rational value


def check_int(value, what: str) -> int:
    """The value if it is an int (or has ``__index__``); DomainError otherwise."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{what} entries must be integers, got {value!r}") from None


def check_ints(values, what: str) -> tuple[int, ...]:
    """A tuple of the values, each through ``check_int``, if they come as a tuple or a list:
    the one sequence rule, so no set, dict, bytes, str, range or generator is read."""
    if not isinstance(values, (tuple, list)):
        raise DomainError(f"{what} must be a tuple or a list, got {values!r}")
    return tuple(check_int(v, what) for v in values)


def check_count(value, what: str) -> int:
    """The value as an int, if it is a nonnegative integer; DomainError otherwise."""
    value = check_int(value, what)
    if value < 0:
        raise DomainError(f"{what} must be nonnegative, got {value}")
    return value


def check_exact(value, what: str):
    """The value if it is an int or a Fraction; DomainError otherwise."""
    if not isinstance(value, EXACT):
        raise DomainError(f"{what} must be an int or Fraction, got {value!r}")
    return value


def is_alternating(bits) -> bool:
    """True iff consecutive entries always differ (vacuously for length <= 1)."""
    bits = tuple(bits)
    return all(a != b for a, b in zip(bits, bits[1:]))


def is_prime_power(q: int) -> bool:
    """True iff the int q is p^k for a prime p and k >= 1, the size of a finite field."""
    if q < 2:
        return False
    p = next((p for p in range(2, isqrt(q) + 1) if q % p == 0), q)  # least prime factor
    while q % p == 0:
        q //= p
    return q == 1


def check_bit(value, what: str = "parity") -> int:
    """The value as an int, if it is 0 or 1; DomainError otherwise."""
    value = check_int(value, what)
    if value not in (0, 1):
        raise DomainError(f"{what} must be 0 or 1, got {value!r}")
    return value


def check_bits(bits, what: str = "bit string") -> BitString:
    """A tuple of ints, each 0 or 1; DomainError otherwise."""
    out = check_ints(bits, what)
    if any(b not in (0, 1) for b in out):
        raise DomainError(f"{what} entries must be 0 or 1, got {out}")
    return out


def check_word(bits) -> BitString:
    word = check_bits(bits, "word")
    if not is_alternating(word):
        raise DomainError(f"word {word} is not alternating")
    return word


def check_factorization_word(bits) -> BitString:
    """An alternating word with at least one letter, one per generator."""
    word = check_word(bits)
    if not word:
        raise DomainError("a factorization word must have at least one letter")
    return word


def check_parity_string(d, lam: Partition) -> BitString:
    """A bit string with one bit per box of the checked partition ``lam``."""
    d = check_bits(d, "parity string")
    if len(d) != size(lam):
        raise DomainError(f"parity string length {len(d)} != |lam| = {size(lam)}")
    return d


def check_partition(parts) -> Partition:
    """Normalize a tuple or list of parts into a valid partition tuple.

    Trailing zero parts are stripped; a negative part or an increase between
    consecutive parts raises :class:`DomainError`.
    """
    parts = check_ints(parts, "partition")
    for prev, p in zip(parts[:1] + parts, parts):
        if p < 0:
            raise DomainError(f"negative part {p} in partition")
        if p > prev:
            raise DomainError(f"parts not weakly decreasing: {p} after {prev}")
    return tuple(filter(None, parts))  # weakly decreasing and nonnegative: its zeros trail


def part(lam: Partition, n: int) -> int:
    """The n-th part of ``lam``, reading 0 beyond the stored length."""
    return lam[n] if 0 <= n < len(lam) else 0


def size(lam: Partition) -> int:
    return sum(lam)


def conjugate(lam: Partition) -> Partition:
    """The conjugate partition lam', the transpose of lam's diagram: its n-th
    part counts the parts of lam greater than n."""
    return tuple(sum(p > n for p in lam) for n in range(part(lam, 0)))


def max_index(lam: Partition) -> int:
    """Largest n with ``lam[n] > 0``; 0 for the empty partition by convention."""
    return len(lam) - 1 if lam else 0


def contains(inner: Partition, outer: Partition) -> bool:
    """True iff ``inner[t] <= outer[t]`` for every index t."""
    return all(part(inner, t) <= part(outer, t) for t in range(len(inner)))


def check_contained(inner: Partition, outer: Partition) -> None:
    if not contains(inner, outer):
        raise DomainError(f"{inner} is not contained in {outer}")


def index_set(lam: Partition, i: int, n_max: int) -> list[int]:
    """The window ``[lam[n] + i - n for n in 0..n_max]`` in canonical order.

    The values are strictly decreasing in n (the parts weakly decrease while
    n strictly increases), hence pairwise distinct; the n = 0 element comes
    first.  Minor computations rely on this fixed ordering for a
    deterministic determinant sign.

    ``lam`` is read as a partition, ``i`` as a bit and ``n_max`` as an int,
    each a :class:`DomainError` otherwise; a window that would truncate
    ``lam`` raises :class:`InvalidWindowError`.
    """
    lam = check_partition(lam)
    i = check_bit(i)
    n_max = check_int(n_max, "window bound")
    if n_max < max_index(lam):
        raise InvalidWindowError(
            f"window n_max={n_max} smaller than max index {max_index(lam)} of {lam}"
        )
    return _index_window(lam, i, n_max)


def _index_window(lam: Partition, i: int, n_max: int) -> list[int]:
    """``index_set`` of inputs already checked."""
    return [part(lam, n) + i - n for n in range(n_max + 1)]


def index_windows(mu: Partition, lam: Partition, i: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Check mu inside lam and the bit i; the windows of mu and lam cut at maxIndex(lam),
    which are the rows and columns of the minor and the sources and sinks of its paths."""
    mu = check_partition(mu)
    lam = check_partition(lam)
    i = check_bit(i)
    check_contained(mu, lam)
    n_max = max_index(lam)
    return tuple(_index_window(mu, i, n_max)), tuple(_index_window(lam, i, n_max))


class Value:
    """A read-only value, checked once by its constructor, which sets its attributes through
    ``vars``: equal and hashed by ``_key()``, the values of its ``_fields``, and shown as them."""

    _fields: tuple[str, ...] = ()

    @classmethod
    def _made(cls, **fields):
        """The one trusted constructor: these fields, set unchecked, as the caller built them."""
        made = object.__new__(cls)
        vars(made).update(fields)
        return made

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key()))
        return f"{type(self).__name__}({shown})"


def parse_ints(text: str, what: str) -> tuple[int, ...]:
    """Parse a comma-separated integer list; the empty string is the empty list."""
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise DomainError(f"cannot parse {what} {text!r}") from exc


def parse_partition(text: str) -> Partition:
    """Parse a comma-separated part list; the empty string is the empty partition."""
    return check_partition(parse_ints(text, "partition"))


def format_partition(lam: Partition) -> str:
    return ",".join(str(p) for p in lam)


def partitions_up_to(n: int) -> list[Partition]:
    """All partitions of 0..n, by size, then in descending lexicographic order: grown from ()
    one part at a time, each part at most the one before it and what is left of n."""
    n = check_int(n, "partition size")
    grown, layer = [], [()] if n >= 0 else []
    while layer:
        grown += layer
        layer = [lam + (p,) for lam in layer for p in range(min(lam[-1:] + (n - size(lam),)), 0, -1)]
    return sorted(sorted(grown, reverse=True), key=size)


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n in descending lexicographic order, the size-n ones of the growth."""
    n = check_int(n, "partition size")
    if n < 0:
        raise DomainError("cannot partition a negative integer")
    return [lam for lam in partitions_up_to(n) if size(lam) == n]


def subpartitions(lam: Partition) -> list[Partition]:
    """All partitions contained in ``lam``, in descending lexicographic order: grown row by
    row, each part at most the one above and lam's, so a zero part ends the partition."""
    grown = [()]
    for cap in check_partition(lam):
        grown = [mu + (p,) for mu in grown for p in range(min(mu[-1:] + (cap,)), -1, -1)]
    return [tuple(filter(None, mu)) for mu in grown]
