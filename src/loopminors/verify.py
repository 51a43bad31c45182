"""Cross-route equality drivers: each checked identity computed two or three ways.

Each target is one row of ``_ROWS``; a case passes when its route values are all
equal.  A theorem's failure is a regression, a conjecture's mismatch a finding.
Each builder imports its route when it runs, so a sweep loads only its target's routes.
"""

from __future__ import annotations

from functools import cache, cached_property, partial
from itertools import combinations
from math import factorial, prod
from typing import Callable, Iterator, NamedTuple

from .errors import DomainError
from .partitions import (
    Partition, check_bit, check_bits, check_factorization_word, check_int, check_ints,
    check_partition, format_partition, partitions_up_to, size, subpartitions,
)


class _Shared(dict):
    """What the cases of one sweep, or one ``check``, share, each value built once.

    ``shared(build, *key)`` is ``build(*key)``, kept while ``key`` is the last key asked of
    ``build``: a grid runs each key's cases one after another, and the last value is let go
    before the next is built.  ``shared[build]`` is ``cache(build)``, kept to the end: each
    field's text and each prop1 (word, j) expansion.  ``loops`` is the loop element of each of
    ``words``, the longest word of each start letter, on which each route runs, built once.
    """

    def __init__(self, words):
        self.words, self.last = words, {}

    def __missing__(self, build):
        kept = self[build] = cache(build)
        return kept

    @cached_property
    def loops(self) -> dict:
        from .loop import word_to_loop

        return {w: word_to_loop(w) for w in self.words}

    def __call__(self, build, *key):
        last = self.last.get(build)
        if last is None or last[0] != key:
            last = self.last[build] = None  # let the last value go before the next is built
            last = self.last[build] = key, build(*key)
        return last[1]


class _Row(NamedTuple):
    fields: tuple[str, ...]  # a case: the arguments of check, the keys of its report
    values: Callable  # the route values, from the sweep's _Shared and the case


# Builders import their routes when they run, so rebinding a name in the route's module reaches
# them.  A value is keyed by the shape and parity, not the word: a route's value on the
# alternating word of k letters is its value on the longest of that start letter at
# a_{k+1} = ... = 0 (a tableau or family uses no later letter; a generator at 0 is the
# identity), so a case restricts that value as it reads it.
def _phis(words, lam, i) -> dict:
    from .phi import phi_polynomial

    return {w[0]: phi_polynomial(lam, i, w) for w in words}


def _paths(words, mu, lam, i) -> dict:
    from .networks import lindstrom_minor

    return {w[0]: lindstrom_minor(w, mu, lam, i) for w in words}


def _minors(loops, mu, lam, i) -> dict:
    from .toeplitz import minor

    return {w[0]: minor(g, mu, lam, i) for w, g in loops.items()}


def _pieris(loops, lam, i) -> dict:
    from .toeplitz import pieri_determinant

    return {w[0]: pieri_determinant(g, lam, i) for w, g in loops.items()}


def _at(word, **values) -> dict:
    """Each route's value on ``word``: its start letter's value restricted to len(word) letters."""
    return {route: by_start[word[0]]._prefix(len(word)) for route, by_start in values.items()}


def _theorem2(shared, word, lam, i) -> dict:
    loops, words = shared.loops, shared.words
    return _at(word, phi=shared(_phis, words, lam, i), lindstrom=shared(_paths, words, (), lam, i),
               toeplitz=shared(_minors, loops, (), lam, i))


def _expansion(word, j) -> tuple:
    from .tableaux import expand_word

    return expand_word(word, j), prod(map(factorial, j))


def _counts(lam, i) -> Callable:
    from .phi import euler_char

    return cache(partial(euler_char, lam, i))


def _prop1(shared, word, lam, i, j) -> dict:
    """Tableaux counted by euler_char's walk, once per parity string d of a (lambda, i), and
    chess tableaux read off phi's longest walk, as a^j with trailing zeros, which the
    restriction to the word keeps; each (word, content)'s d, which expand_word checks, and
    product of j_t! are made once, and euler_char checks d against lambda."""
    d, weight = shared[_expansion](word, j)
    walk = shared(_phis, shared.words, lam, i)[word[0]]
    chess = walk._coefficient(j + (0,) * (walk.nvars - len(j)))
    return {"tab_count": shared(_counts, lam, i)(d), "factorial_times_chess": weight * chess}


def _conjecture1(shared, lam, i, d, q) -> dict:
    from .shapemod import build_module, count_flags_fq
    from .tableaux import conjecture1_prediction

    module = shared(build_module, lam, (), i)
    return {"prediction": conjecture1_prediction(lam, i, d, q),
            "brute_force": count_flags_fq(module, d, q)}


def _pieri(shared, word, lam, i) -> dict:
    loops = shared.loops
    return _at(word, pieri=shared(_pieris, loops, lam, i), minor=shared(_minors, loops, (), lam, i))


def _lindstrom(shared, word, mu, lam, i) -> dict:
    loops = shared.loops
    return _at(word, lindstrom=shared(_paths, shared.words, mu, lam, i),
               toeplitz=shared(_minors, loops, mu, lam, i))


# Fields follow lindstrom_minor(word, mu, lam, i).
_ROWS = {
    "theorem2": _Row(("word", "lambda", "parity"), _theorem2),
    "prop1": _Row(("word", "lambda", "parity", "content"), _prop1),
    "conjecture1": _Row(("lambda", "parity", "d", "q"), _conjecture1),
    "pieri": _Row(("word", "lambda", "parity"), _pieri),
    "lindstrom": _Row(("word", "mu", "lambda", "parity"), _lindstrom),
}

# Each field's reader in the input layer, with the message its routes give.
_READERS = {"word": check_factorization_word, "mu": check_partition, "lambda": check_partition,
            "parity": check_bit, "content": partial(check_ints, what="content"),
            "d": partial(check_bits, what="parity string"), "q": partial(check_int, what="field size")}

# The verify targets in CLI order; target t sweeps the cases of ``sweep_<t>``.
TARGETS = tuple(_ROWS)
# Conjectures: a mismatch is reported, never a failure.
REPORT_ONLY = frozenset({"conjecture1"})
DEFAULT_QS = (2, 3)


class VerificationReport:
    """One case's route values and whether they agree; ``ok`` may be reassigned."""

    def __init__(self, check: str, case: dict, values: dict, ok: bool = False):
        self.check, self.case, self.values, self.ok = check, case, values, ok

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"VerificationReport({shown})"

    def to_json(self) -> dict:
        status = "ok" if self.ok else ("mismatch" if self.check in REPORT_ONLY else "fail")
        # a value equal to the first reuses its text, so a passing report renders one
        first = next(iter(self.values.values()), None)
        shown = str(first)
        values = {k: shown if v is first or v == first else str(v) for k, v in self.values.items()}
        return {"check": self.check, "case": self.case, "values": values, "status": status}


def _row(target: str) -> _Row:
    if target not in _ROWS:
        raise DomainError(f"unknown verify target {target!r}")
    return _ROWS[target]


def check(target: str, *case) -> VerificationReport:
    """The report of one case, given as its row's fields in order, such as
    ``check("lindstrom", word, mu, lam, i)``: each is read by its ``_READERS`` entry in field
    order, so a sequence field is a tuple or a list (a set has no order) and the report shows
    the canonical case, run as a sweep's on its own word."""
    row = _row(target)
    if len(case) != len(row.fields):
        raise DomainError(f"{target} takes {len(row.fields)} fields ({', '.join(row.fields)}), "
                          f"got {len(case)}")
    case = tuple(_READERS[field](value) for field, value in zip(row.fields, case))
    return _check(target, case, _Shared(case[:1] if row.fields[0] == "word" else ()))


def _text(value):
    """A case field as reported: an int as it is, a sequence as its comma list."""
    return value if isinstance(value, int) else format_partition(value)


def _check(target: str, case: tuple, shared: _Shared) -> VerificationReport:
    """Every report: one case's route values, given what it shares with the other cases of
    its sweep; each field is reported by its text, made once per sweep."""
    row = _ROWS[target]
    values = row.values(shared, *case)
    routes = list(values.values())
    return VerificationReport(
        check=target,
        case=dict(zip(row.fields, map(shared[_text], case))),
        values=values,
        ok=routes.count(routes[0]) == len(routes),
    )


def alternating_words(length: int) -> list[tuple[int, ...]]:
    """Both alternating words of a given positive length."""
    if length < 1:
        raise DomainError("word length must be at least 1")
    return [tuple((start + t) % 2 for t in range(length)) for start in (0, 1)]


def all_words_up_to(max_word: int) -> list[tuple[int, ...]]:
    return [word for length in range(1, max_word + 1) for word in alternating_words(length)]


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Nonnegative integer tuples of a given length summing to total: the gaps between cuts."""
    for cuts in combinations(range(total + parts - 1), parts - 1):
        yield tuple(b - a - 1 for a, b in zip((-1, *cuts), (*cuts, total + parts - 1)))


def realizable_parities(lam: Partition, i: int) -> list[tuple[int, ...]]:
    """Distinct i-parity strings of the standard tableaux of shape lam."""
    from .tableaux import enumerate_standard, parity_string

    return sorted({parity_string(T, i) for T in enumerate_standard(lam)})


# Each target's cases, one item per case in output order.
def sweep_theorem2(max_size: int, max_word: int) -> Iterator[tuple]:
    words = all_words_up_to(max_word)
    return ((word, lam, i) for lam in partitions_up_to(max_size) for i in (0, 1) for word in words)


def sweep_prop1(max_size: int, max_word: int) -> Iterator[tuple]:
    words, lengths = all_words_up_to(max_word), range(1, max_word + 1)
    # each list of contents once per sweep, not once per (lambda, i, word)
    contents = {(n, k): list(compositions(n, k)) for n in range(max_size + 1) for k in lengths}
    return ((word, lam, i, j) for lam in partitions_up_to(max_size) for i in (0, 1) for word in words
            for j in contents[size(lam), len(word)])


def sweep_conjecture1(max_size: int, qs) -> Iterator[tuple]:
    return ((lam, i, d, q) for lam in partitions_up_to(max_size) for i in (0, 1)
            for d in realizable_parities(lam, i) for q in qs)


def sweep_pieri(max_size: int, max_word: int) -> Iterator[tuple]:
    return sweep_theorem2(max_size, max_word)


def sweep_lindstrom(max_size: int, max_word: int) -> Iterator[tuple]:
    words = all_words_up_to(max_word)
    return ((word, mu, lam, i) for lam in partitions_up_to(max_size) for mu in subpartitions(lam)
            for i in (0, 1) for word in words)


def sweep(target: str, max_size: int, max_word=None, qs=None) -> Iterator[VerificationReport]:
    """The reports of the cases of ``sweep_<target>``, given the bounds it takes.

    The grid is looked up when called, so a rebound ``sweep_<target>`` is the one that runs.
    ``qs`` defaults to ``DEFAULT_QS``; a target without a field size q rejects it, and only a
    target without one reads ``max_word``, the length of the longest word its values run on.
    """
    sweeps_q = "q" in _row(target).fields
    check_int(max_size, "max_size")
    words = ()
    if not sweeps_q:
        length = check_int(max_word, "max_word")
        words = alternating_words(length) if length > 0 else ()
    qs = qs if qs is None else check_ints(qs, "field size")
    if qs is not None and not sweeps_q:
        raise DomainError(f"{target} sweeps words, not field sizes; drop --q")
    if qs is not None and (not qs or len(set(qs)) < len(qs)):
        raise DomainError(f"{target} needs at least one field size q, each once; got {list(qs)}")
    grid = globals()[f"sweep_{target}"](max_size, (qs or DEFAULT_QS) if sweeps_q else max_word)
    shared = _Shared(words)
    return (_check(target, case, shared) for case in grid)


def summarize(reports) -> dict:
    """Case and failure counts of a sweep, the counts so far marked
    ``"interrupted"`` if an interrupt ends it; DomainError if it checked none."""
    cases = failures = 0
    try:
        for report in reports:
            cases += 1
            failures += not report.ok
    except KeyboardInterrupt:
        return {"cases": cases, "failures": failures, "interrupted": True}
    if not cases:
        raise DomainError("the sweep checked no cases; raise --max-size or --max-word")
    return {"cases": cases, "failures": failures}
