"""Cross-route equality drivers: each checked identity computed two or three ways.

Each target is one row of ``_ROWS``; a case passes when its route values are all
equal.  A theorem's failure is a regression, a conjecture's mismatch a finding.
"""

from __future__ import annotations

from itertools import combinations
from math import factorial, prod
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple

from .errors import DomainError
from .loop import word_to_loop
from .networks import lindstrom_prefixes
from .partitions import (
    Partition, check_bit, check_factorization_word, check_int, check_parity_string, check_partition,
    format_partition, partitions_up_to, size, subpartitions,
)
from .phi import euler_char, phi_prefixes
from .shapemod import build_module, count_flags_fq
from .tableaux import (
    _expand, conjecture1_prediction, enumerate_standard, expand_word, parity_string,
)
from .toeplitz import minor, pieri_determinant


class _Share(NamedTuple):
    fields: tuple[str, ...]  # the case fields that key the value
    build: Callable  # the value from those fields; a walk share's from them and a word to walk
    walk: bool = False  # a walk share: a route on every prefix of a word, per start letter


class _Row(NamedTuple):
    fields: tuple[str, ...]  # a case: the arguments of check, the keys of its report
    shares: tuple[_Share, ...]  # the values its cases share; they read the leading fields
    values: Callable  # the route values, from the shared values in order and the case
    read: Callable | None = None  # check's reader of a case whose values trust it; else routes check


def _at(walks: dict, word) -> object:
    """The value on ``word`` of a walk share: its start letter's walk after len(word) steps."""
    return walks[word[0]][len(word) - 1]


def _read_prop1(word, lam, i, j) -> tuple:
    """A prop1 case through the input layer, with the errors its routes gave when they checked it."""
    lam, i, word = check_partition(lam), check_bit(i), check_factorization_word(word)
    j = tuple(check_int(v, "content") for v in j)
    check_parity_string(expand_word(word, j), lam)
    return word, lam, i, j


def _prop1_values(phis, counts, expansions, word, lam, i, j) -> dict:
    """Tableaux counted by euler_char's walk, once per parity string d of a (word, lambda, i),
    and chess tableaux read off phi's; each (word, content)'s d and product of j_t! are made
    once.  The case, read by check or built by a grid, is not checked again."""
    key = word, j
    if key not in expansions:
        expansions[key] = _expand(word, j), prod(map(factorial, j))
    d, weight = expansions[key]
    if d not in counts:
        counts[d] = euler_char(lam, i, d)
    return {"tab_count": counts[d], "factorial_times_chess": weight * _at(phis, word)._coefficient(j)}


# Fields follow lindstrom_minor(word, mu, lam, i); shares call routes by name, so rebinding
# reaches them.  A walk share is keyed by the shape and parity, not the word: each alternating
# word is the prefix of the longest word of its start letter, and both routes read every
# prefix's value off one walk of that word.
_LOOP = _Share(("word",), lambda word: word_to_loop(word))
_PHI = _Share(("lambda", "parity"), lambda lam, i, word: phi_prefixes(lam, i, word), True)
_ROWS = {
    "theorem2": _Row(("word", "lambda", "parity"), (
        _LOOP, _PHI,
        _Share(("lambda", "parity"), lambda lam, i, word: lindstrom_prefixes(word, (), lam, i), True),
    ), lambda g, phis, paths, word, lam, i: {
        "phi": _at(phis, word),
        "lindstrom": _at(paths, word),
        "toeplitz": minor(g, (), lam, i),
    }),
    # the second share: the tableau count of each parity string asked for so far; the third,
    # keyed by no field, each (word, content)'s expansion for the whole sweep
    "prop1": _Row(
        ("word", "lambda", "parity", "content"),
        (_PHI, _Share(("word", "lambda", "parity"), lambda word, lam, i: {}), _Share((), dict)),
        _prop1_values, _read_prop1,
    ),
    "conjecture1": _Row(
        ("lambda", "parity", "d", "q"),
        (_Share(("lambda", "parity"), lambda lam, i: build_module(lam, (), i)),),
        lambda module, lam, i, d, q: {
            "prediction": conjecture1_prediction(lam, i, d, q),
            "brute_force": count_flags_fq(module, d, q),
        },
    ),
    "pieri": _Row(("word", "lambda", "parity"), (_LOOP,), lambda g, word, lam, i: {
        "pieri": pieri_determinant(g, lam, i),
        "minor": minor(g, (), lam, i),
    }),
    "lindstrom": _Row(("word", "mu", "lambda", "parity"), (
        _LOOP,
        _Share(("mu", "lambda", "parity"),
               lambda mu, lam, i, word: lindstrom_prefixes(word, mu, lam, i), True),
    ), lambda g, paths, word, mu, lam, i: {
        "lindstrom": _at(paths, word),
        "toeplitz": minor(g, mu, lam, i),
    }),
}

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
    ``check("lindstrom", word, mu, lam, i)``.  A row with a reader (prop1) reads the
    case through the input layer here, once; the routes of the other rows check theirs.
    A walk share walks the case's own word."""
    row = _row(target)
    if row.read:
        case = row.read(*case)
    words = case[:1] if row.fields[0] == "word" else ()
    values = [_value(share, [case[row.fields.index(f)] for f in share.fields], words)
              for share in row.shares]
    return _check(target, case, (values, _fields(row.fields, case[: _lead(row)], _text), _text))


def _lead(row: _Row) -> int:
    """How many leading fields of a case its row's shares read."""
    return len({name for share in row.shares for name in share.fields})


def _value(share: _Share, key, words):
    """The value of ``share`` at the fields ``key``; a walk share walks each word of ``words``."""
    return {word[0]: share.build(*key, word) for word in words} if share.walk else share.build(*key)


def _text(value):
    """A case field as reported: an int as it is, a sequence as its comma list."""
    return value if isinstance(value, int) else format_partition(value)


class _Texts(dict):
    """Each field value of a sweep's cases, hashable there, and its ``_text``, made once."""

    def __missing__(self, value):
        text = self[value] = _text(value)
        return text


def _fields(names, values, text) -> dict:
    return {k: text(v) for k, v in zip(names, values)}


def _check(target: str, case: tuple, shared: tuple) -> VerificationReport:
    """Every report: one case's route values, given its shared values in share order, the
    leading fields they read as reported, and the reader that reports the other fields."""
    row = _ROWS[target]
    shares, head, text = shared
    values = row.values(*shares, *case)
    routes = list(values.values())
    lead = len(head)
    return VerificationReport(
        check=target,
        case={**head, **_fields(row.fields[lead:], case[lead:], text)},
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
    """Nonnegative integer tuples of a given length summing to total."""
    for cuts in combinations(range(total + parts - 1), parts - 1):
        prev = -1
        comp = []
        for cut in cuts:
            comp.append(cut - prev - 1)
            prev = cut
        comp.append(total + parts - 2 - prev)
        yield tuple(comp)


def realizable_parities(lam: Partition, i: int) -> list[tuple[int, ...]]:
    """Distinct i-parity strings of the standard tableaux of shape lam."""
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

    The grid is looked up when called, so a rebound ``sweep_<target>`` is the
    one that runs.  ``qs`` defaults to ``DEFAULT_QS``; a target without a field
    size q rejects it, and only a target without one reads ``max_word``.  The
    walks of a word target run to ``max_word`` letters, the longest word its
    grid may yield.
    """
    sweeps_q = "q" in _row(target).fields
    check_int(max_size, "max_size")
    words = ()
    if not sweeps_q:
        length = check_int(max_word, "max_word")
        words = alternating_words(length) if length > 0 else ()
    if qs is not None and not sweeps_q:
        raise DomainError(f"{target} sweeps words, not field sizes; drop --q")
    if qs is not None and (not qs or len(set(qs)) < len(qs)):
        raise DomainError(f"{target} needs at least one field size q, each once; got {list(qs)}")
    grid = globals()[f"sweep_{target}"](max_size, tuple(qs or DEFAULT_QS) if sweeps_q else max_word)
    return _reports(target, grid, words)


def _reports(target: str, grid, words) -> Iterator[VerificationReport]:
    """``_check`` of each case, each shared value computed once per key and kept while the grid
    can ask for it again: grids cycle words innermost, so a value keyed by the word alone or by no
    field is kept to the end, and any other only while its key's cases, which run consecutively,
    run.  A walk share walks ``words``, the sweep's longest word of each start letter.  Each
    field value is formatted once per sweep."""
    row = _ROWS[target]
    lead = _lead(row)
    places = [tuple(map(row.fields.index, share.fields)) for share in row.shares]
    getters = [itemgetter(*place) if place else lambda case: () for place in places]
    memos = [{} for _ in row.shares]
    texts = _Texts().__getitem__
    head = shared = None
    for case in grid:
        if case[:lead] != head:
            # let go of the last values first, so a key's values die before the next key's are built
            head, shared, values = case[:lead], None, []
            for share, get, memo in zip(row.shares, getters, memos):
                key = get(case)
                if key not in memo:
                    if share.fields != ("word",):
                        memo.clear()
                    memo[key] = _value(share, key if len(share.fields) != 1 else (key,), words)
                values.append(memo[key])
            shared = values, _fields(row.fields, head, texts), texts
        yield _check(target, case, shared)


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
