"""Cross-route equality drivers: each checked identity computed two or three ways.

Theorem-style checks (three-route polynomial equality, the factorial
identity, the Pieri and path/Toeplitz equalities) are hard assertions:
a failing case is a regression.  The finite-field point-count comparison is
a conjecture, so its mismatches are reported, never raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import factorial, prod
from typing import Iterator

from .errors import DomainError
from .loop import LoopElement, word_to_loop
from .networks import lindstrom_minor
from .partitions import (
    Partition,
    check_int,
    check_partition,
    check_word,
    format_partition,
    partitions_up_to,
    size,
    subpartitions,
)
from .phi import euler_char, phi_polynomial
from .shapemod import build_module, conjecture1_prediction, count_flags_fq
from .tableaux import (
    enumerate_by_parity,
    enumerate_chess,
    enumerate_standard,
    expand_word,
    parity_string,
)
from .toeplitz import minor, pieri_determinant

# The verify targets in CLI order; target t sweeps with ``sweep_<t>``.
TARGETS = ("theorem2", "prop1", "conjecture1", "pieri", "lindstrom")
# Conjectures: a mismatch is reported, never a failure.
REPORT_ONLY = frozenset({"conjecture1"})
# Point counts sweep field sizes q where the identities sweep words.
_Q_SWEEPS = frozenset({"conjecture1"})
DEFAULT_QS = (2, 3)


@dataclass
class VerificationReport:
    check: str
    case: dict[str, object]
    values: dict[str, object]
    ok: bool = field(default=False)

    def to_json(self) -> dict:
        status = "ok" if self.ok else ("mismatch" if self.check in REPORT_ONLY else "fail")
        return {
            "check": self.check,
            "case": self.case,
            "values": {k: str(v) for k, v in self.values.items()},
            "status": status,
        }


def verify_theorem2(lam: Partition, i: int, word) -> VerificationReport:
    """Tableau route, path route, and Toeplitz route of the same polynomial."""
    lam = check_partition(lam)
    word = check_word(word)
    return _theorem2_report(lam, i, word, word_to_loop(word))


def _theorem2_report(lam, i, word, g) -> VerificationReport:
    via_phi = phi_polynomial(lam, i, word)
    via_paths = lindstrom_minor(word, (), lam, i)
    via_minor = minor(g, (), lam, i)
    ok = via_phi == via_paths == via_minor
    return VerificationReport(
        check="theorem2",
        case={"lambda": format_partition(lam), "parity": i, "word": format_partition(word)},
        values={
            "phi": via_phi,
            "lindstrom": via_paths,
            "toeplitz": via_minor,
        },
        ok=ok,
    )


def verify_prop1(lam: Partition, i: int, word, j) -> VerificationReport:
    """Tableau count against factorial times chess count, content by content."""
    lam = check_partition(lam)
    word = check_word(word)
    j = tuple(check_int(v, "content") for v in j)
    if sum(j) != size(lam):
        raise DomainError(f"content {j} does not sum to |lam| = {size(lam)}")
    tab_count = len(enumerate_by_parity(lam, i, expand_word(word, j)))
    istar = (i + word[0] + 1) % 2
    chess_count = len(enumerate_chess(lam, istar, len(word)).get(j, []))
    return _prop1_report(lam, i, word, j, tab_count, chess_count)


def _prop1_report(lam, i, word, j, tab_count: int, chess_count: int) -> VerificationReport:
    fact = prod(factorial(v) for v in j)
    return VerificationReport(
        check="prop1",
        case={"lambda": format_partition(lam), "parity": i, "word": format_partition(word),
              "content": format_partition(j)},
        values={
            "tab_count": tab_count,
            "factorial_times_chess": fact * chess_count,
        },
        ok=tab_count == fact * chess_count,
    )


def verify_conjecture1(lam: Partition, i: int, d, q: int) -> VerificationReport:
    """Brute-force point count against the ground-state prediction (report only)."""
    lam = check_partition(lam)
    d = tuple(check_int(b, "parity string") for b in d)
    module = build_module(lam, (), i)
    predicted = conjecture1_prediction(lam, i, d, q)
    counted = count_flags_fq(module, d, q)
    return VerificationReport(
        check="conjecture1",
        case={"lambda": format_partition(lam), "parity": i, "d": format_partition(d), "q": q},
        values={"prediction": predicted, "brute_force": counted},
        ok=predicted == counted,
    )


def verify_pieri(lam: Partition, i: int, word) -> VerificationReport:
    """Pieri determinant against the direct minor, on a word element."""
    lam = check_partition(lam)
    word = check_word(word)
    return _pieri_report(lam, i, word, word_to_loop(word))


def _pieri_report(lam, i, word, g) -> VerificationReport:
    via_pieri = pieri_determinant(g, lam, i)
    via_minor = minor(g, (), lam, i)
    return VerificationReport(
        check="pieri",
        case={"lambda": format_partition(lam), "parity": i, "word": format_partition(word)},
        values={"pieri": via_pieri, "minor": via_minor},
        ok=via_pieri == via_minor,
    )


def verify_lindstrom(word, mu: Partition, lam: Partition, i: int) -> VerificationReport:
    """Path-family sum against the Toeplitz minor, including nonempty mu."""
    mu = check_partition(mu)
    lam = check_partition(lam)
    word = check_word(word)
    return _lindstrom_report(word, mu, lam, i, word_to_loop(word))


def _lindstrom_report(word, mu, lam, i, g) -> VerificationReport:
    via_paths = lindstrom_minor(word, mu, lam, i)
    via_minor = minor(g, mu, lam, i)
    return VerificationReport(
        check="lindstrom",
        case={"lambda": format_partition(lam), "mu": format_partition(mu), "parity": i,
              "word": format_partition(word)},
        values={"lindstrom": via_paths, "toeplitz": via_minor},
        ok=via_paths == via_minor,
    )


# -- sweep drivers ---------------------------------------------------------


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


def _word_loops(max_word: int) -> list[tuple[tuple[int, ...], LoopElement]]:
    return [(word, word_to_loop(word)) for word in all_words_up_to(max_word)]


def sweep_theorem2(max_size: int, max_word: int) -> Iterator[VerificationReport]:
    loops = _word_loops(max_word)
    for lam in partitions_up_to(max_size):
        for i in (0, 1):
            for word, g in loops:
                yield _theorem2_report(lam, i, word, g)


def sweep_prop1(max_size: int, max_word: int) -> Iterator[VerificationReport]:
    """The ``verify_prop1`` reports, from ``euler_char`` and one ``phi_polynomial`` per word."""
    for lam in partitions_up_to(max_size):
        for i in (0, 1):
            for word in all_words_up_to(max_word):
                chess = phi_polynomial(lam, i, word)
                for j in compositions(size(lam), len(word)):
                    tab_count = euler_char(lam, i, expand_word(word, j))
                    yield _prop1_report(lam, i, word, j, tab_count, chess.coefficient(j))


def sweep_pieri(max_size: int, max_word: int) -> Iterator[VerificationReport]:
    loops = _word_loops(max_word)
    for lam in partitions_up_to(max_size):
        for i in (0, 1):
            for word, g in loops:
                yield _pieri_report(lam, i, word, g)


def sweep_lindstrom(max_size: int, max_word: int) -> Iterator[VerificationReport]:
    loops = _word_loops(max_word)
    for lam in partitions_up_to(max_size):
        for mu in subpartitions(lam):
            for i in (0, 1):
                for word, g in loops:
                    yield _lindstrom_report(word, mu, lam, i, g)


def realizable_parities(lam: Partition, i: int) -> list[tuple[int, ...]]:
    """Distinct i-parity strings of the standard tableaux of shape lam."""
    return sorted({parity_string(T, i) for T in enumerate_standard(lam)})


def sweep_conjecture1(max_size: int, qs=DEFAULT_QS) -> Iterator[VerificationReport]:
    for lam in partitions_up_to(max_size):
        for i in (0, 1):
            for d in realizable_parities(lam, i):
                for q in qs:
                    yield verify_conjecture1(lam, i, d, q)


def sweep(target: str, max_size: int, max_word: int, qs=None) -> Iterator[VerificationReport]:
    """The reports of ``sweep_<target>``, given the bounds that sweep takes.

    The sweep is looked up when called, so a rebound ``sweep_<target>`` is
    the one that runs; ``qs`` defaults to ``DEFAULT_QS``, and a sweep that
    does not take it rejects it.
    """
    if target not in TARGETS:
        raise DomainError(f"unknown verify target {target!r}")
    if qs is not None and target not in _Q_SWEEPS:
        raise DomainError(f"{target} sweeps words, not field sizes; drop --q")
    if qs is not None and not qs:
        raise DomainError(f"{target} needs at least one field size q")
    run = globals()[f"sweep_{target}"]
    return run(max_size, tuple(qs or DEFAULT_QS) if target in _Q_SWEEPS else max_word)


def summarize(reports) -> dict:
    """Case and failure counts of a sweep; DomainError if it checked no case."""
    cases = 0
    failures = 0
    for report in reports:
        cases += 1
        if not report.ok:
            failures += 1
    if not cases:
        raise DomainError("the sweep checked no cases; raise --max-size or --max-word")
    return {"cases": cases, "failures": failures}
