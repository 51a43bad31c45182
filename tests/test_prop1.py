"""The prop1 row: one euler_char walk per (lambda, i, d), each case checked once.

A sweep's cases come from its grid and are not checked again; ``check`` reads its
case through the input layer, with the errors the routes gave when each checked it.
"""

import pytest

from loopminors import phi
from loopminors.errors import DomainError
from loopminors.tableaux import expand_word
from loopminors.verify import check, summarize, sweep, sweep_prop1


def test_a_broken_tableau_count_fails_every_case_the_walk_memo_answers(monkeypatch):
    honest = list(sweep("prop1", 3, 3))
    real = phi.euler_char
    monkeypatch.setattr(phi, "euler_char", lambda lam, i, d: real(lam, i, d) + 1)
    broken = list(sweep("prop1", 3, 3))
    assert [r.values["tab_count"] for r in broken] == [r.values["tab_count"] + 1 for r in honest]
    assert sum(1 for r in honest if r.values["tab_count"]) > 0
    assert not any(r.ok for r in broken)


def test_a_sweep_walks_each_parity_string_once_per_share(monkeypatch):
    walks = []
    real = phi.euler_char

    def counted(lam, i, d):
        walks.append((lam, i, d))
        return real(lam, i, d)

    monkeypatch.setattr(phi, "euler_char", counted)
    grid = list(sweep_prop1(5, 6))
    assert summarize(sweep("prop1", 5, 6)) == {"cases": len(grid), "failures": 0}
    # the counts are kept per (lambda, i), so each (lambda, i, d) is walked once
    strings = {(lam, i, expand_word(word, j)) for word, lam, i, j in grid}
    assert (len(grid), len(walks), len(strings), len(set(walks))) == (20044, 678, 678, 678)


@pytest.mark.parametrize(
    "content, message",
    [
        ((1.5, 2), "content entries must be integers, got 1.5"),
        ((1, "2"), "content entries must be integers, got '2'"),
        ((4, -1), "content must be nonnegative, got (4, -1)"),
        ((1, 1, 1), "content length 3 != word length 2"),
        ((1, 1), "parity string length 2 != |lam| = 3"),
        ((3, 1), "parity string length 4 != |lam| = 3"),
    ],
    ids=["float", "str", "negative", "length", "short_sum", "long_sum"],
)
def test_check_rejects_a_bad_prop1_content_as_its_routes_did(content, message):
    for given in (content, list(content)):
        with pytest.raises(DomainError) as info:
            check("prop1", [1, 0], [2, 1], 1, given)
        assert type(info.value) is DomainError and str(info.value) == message


def test_check_reads_lists_as_tuples_and_reports_the_case_it_checked():
    report = check("prop1", (1, 0, 1, 0), (2, 1), 1, (0, 0, 1, 2))
    assert report.ok and report.values == {"tab_count": 2, "factorial_times_chess": 2}
    assert check("prop1", [1, 0, 1, 0], [2, 1], 1, [0, 0, 1, 2]) == report
    assert check("prop1", (1, 0, 1, 0), (2, 1, 0), 1, (0, 0, 1, 2)) == report
