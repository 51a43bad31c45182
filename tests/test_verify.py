import weakref
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopminors import loop, networks, phi, shapemod, tableaux, toeplitz, verify
from loopminors.errors import DomainError
from loopminors.loop import word_to_loop
from loopminors.multipoly import MultiPoly
from loopminors.networks import lindstrom_minor
from loopminors.partitions import (
    format_partition,
    partitions_of,
    partitions_up_to,
    size,
    subpartitions,
)
from loopminors.phi import phi_polynomial
from loopminors.tableaux import enumerate_by_parity, enumerate_chess, expand_word
from loopminors.toeplitz import minor, pieri_determinant
from loopminors.verify import (
    TARGETS,
    VerificationReport,
    all_words_up_to,
    alternating_words,
    check,
    compositions,
    summarize,
    sweep,
    sweep_conjecture1,
    sweep_lindstrom,
)

GOLDEN = "a1*a2^2 + 2*a1*a2*a4 + a1*a4^2 + a3*a4^2"


def test_alternating_words():
    assert alternating_words(1) == [(0,), (1,)]
    assert alternating_words(3) == [(0, 1, 0), (1, 0, 1)]
    assert len(all_words_up_to(6)) == 12
    with pytest.raises(DomainError):
        alternating_words(0)


def test_compositions():
    assert sorted(compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert list(compositions(0, 3)) == [(0, 0, 0)]
    assert sum(1 for _ in compositions(6, 6)) == 462


def test_verify_theorem2_golden():
    report = check("theorem2", (1, 0, 1, 0), (2, 1), 1)
    assert report.ok
    values = report.to_json()["values"]
    assert values["phi"] == GOLDEN
    assert values["lindstrom"] == GOLDEN
    assert values["toeplitz"] == GOLDEN


def test_verify_theorem2_trivial_and_vanishing():
    empty = check("theorem2", (0, 1), (), 0)
    assert empty.ok and empty.to_json()["values"]["phi"] == "1"
    vanishing = check("theorem2", (1,), (1,), 0)
    assert vanishing.ok and vanishing.to_json()["values"]["phi"] == "0"


def test_verify_prop1_examples():
    assert check("prop1", (1, 0, 1, 0), (2, 1), 1, (1, 1, 0, 1)).ok
    report = check("prop1", (1, 0, 1, 0), (2, 1), 1, (0, 0, 1, 2))
    assert report.ok
    assert report.values["tab_count"] == 2
    assert check("prop1", (1, 0), (), 0, (0, 0)).ok
    with pytest.raises(DomainError):
        check("prop1", (1, 0), (2, 1), 1, (1, 0))


def test_verify_conjecture1_examples():
    report = check("conjecture1", (2, 1), 1, (1, 0, 0), 2)
    assert report.values == {"prediction": 3, "brute_force": 3}
    assert report.ok
    assert check("conjecture1", (1, 1), 0, (0, 1), 3).values["prediction"] == 1
    zero = check("conjecture1", (1, 1), 0, (1, 1), 2)
    assert zero.values == {"prediction": 0, "brute_force": 0}


def test_verify_pieri_and_lindstrom_cases():
    assert check("pieri", (1, 0, 1, 0), (2, 1), 1).ok
    assert check("lindstrom", (1, 0, 1), (1,), (2, 1), 0).ok
    # a list is read as the tuple it lists
    assert check("lindstrom", [1, 0, 1], [1], [2, 1], 0) == check("lindstrom", (1, 0, 1), (1,), (2, 1), 0)


def test_small_sweeps_have_no_failures():
    assert summarize(sweep("theorem2", 3, 3)) == {"cases": 84, "failures": 0}
    assert summarize(sweep("prop1", 3, 3))["failures"] == 0
    assert summarize(sweep("pieri", 3, 3))["failures"] == 0
    assert summarize(sweep("lindstrom", 3, 3))["failures"] == 0
    assert summarize(sweep("conjecture1", 3, 0))["failures"] == 0


def _listed_prop1_report(word, lam, i, j) -> VerificationReport:
    """The prop1 report from the enumerators, which list the tableaux."""
    tab_count = len(enumerate_by_parity(lam, i, expand_word(word, j)))
    istar = (i + word[0] + 1) % 2
    chess_count = len(enumerate_chess(lam, istar, len(word)).get(j, []))
    fact = prod(factorial(v) for v in j)
    return VerificationReport(
        check="prop1",
        case={"word": format_partition(word), "lambda": format_partition(lam), "parity": i,
              "content": format_partition(j)},
        values={"tab_count": tab_count, "factorial_times_chess": fact * chess_count},
        ok=tab_count == fact * chess_count,
    )


def test_sweep_prop1_gives_the_reports_of_verify_prop1():
    # the sweep counts by walks, the oracle by listing tableaux
    expected = [
        _listed_prop1_report(word, lam, i, j)
        for lam in partitions_up_to(4)
        for i in (0, 1)
        for word in all_words_up_to(5)
        for j in compositions(size(lam), len(word))
    ]
    assert list(sweep("prop1", 4, 5)) == expected
    assert len(expected) == 3720


def test_word_sweeps_give_the_reports_of_verify():
    # the sweeps build each word's loop element once, check once per case
    cases = [(word, lam, i) for lam in partitions_up_to(4) for i in (0, 1)
             for word in all_words_up_to(5)]
    assert list(sweep("theorem2", 4, 5)) == [check("theorem2", *case) for case in cases]
    assert list(sweep("pieri", 4, 5)) == [check("pieri", *case) for case in cases]
    expected = [
        check("lindstrom", word, mu, lam, i)
        for lam in partitions_up_to(4)
        for mu in subpartitions(lam)
        for i in (0, 1)
        for word in all_words_up_to(5)
    ]
    assert list(sweep("lindstrom", 4, 5)) == expected
    assert (len(cases), len(expected)) == (240, 1040)


def test_report_json_statuses():
    ok = check("theorem2", (0,), (1,), 0).to_json()
    assert ok["status"] == "ok"
    assert ok["case"] == {"lambda": "1", "parity": 0, "word": "0"}
    conj = check("conjecture1", (1,), 0, (0,), 2)
    conj.ok = False
    assert conj.to_json()["status"] == "mismatch"
    thm = check("theorem2", (0,), (1,), 0)
    assert thm == check("theorem2", [0], [1], 0) != conj
    # every target reads a list field as its tuple, and a partition with trailing zeros and a
    # bool parity as its canonical case, which its report shows
    for target, case in [("theorem2", ((1, 0, 1, 0), (2, 1), 1)),
                         ("prop1", ((1, 0, 1, 0), (2, 1), 1, (1, 1, 0, 1))),
                         ("pieri", ((1, 0, 1), (2, 1), 1)),
                         ("lindstrom", ((1, 0, 1), (1,), (2, 1), 0)),
                         ("conjecture1", ((2, 1), 1, (1, 0, 0), 2))]:
        listed = [list(v) if isinstance(v, tuple) else v for v in case]
        assert check(target, *listed) == check(target, *case)
        padded = [v + (0,) if field in ("mu", "lambda") else v == 1 if field == "parity" else v
                  for field, v in zip(verify._ROWS[target].fields, case)]
        assert repr(check(target, *padded)) == repr(check(target, *case))
    # ...through a reader for every field of every row
    assert {field for row in verify._ROWS.values() for field in row.fields} <= set(verify._READERS)
    assert repr(thm) == (
        "VerificationReport(check='theorem2', case={'word': '0', 'lambda': '1', 'parity': 0}, "
        "values={'phi': MultiPoly(1, 'a1'), 'lindstrom': MultiPoly(1, 'a1'), "
        "'toeplitz': MultiPoly(1, 'a1')}, ok=True)")
    thm.ok = False
    assert thm.to_json()["status"] == "fail"
    assert thm != check("theorem2", (0,), (1,), 0) and repr(thm).endswith("ok=False)")


def test_report_json_renders_each_distinct_value_once(monkeypatch):
    texts = []
    real = MultiPoly.text
    monkeypatch.setattr(MultiPoly, "__str__", lambda poly: texts.append(poly) or real(poly))
    reports = list(sweep("theorem2", 3, 3)) + list(sweep("lindstrom", 2, 2))
    rendered = [report.to_json()["values"] for report in reports]
    assert all(report.ok for report in reports) and len(texts) == len(reports)
    assert rendered == [{k: v.text() for k, v in report.values.items()} for report in reports]
    a1 = MultiPoly.variable(1, 0)
    broken = VerificationReport("theorem2", {}, {"phi": a1, "lindstrom": a1 + 0, "toeplitz": 2 * a1})
    assert broken.to_json()["values"] == {"phi": "a1", "lindstrom": "a1", "toeplitz": "2*a1"}


def test_check_names_its_fields_on_a_wrong_count():
    with pytest.raises(DomainError) as short:
        check("theorem2", (1,), (1,))
    assert str(short.value) == "theorem2 takes 3 fields (word, lambda, parity), got 2"
    with pytest.raises(DomainError) as long:
        check("prop1", (1, 0), (2, 1), 1, (1, 2), 0)
    assert str(long.value) == "prop1 takes 4 fields (word, lambda, parity, content), got 5"


@pytest.mark.parametrize(
    "target, case, message",
    [("pieri", ({1, 0}, (2, 1), 1), "word must be a tuple or a list, got {0, 1}"),
     ("lindstrom", ((1, 0), bytearray([1]), (2, 1), 0),
      "partition must be a tuple or a list, got bytearray(b'\\x01')")],
    ids=["pieri-set", "lindstrom-bytearray"],
)
def test_check_names_a_field_with_no_hash(target, case, message):
    # a set has no order, so it is not read as a word
    with pytest.raises(DomainError) as error:
        check(target, *case)
    assert str(error.value) == message


@pytest.mark.parametrize("target", ["theorem2", "lindstrom"], ids=lambda t: f"sweep_{t}")
def test_summarize_rejects_a_sweep_that_checked_no_case(target):
    with pytest.raises(DomainError, match="checked no cases"):
        summarize(sweep(target, 3, 0))


def test_sweep_passes_each_target_its_bounds():
    assert TARGETS == ("theorem2", "prop1", "conjecture1", "pieri", "lindstrom")
    assert summarize(sweep("theorem2", 3, 3)) == {"cases": 84, "failures": 0}
    assert summarize(sweep("lindstrom", 2, 2)) == {
        "cases": len(list(sweep_lindstrom(2, 2))), "failures": 0}
    # the point-count sweep takes q values, not a word bound
    assert list(sweep("conjecture1", 3, 0)) == [
        check("conjecture1", *case) for case in sweep_conjecture1(3, (2, 3))]
    assert list(sweep("conjecture1", 3, 0, [2])) == [
        check("conjecture1", *case) for case in sweep_conjecture1(3, (2,))]
    # ...so it needs no word bound, while every word target still reads one
    assert list(sweep("conjecture1", 3)) == list(sweep("conjecture1", 3, 0))
    assert list(sweep("conjecture1", 3, None, [2])) == list(sweep("conjecture1", 3, 0, [2]))
    for target in ("theorem2", "prop1", "pieri", "lindstrom"):
        with pytest.raises(DomainError, match="max_word entries must be integers"):
            sweep(target, 3)
    with pytest.raises(DomainError, match="unknown verify target"):
        sweep("summarize", 3, 3)
    with pytest.raises(DomainError, match="unknown verify target"):
        check("summarize", (1,), (1,), 0)


# (max_size, max_word, and per route that builds a shared value: its builds, most of its
# values alive) at the benchmark's sizes; a walk or a determinant is built once per key and
# start letter, on the longest word of that letter or its loop element
BENCHMARK_SWEEPS = {
    "theorem2": (7, 8, {"word_to_loop": (2, 2), "phi_polynomial": (180, 2),
                        "lindstrom_minor": (180, 2), "minor": (180, 2)}),
    "prop1": (5, 6, {"phi_polynomial": (76, 2)}),
    "conjecture1": (6, 0, {"build_module": (60, 1)}),
    "pieri": (6, 8, {"word_to_loop": (2, 2), "pieri_determinant": (120, 2), "minor": (120, 2)}),
    "lindstrom": (5, 6, {"word_to_loop": (2, 2), "lindstrom_minor": (440, 2), "minor": (440, 2)}),
}
# the routes that read the shared values, answering 0 for any of them
READERS = ("conjecture1_prediction", "count_flags_fq", "euler_char")
# each route's module, from which verify imports it when it runs, so a rebinding there reaches it
HOMES = {"word_to_loop": loop, "phi_polynomial": phi, "euler_char": phi,
         "lindstrom_minor": networks, "minor": toeplitz, "pieri_determinant": toeplitz,
         "build_module": shapemod, "count_flags_fq": shapemod, "conjecture1_prediction": tableaux}


class Built:
    """A weakref-able stand-in for a shared value, such as a walk of ``nvars`` letters, whose
    restrictions and coefficients are 0."""

    def __init__(self, nvars):
        self.nvars = nvars

    def _prefix(self, k):
        return MultiPoly.zero(k)

    def _coefficient(self, exps):
        return 0


@pytest.mark.parametrize("target", TARGETS)
def test_a_sweep_builds_each_shared_value_once_and_keeps_only_what_it_reuses(monkeypatch, target):
    # word rows keep the loop element of each longest word; every other key runs
    # consecutively, so its values live only while its cases run
    max_size, max_word, expected = BENCHMARK_SWEEPS[target]
    built = {route: ([], weakref.WeakSet(), []) for route in expected}

    def counted(keys, live, most):
        def build(*key):
            keys.append(key)
            value = Built(max_word)
            live.add(value)
            most.append(len(live))
            return value
        return build

    for route, record in built.items():
        monkeypatch.setattr(HOMES[route], route, counted(*record))
    for route in READERS:
        monkeypatch.setattr(HOMES[route], route, lambda *_: 0)
    bound = (2, 3) if target == "conjecture1" else max_word
    grid = list(getattr(verify, f"sweep_{target}")(max_size, bound))
    assert summarize(sweep(target, max_size, max_word)) == {"cases": len(grid), "failures": 0}
    for route, (keys, _, most) in built.items():
        calls, alive = expected[route]
        assert len(keys) == len(set(keys)) == calls and max(most) == alive
        if route in ("phi_polynomial", "lindstrom_minor", "word_to_loop"):  # on the longest words
            walked = {key[2] if route == "phi_polynomial" else key[0] for key in keys}
            assert walked == set(alternating_words(max_word))
        if route in ("minor", "pieri_determinant"):  # on the longest words' loop elements
            assert {key[0] for key in keys} == set(built["word_to_loop"][1])


@pytest.mark.parametrize("target", TARGETS)
def test_a_sweep_formats_each_field_value_and_expands_each_content_once(monkeypatch, target):
    # each field's text and each prop1 (word, content) expansion is made once per sweep,
    # and the reports read as check's
    formatted, expanded = [], []
    real_format, real_expand = verify.format_partition, tableaux.expand_word
    monkeypatch.setattr(verify, "format_partition", lambda v: formatted.append(v) or real_format(v))
    monkeypatch.setattr(tableaux, "expand_word", lambda w, j: expanded.append((w, j)) or real_expand(w, j))
    bound = (2, 3) if target == "conjecture1" else 3
    grid = list(getattr(verify, f"sweep_{target}")(3, bound))
    reports = list(sweep(target, 3, None if target == "conjecture1" else 3))
    values = {v for case in grid for v in case if not isinstance(v, int)}
    assert len(formatted) == len(set(formatted)) == len(values)
    pairs = {(case[0], case[3]) for case in grid} if target == "prop1" else set()
    assert len(expanded) == len(set(expanded)) == len(pairs)
    assert [report.to_json() for report in reports] == [check(target, *case).to_json() for case in grid]


@pytest.mark.parametrize("target", ["theorem2", "pieri", "lindstrom"])
@pytest.mark.parametrize(
    "word, message",
    [((), "at least one letter"), ((2,), "must be 0 or 1"), ((1, 1), "not alternating")],
)
def test_check_reads_a_malformed_word_through_word_to_loop_before_any_route(
    monkeypatch, target, word, message
):
    # the sweep's loop elements are built first, once, so the Toeplitz route's reader fails
    for route in ("phi_polynomial", "lindstrom_minor", "minor", "pieri_determinant"):
        monkeypatch.setattr(HOMES[route], route, lambda *_: pytest.fail("a route ran"))
    case = (word, (1,), (2, 1), 0) if target == "lindstrom" else (word, (2, 1), 0)
    with pytest.raises(DomainError, match=message):
        check(target, *case)


@pytest.mark.parametrize(
    "target, qs, message",
    [("theorem2", [9], "not field sizes"), ("lindstrom", (), "not field sizes"),
     ("conjecture1", [], "at least one field size"), ("conjecture1", [2, 3, 2], "each once")],
)
def test_sweep_rejects_field_sizes_it_would_ignore(target, qs, message):
    with pytest.raises(DomainError, match=message):
        sweep(target, 2, 0, qs)


OFF_GRID_SHAPES = [lam for n in range(7, 11) for lam in partitions_of(n)]


@st.composite
def off_grid_cases(draw):
    lam = draw(st.sampled_from(OFF_GRID_SHAPES))
    mu = draw(st.sampled_from(subpartitions(lam)))
    i = draw(st.integers(0, 1))
    word = alternating_words(draw(st.integers(7, 10)))[draw(st.integers(0, 1))]
    return lam, mu, i, word


@given(case=off_grid_cases())
@settings(max_examples=60, deadline=2000)
def test_routes_agree_off_the_sweep_grids(case):
    lam, mu, i, word = case
    g = word_to_loop(word)
    value = minor(g, mu, lam, i)
    assert lindstrom_minor(word, mu, lam, i) == value
    if not mu:
        assert phi_polynomial(lam, i, word) == value
        assert pieri_determinant(g, lam, i) == value
