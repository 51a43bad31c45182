"""Acceptance suite: every criterion at its stated tolerance, one line per result.

Tolerances are exact symbolic/integer equality throughout; run with
``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import random
import time

from loopminors.cli import main
from loopminors.loop import word_to_loop
from loopminors.networks import lindstrom_minor
from loopminors.partitions import partitions_up_to, subpartitions
from loopminors.phi import phi_polynomial
from loopminors.shapemod import build_module
from loopminors.toeplitz import minor, toeplitz_entry
from loopminors.verify import all_words_up_to, summarize, sweep

from conftest import delta_partition_type

GOLDEN = "a1*a2^2 + 2*a1*a2*a4 + a1*a4^2 + a3*a4^2"


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {detail}")
    assert ok, detail


def test_criterion_1_golden_example(capsys):
    start = time.perf_counter()
    via_minor = minor(word_to_loop((1, 0, 1, 0)), (), (2, 1), 1)
    via_phi = phi_polynomial((2, 1), 1, (1, 0, 1, 0))
    via_paths = lindstrom_minor((1, 0, 1, 0), (), (2, 1), 1)
    code = main(
        ["minor", "--word", "1,0,1,0", "--mu", "", "--lambda", "2,1", "--parity", "1"]
    )
    elapsed = time.perf_counter() - start
    cli_out = capsys.readouterr().out
    ok = (
        via_minor.text() == GOLDEN
        and via_phi.text() == GOLDEN
        and via_paths.text() == GOLDEN
        and code == 0
        and cli_out == '{"polynomial":"%s"}\n' % GOLDEN
        and elapsed < 1.0
    )
    with capsys.disabled():
        report(1, ok, f"golden minor via all three routes and CLI in {elapsed:.3f}s")


def test_criterion_2_theorem2_sweep(capsys):
    summary = summarize(sweep("theorem2", 6, 6))
    with capsys.disabled():
        report(
            2,
            summary["failures"] == 0 and summary["cases"] == 30 * 2 * 12,
            f"three-route sweep |lambda|<=6, words<=6: {summary}",
        )


def test_criterion_3_prop1_sweep(capsys):
    summary = summarize(sweep("prop1", 6, 6))
    with capsys.disabled():
        report(
            3,
            summary["failures"] == 0,
            f"factorial identity sweep |lambda|<=6, words<=6: {summary}",
        )


def test_criterion_4_pieri_sweep(capsys):
    summary = summarize(sweep("pieri", 6, 6))
    with capsys.disabled():
        report(
            4,
            summary["failures"] == 0,
            f"Pieri determinant equals minor, words<=6, |lambda|<=6: {summary}",
        )


def test_criterion_5_lindstrom_sweep(capsys):
    summary = summarize(sweep("lindstrom", 5, 5))
    with capsys.disabled():
        report(
            5,
            summary["failures"] == 0,
            f"path sum equals Toeplitz minor incl. nonempty mu: {summary}",
        )


def test_criterion_6_structural_invariants(capsys):
    rng = random.Random(987654321)
    words = all_words_up_to(5)
    shift_ok = True
    for _ in range(100):
        word = words[rng.randrange(len(words))]
        g = word_to_loop(word)
        row = rng.randint(-8, 8)
        col = rng.randint(-8, 8)
        if toeplitz_entry(g, row, col) != toeplitz_entry(g, row + 2, col + 2):
            shift_ok = False
            break
    relations_ok = True
    modules = 0
    for lam in partitions_up_to(6):
        for mu in subpartitions(lam):
            for i in (0, 1):
                build_module(lam, mu, i)  # raises if a relation fails
                modules += 1
    delta_ok = all(
        delta_partition_type(build_module(lam, (), i)) == lam
        for lam in partitions_up_to(6)
        for i in (0, 1)
    )
    ok = shift_ok and relations_ok and delta_ok
    with capsys.disabled():
        report(
            6,
            ok,
            "block shift on 100 random entries, relations on "
            f"{modules} skew modules, delta type equals shape",
        )


def test_criterion_7_conjecture1_report(capsys):
    reports = list(sweep("conjecture1", 5, 0, (2, 3)))
    mismatches = [r for r in reports if not r.ok]
    completed = len(reports) > 0
    with capsys.disabled():
        for r in mismatches:
            print(f"conjecture1 mismatch: {r.to_json()}")
        print(
            f"conjecture1 report: {len(reports)} cases, "
            f"{len(mismatches)} mismatch(es) (reported, not failed)"
        )
        report(7, completed, f"finite-field report completed over {len(reports)} cases")


def test_criterion_8_out_of_scope_statement(capsys):
    # cluster structure of unipotent cells and the generalized-minor
    # identification are not desk-scale reproducible; acceptance rests on
    # the exact cross-route suites above.
    with capsys.disabled():
        report(8, True, "full-scale claims excluded by design; oracle suites cover scope")
