"""Input guards at the library boundary, and that they survive ``python -O``."""

import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import loopminors
from loopminors.errors import DomainError
from loopminors.loop import LaurentPoly, LoopElement, generator, identity_loop, word_to_loop
from loopminors.multipoly import MultiPoly
from loopminors.networks import PathFamily, enumerate_families, lindstrom_minor
from loopminors.partitions import (
    check_bits, check_partition, index_set, partitions_of, partitions_up_to, subpartitions,
)
from loopminors.phi import euler_char, phi_polynomial
from loopminors.shapemod import build_module, count_flags_fq
from loopminors.tableaux import (
    ChessTableau,
    StandardTableau,
    conjecture1_prediction,
    enumerate_by_parity,
    enumerate_chess,
    enumerate_standard,
    ground_state,
    expand_word,
    parity_string,
)
from loopminors.toeplitz import entry_E, minor, pieri_determinant, toeplitz_entry
from loopminors.verify import check, sweep

WORD = (1, 0, 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: minor(word_to_loop(WORD), (), (2, 1), 5),
        lambda: pieri_determinant(word_to_loop(WORD), (2, 1), 5),
        lambda: phi_polynomial((2, 1), 5, WORD),
        lambda: enumerate_families(WORD, (), (2, 1), 2),
        lambda: lindstrom_minor(WORD, (), (2, 1), -1),
        lambda: count_flags_fq(build_module((2, 1), (), 1), (2, 0, 0), 2),
        lambda: enumerate_by_parity((2, 1), 3, (1, 0, 0)),
        lambda: enumerate_by_parity((2, 1), 1, (1, 0, 2)),
        lambda: euler_char((2, 1), 3, (1, 0, 0)),
        lambda: enumerate_chess((2, 1), 3, 4),
        lambda: ChessTableau(rows=((1,),), parity=3, content=(1,)),
        lambda: build_module((2, 1), (), 3),
        lambda: conjecture1_prediction((2, 1), 2, (0, 1, 1), 2),
        lambda: conjecture1_prediction((2, 1), 0, (0, 1, 3), 2),
        lambda: parity_string(enumerate_standard((2, 1))[0], 3),
        lambda: ground_state(enumerate_standard((2, 1))[0], -1),
        lambda: generator(2, 1),
        lambda: index_set((2, 1), 5, 1),
    ],
    ids=["minor", "pieri_determinant", "phi_polynomial", "enumerate_families",
         "lindstrom_minor", "count_flags_fq", "enumerate_by_parity",
         "enumerate_by_parity_d", "euler_char", "enumerate_chess", "ChessTableau",
         "build_module", "conjecture1_prediction", "conjecture1_prediction_d",
         "parity_string", "ground_state", "generator", "index_set"],
)
def test_non_bit_parities_are_rejected(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: check_partition((2.5, 1)),
        lambda: phi_polynomial(("2", 1), 1, WORD),
        lambda: check_bits((1, 0.5)),
        lambda: euler_char((2, 1), 1, (1, 0, "0")),
        lambda: phi_polynomial((2, 1), 1.0, WORD),
        lambda: expand_word((1, 0), (1.5, 0)),
        lambda: expand_word((1, 0), ("x", 0)),
        lambda: check("prop1", (1, 0), (2, 1), 1, (1.5, 2)),
        lambda: StandardTableau(((1.5, 2), (3,))),
        lambda: ChessTableau(rows=((1.5,),), parity=1, content=(1,)),
        lambda: ChessTableau(rows=((1,),), parity=1, content=(1.0,)),
        lambda: enumerate_chess((1,), 1, 2.5),
        lambda: enumerate_chess((1,), 1, "3"),
        lambda: check("conjecture1", (1,), 0, (1.0,), 2),
        lambda: count_flags_fq(build_module((2, 1), (), 1), (1, 0, 0), 2.0),
        lambda: count_flags_fq(build_module((2, 1), (), 1), (1, 0, 0), "3"),
        lambda: check("conjecture1", (2, 1), 1, (1, 0, 0), 2.0),
        lambda: conjecture1_prediction((2, 1), 1, (1, 0, 0), 2.5),
        lambda: MultiPoly(2, {(1.5, 0): 2.7}),
        lambda: MultiPoly.const(2, 2.5),
        lambda: LaurentPoly({1.5: Fraction(1)}),
        lambda: PathFamily(word=(0,), levels=((0.5, 1.9),)),
        lambda: PathFamily(word=(0,), levels=(("0", "1"),)),
        lambda: phi_polynomial((2, 1), 1, WORD).coefficient((1.7, 2.2, 0.9)),
        lambda: phi_polynomial((2, 1), 1, WORD).coefficient(("1", "2", "0")),
        lambda: generator(0.0, 1),
        lambda: generator("x", 1),
        lambda: sweep("theorem2", 3.5, 2),
        lambda: sweep("prop1", 2, 2.0),
        lambda: entry_E(word_to_loop((1, 0, 1, 0)), 0, 1.5),
        lambda: toeplitz_entry(word_to_loop((1, 0, 1, 0)), 1.0, 2.0),
        lambda: entry_E(word_to_loop((1, 0, 1, 0)), 0, "x"),
        lambda: index_set((2.5, 1), 0, 1),
        lambda: index_set((2, 1), 0, 1.5),
        lambda: partitions_of(2.5),
        lambda: partitions_of("3"),
        lambda: partitions_up_to(2.5),
        lambda: subpartitions((1.5,)),
        lambda: MultiPoly(1.0),
        lambda: MultiPoly.zero("a"),
        lambda: MultiPoly.one(1.5),
        lambda: MultiPoly.const(2.0, 1),
        lambda: MultiPoly.variable(2.0, 0),
        lambda: MultiPoly.variable(3, 0.5),
        lambda: MultiPoly.monomial("1", (1,)),
        lambda: identity_loop("x"),
    ],
    ids=["check_partition", "phi_polynomial", "check_bits", "euler_char",
         "check_bit", "expand_word", "expand_word_str", "verify_prop1",
         "StandardTableau", "ChessTableau", "ChessTableau_content", "enumerate_chess",
         "enumerate_chess_str", "verify_conjecture1", "count_flags_fq_q",
         "count_flags_fq_q_str", "verify_conjecture1_q", "conjecture1_prediction_q", "MultiPoly",
         "MultiPoly.const", "LaurentPoly", "PathFamily", "PathFamily_str", "coefficient",
         "coefficient_str", "generator_float",
         "generator_str", "sweep_max_size", "sweep_max_word", "entry_E", "toeplitz_entry",
         "entry_E_str", "index_set", "index_set_n_max", "partitions_of", "partitions_of_str",
         "partitions_up_to", "subpartitions", "MultiPoly_nvars",
         "MultiPoly.zero", "MultiPoly.one", "MultiPoly.const_nvars", "MultiPoly.variable_nvars",
         "MultiPoly.variable_index", "MultiPoly.monomial", "identity_loop"],
)
def test_non_integer_entries_are_rejected(call):
    with pytest.raises(DomainError, match="entries must be integers"):
        call()


# The one sequence rule: a sequence input is a tuple or a list.  Each row is a public reader
# fed a kind it refuses, which iterating would misread: a dict by its keys, bytes as ints,
# a set in hash order, a str by its characters, and a non-iterable as a raw TypeError.
LETTERS = (bit for bit in (1, 0, 0))
SEQUENCES = {
    "phi_polynomial-dict": (lambda: phi_polynomial({2: 0, 1: 0}, 1, (1, 0)),
                            "partition must be a tuple or a list, got {2: 0, 1: 0}"),
    "phi_polynomial-set": (lambda: phi_polynomial((2, 1), 1, {1, 0}),
                           "word must be a tuple or a list, got {0, 1}"),
    "phi_polynomial-int": (lambda: phi_polynomial(5, 1, (1, 0)),
                           "partition must be a tuple or a list, got 5"),
    "minor-dict": (lambda: minor(word_to_loop((1, 0, 1, 0)), {1: "x"}, (2, 1), 1),
                   "partition must be a tuple or a list, got {1: 'x'}"),
    "count_flags_fq-bytes": (lambda: count_flags_fq(build_module((2, 1), (), 1), b"\x01\x00\x00", 2),
                             "parity string must be a tuple or a list, got b'\\x01\\x00\\x00'"),
    "MultiPoly-bytes": (lambda: MultiPoly(2, {b"\x01\x00": 1}),
                        "exponent must be a tuple or a list, got b'\\x01\\x00'"),
    "MultiPoly-int": (lambda: MultiPoly(1, {3: 1}), "exponent must be a tuple or a list, got 3"),
    "MultiPoly.monomial-set": (lambda: MultiPoly.monomial(2, {1, 0}),
                               "exponent must be a tuple or a list, got {0, 1}"),
    "check-frozenset": (lambda: check("theorem2", frozenset({1, 0}), (2, 1), 1),
                        "word must be a tuple or a list, got frozenset({0, 1})"),
    "check-int": (lambda: check("theorem2", 5, (2, 1), 1), "word must be a tuple or a list, got 5"),
    "expand_word-None": (lambda: expand_word((1, 0), None),
                         "content must be a tuple or a list, got None"),
    "sweep-set": (lambda: sweep("conjecture1", 3, 0, {3, 2}),
                  "field size must be a tuple or a list, got {2, 3}"),
    "sweep-range": (lambda: sweep("conjecture1", 3, 0, range(2, 4)),
                    "field size must be a tuple or a list, got range(2, 4)"),
    "StandardTableau-set": (lambda: StandardTableau([{1, 2}, (3,)]),
                            "tableau must be a tuple or a list, got {1, 2}"),
    "ChessTableau_row-set": (lambda: ChessTableau(rows=({1},), parity=1, content=(1,)),
                             "tableau must be a tuple or a list, got {1}"),
    "ChessTableau_content-set": (lambda: ChessTableau(rows=((1,),), parity=1, content={1}),
                                 "content must be a tuple or a list, got {1}"),
    "build_module-str": (lambda: build_module("x", (), 0),
                         "partition must be a tuple or a list, got 'x'"),
    "subpartitions-str": (lambda: subpartitions("ab"),
                          "partition must be a tuple or a list, got 'ab'"),
    "check_partition-range": (lambda: check_partition(range(3, 0, -1)),
                              "partition must be a tuple or a list, got range(3, 0, -1)"),
    "check_bits-bytearray": (lambda: check_bits(bytearray([1, 0])),
                             "bit string must be a tuple or a list, got bytearray(b'\\x01\\x00')"),
    "euler_char-generator": (lambda: euler_char((2, 1), 1, LETTERS),
                             f"parity string must be a tuple or a list, got {LETTERS!r}"),
    "word_to_loop-range": (lambda: word_to_loop(range(2)),
                           "word must be a tuple or a list, got range(0, 2)"),
    "enumerate_families-str": (lambda: enumerate_families("", (), (), 0),
                               "word must be a tuple or a list, got ''"),
    "PathFamily-range": (lambda: PathFamily(word=(0,), levels=(range(2),)),
                         "path level must be a tuple or a list, got range(0, 2)"),
    "coefficient-dict": (lambda: phi_polynomial((2, 1), 1, WORD).coefficient({1: 2}),
                         "exponent must be a tuple or a list, got {1: 2}"),
    "index_set-frozenset": (lambda: index_set(frozenset({1}), 0, 1),
                            "partition must be a tuple or a list, got frozenset({1})"),
    "lindstrom_minor-bytes": (lambda: lindstrom_minor(WORD, b"\x01", (2, 1), 0),
                              "partition must be a tuple or a list, got b'\\x01'"),
    "enumerate_by_parity-set": (lambda: enumerate_by_parity((2, 1), 1, {1, 0}),
                                "parity string must be a tuple or a list, got {0, 1}"),
}


@pytest.mark.parametrize("call, message", SEQUENCES.values(), ids=SEQUENCES.keys())
def test_only_a_tuple_or_a_list_is_read_as_a_sequence(call, message):
    with pytest.raises(DomainError) as error:
        call()
    assert str(error.value) == message


@pytest.mark.parametrize(
    "call",
    [
        lambda: MultiPoly.variable(1, 0).evaluate([0.1]),
        lambda: MultiPoly.variable(1, 0).evaluate(["1/3"]),
        lambda: MultiPoly.one(2).evaluate([1, 2.0]),
        lambda: generator(1, 0.5),
        lambda: generator(0, "1/3"),
        lambda: LaurentPoly({0: "x"}),
        lambda: LaurentPoly({0: 1.5}),
    ],
    ids=["evaluate_float", "evaluate_str", "evaluate_second", "generator_float", "generator_str",
         "LaurentPoly_str", "LaurentPoly_float"],
)
def test_inexact_values_are_rejected(call):
    with pytest.raises(DomainError, match="must be an int or Fraction"):
        call()


# Malformed shapes, sizes, labels and indices, each with a fragment of the
# message that names its fault.
MALFORMED = {
    "LoopElement_shape": (lambda: LoopElement(((LaurentPoly({0: 1}),),)), "2x2 matrix"),
    "LoopElement_entry": (lambda: identity_loop().entry(3, 1), "must be 1 or 2"),
    "LoopElement_modes": (lambda: identity_loop() * identity_loop(1), "different modes"),
    "MultiPoly_arity": (lambda: MultiPoly(2, {(1,): 1}), "has length 1, expected 2"),
    "MultiPoly_negative": (lambda: MultiPoly(1, {(-1,): 1}), "negative exponent"),
    "MultiPoly.variable": (lambda: MultiPoly.variable(2, 2), "out of range"),
    "MultiPoly_nvars": (lambda: MultiPoly(-1), "variable count must be nonnegative"),
    "MultiPoly.zero": (lambda: MultiPoly.zero(-1), "variable count must be nonnegative"),
    "MultiPoly.one": (lambda: MultiPoly.one(-1), "variable count must be nonnegative"),
    "MultiPoly.const": (lambda: MultiPoly.const(-1, 2), "variable count must be nonnegative"),
    "MultiPoly.variable_nvars": (
        lambda: MultiPoly.variable(-1, 0), "variable count must be nonnegative"
    ),
    "MultiPoly.monomial": (lambda: MultiPoly.monomial(-1, ()), "variable count must be nonnegative"),
    "identity_loop": (lambda: identity_loop(-2), "variable count must be nonnegative"),
    "MultiPoly.evaluate": (lambda: MultiPoly.one(2).evaluate([1]), "expected 2 values, got 1"),
    "PathFamily_length": (
        lambda: PathFamily(word=(1, 0), levels=((0, 0),)), "does not traverse 2 chips"
    ),
    "partitions_of": (lambda: partitions_of(-1), "negative integer"),
    "index_set": (lambda: index_set((-1,), 0, 0), "negative part -1"),
    "ChessTableau_empty_row": (
        lambda: ChessTableau(rows=((1,), ()), parity=1, content=(1,)), "empty rows"
    ),
    "ChessTableau_label": (
        lambda: ChessTableau(rows=((3,),), parity=1, content=(1, 0)), "outside 1..2"
    ),
    "ChessTableau_parity": (
        lambda: ChessTableau(rows=((2,),), parity=1, content=(0, 1)), "violates the parity"
    ),
    "ChessTableau_content": (
        lambda: ChessTableau(rows=((1,),), parity=1, content=(2,)), "content mismatch"
    ),
    "parity_string": (
        lambda: parity_string(StandardTableau(((1, 3),)), 0), "requires content (1,...,1)"
    ),
    "StandardTableau_content": (lambda: StandardTableau(((1, 3),)), "requires content (1,...,1)"),
    # a chess tableau has rows too, but may repeat a label, so it has no parity string
    "parity_string_chess": (
        lambda: parity_string(ChessTableau(rows=((1, 2), (2, 3)), parity=1, content=(1, 2, 1)), 1),
        "needs a StandardTableau, got ChessTableau",
    ),
    "ground_state_chess": (
        lambda: ground_state(ChessTableau(rows=((1, 2), (2, 3)), parity=1, content=(1, 2, 1)), 1),
        "needs a StandardTableau, got ChessTableau",
    ),
    "enumerate_chess": (lambda: enumerate_chess((1,), 0, -1), "label bound must be nonnegative"),
    "expand_word_length": (lambda: expand_word((1, 0), (1,)), "content length 1 != word length 2"),
    "expand_word_negative": (lambda: expand_word((1, 0), (1, -1)), "must be nonnegative"),
}


@pytest.mark.parametrize("call, fragment", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_is_rejected_with_its_fault(call, fragment):
    with pytest.raises(DomainError, match=re.escape(fragment)):
        call()


@pytest.mark.parametrize("lam", [(2, 3), (2, -1)], ids=["increasing", "negative_part"])
def test_subpartitions_reject_a_non_partition(lam):
    # unchecked, (2, 3) reads as (2, 2) and (2, -1) as a shape with no subpartition
    with pytest.raises(DomainError):
        subpartitions(lam)


@pytest.mark.parametrize("q", [0, -3, 6, 12])
def test_conjecture1_prediction_rejects_a_q_that_is_no_field_size(q):
    with pytest.raises(DomainError, match="neither a prime power nor 1"):
        conjecture1_prediction((2, 1), 1, (1, 0, 0), q)


def test_conjecture1_prediction_takes_prime_powers_and_one():
    # one tableau in ground state 0 and one in ground state 1
    for q in (1, 2, 3, 4, 5, 7, 8, 9):
        assert conjecture1_prediction((2, 1), 1, (1, 0, 0), q) == 1 + q


def test_coefficient_of_an_absent_monomial_is_zero():
    poly = phi_polynomial((2, 1), 1, WORD)
    assert poly.coefficient((1, 2, 0)) == 1
    # the wrong number of exponents, or one out of range, names no monomial
    assert poly.coefficient((1, 2)) == 0
    assert poly.coefficient((1, 2, -1)) == 0
    assert poly.coefficient((1, 2, 1 << 40)) == 0


def _unipotent(upper, diagonal=Fraction(1), nvars=None):
    """[[diagonal, upper], [0, diagonal]], built directly."""
    unit = LaurentPoly({0: diagonal})
    return LoopElement(((unit, LaurentPoly({0: upper})), (LaurentPoly(), unit)), nvars=nvars)


@pytest.mark.parametrize(
    "call",
    [
        # floats pass the det = 1 check (1.0 == 1), but then the product of the
        # elements with upper entries 0.1 and 0.2 has 0.30000000000000004 there
        lambda: _unipotent(0.1, diagonal=1.0),
        lambda: _unipotent("1"),
        lambda: _unipotent(Fraction(1), diagonal=MultiPoly.one(1)),
        lambda: _unipotent(Fraction(1), diagonal=MultiPoly.one(1), nvars=1),
    ],
    ids=["float", "str", "MultiPoly_in_numeric", "Fraction_in_symbolic"],
)
def test_inexact_loop_coefficients_are_rejected(call):
    with pytest.raises(DomainError, match="inexact loop coefficient"):
        call()


def test_public_surface():
    # every exported name resolves, once, and a star import sees all of them
    assert all(hasattr(loopminors, name) for name in loopminors.__all__)
    assert len(set(loopminors.__all__)) == len(loopminors.__all__)
    namespace = {}
    exec("from loopminors import *", namespace)
    assert set(loopminors.__all__) <= set(namespace)


# Each guard is fed an input that only an explicit check can refuse: the
# reversed window of a non-partition, and a parity-respecting filling whose
# row decreases.  Under -O an ``assert`` in their place would let both pass.
GUARDED_CALLS = """
import sys
from loopminors.errors import DomainError
from loopminors.partitions import index_set
from loopminors.tableaux import ChessTableau

for guard in (
    lambda: index_set((1, 3), 0, 1),
    lambda: ChessTableau(rows=((3, 2),), parity=1, content=(0, 1, 1)),
):
    try:
        guard()
    except DomainError:
        print("rejected")
    else:
        print("accepted")
print("optimize", sys.flags.optimize)
"""


def python_O(code: str) -> str:
    """The stdout of ``code`` run by ``python -O`` on this checkout's src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_guards_hold_under_python_O():
    assert python_O(GUARDED_CALLS).split("\n") == ["rejected", "rejected", "optimize 1", ""]


# The sequence rule is an explicit check as well: under -O each row of SEQUENCES, imported
# from this file, is still refused with its message.
SEQUENCE_RULE = """
import sys
from loopminors.errors import DomainError

sys.path.insert(0, TESTS)
from test_guards import SEQUENCES

for call, message in SEQUENCES.values():
    try:
        call()
    except DomainError as exc:
        print("refused" if str(exc) == message else f"refused with {exc}")
    else:
        print("accepted")
print("optimize", sys.flags.optimize)
"""


def test_sequence_rule_holds_under_python_O():
    tests = str(Path(__file__).resolve().parent)
    lines = python_O(f"TESTS = {tests!r}\n{SEQUENCE_RULE}").split("\n")
    assert lines == ["refused"] * len(SEQUENCES) + ["optimize 1", ""]


# A loop element built directly, with determinant 2: the constructor's check
# is the one that word_to_loop relies on, so it must not be an assert.
BAD_DETERMINANT = """
from fractions import Fraction
from loopminors.errors import DomainError
from loopminors.loop import LaurentPoly, LoopElement

one, two = LaurentPoly({0: Fraction(1)}), LaurentPoly({0: Fraction(2)})
try:
    LoopElement(((two, LaurentPoly()), (LaurentPoly(), one)))
except DomainError as exc:
    print("rejected", exc)
else:
    print("accepted")
"""


def test_loop_determinant_check_holds_under_python_O():
    assert python_O(BAD_DETERMINANT).startswith("rejected determinant is not 1")
