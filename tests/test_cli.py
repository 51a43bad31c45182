import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from loopminors import cli, verify
from loopminors.cli import build_parser, main
from loopminors.multipoly import MultiPoly

GOLDEN = "a1*a2^2 + 2*a1*a2*a4 + a1*a4^2 + a3*a4^2"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_minor_golden_bytes(capsys):
    code, out, _ = run_cli(
        capsys, "minor", "--word", "1,0,1,0", "--mu", "", "--lambda", "2,1", "--parity", "1"
    )
    assert code == 0
    assert out == '{"polynomial":"%s"}\n' % GOLDEN


def test_python_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "loopminors", "minor", "--word", "1,0,1,0", "--mu", "",
         "--lambda", "2,1", "--parity", "1"],
        env=env, capture_output=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == b'{"polynomial":"%s"}\n' % GOLDEN.encode()


def test_tableaux_golden_bytes(capsys):
    code, out, _ = run_cli(capsys, "tableaux", "--shape", "2,1")
    assert code == 0
    assert out == '{"count":2,"tableaux":[[[1,2],[3]],[[1,3],[2]]]}\n'


def test_tableaux_parity_filter(capsys):
    code, out, _ = run_cli(
        capsys, "tableaux", "--shape", "2,1", "--parity", "0", "--d", "0,1,1"
    )
    assert code == 0
    assert json.loads(out)["count"] == 2


def test_chess_output(capsys):
    code, out, _ = run_cli(
        capsys, "chess", "--shape", "2,1", "--parity", "1", "--max-label", "4"
    )
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 5
    assert set(data["contents"]) == {"1,2,0,0", "1,1,0,1", "1,0,0,2", "0,0,1,2"}


def test_phi_output(capsys):
    code, out, _ = run_cli(
        capsys, "phi", "--shape", "2,1", "--parity", "1", "--word", "1,0,1,0"
    )
    assert code == 0
    data = json.loads(out)
    assert data["polynomial"] == GOLDEN
    assert data["terms"]["1,1,0,1"] == 2


def test_pieri_output(capsys):
    code, out, _ = run_cli(
        capsys, "pieri", "--word", "1,0,1,0", "--lambda", "2,1", "--parity", "1"
    )
    assert code == 0
    assert json.loads(out)["polynomial"] == GOLDEN


def test_paths_output(capsys):
    code, out, _ = run_cli(
        capsys, "paths", "--word", "1,0,1,0", "--mu", "", "--lambda", "2,1", "--parity", "1"
    )
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 5
    assert data["polynomial"] == GOLDEN
    assert all(len(path) == 5 for family in data["families"] for path in family)


@pytest.mark.parametrize("mu, lam", [("", "3,2,1"), ("2,1", "4,3,1")])
def test_paths_family_weights_sum_to_the_polynomial(capsys, mu, lam):
    word = "1,0,1,0,1,0,1"
    code, out, _ = run_cli(
        capsys, "paths", "--word", word, "--mu", mu, "--lambda", lam, "--parity", "0"
    )
    assert code == 0
    data = json.loads(out)
    assert data["count"] > 1
    total = MultiPoly.zero(7)
    for family in data["families"]:
        heights = [sum(column) for column in zip(*family)]
        total = total + MultiPoly.monomial(7, [b - a for a, b in zip(heights, heights[1:])])
    assert total.text() == data["polynomial"]


def test_paths_render(capsys):
    code, out, _ = run_cli(
        capsys,
        "--format", "text",
        "paths", "--word", "1,0,1,0", "--mu", "", "--lambda", "2,1", "--parity", "1",
        "--render",
    )
    assert code == 0
    assert out.count("weight") == 5
    assert "/" in out and "*" in out


def test_paths_render_json_mode(capsys):
    code, out, _ = run_cli(
        capsys,
        "paths", "--word", "1,0,1,0", "--mu", "", "--lambda", "2,1", "--parity", "1",
        "--render",
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["rendered"]) == 5
    assert all("/" in art for art in data["rendered"])


def test_module_output(capsys):
    code, out, _ = run_cli(
        capsys, "module", "--lambda", "4,3,2,2,1", "--mu", "2,1", "--parity", "0"
    )
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 9
    assert [[3, 1], "alpha", [3, 0]] in data["arrows"]


def test_points_output(capsys):
    code, out, _ = run_cli(
        capsys,
        "points", "--lambda", "2,1", "--parity", "1", "--d", "1,0,0", "--q", "2",
    )
    assert code == 0
    assert json.loads(out)["count"] == 3


def test_points_prints_the_partitions_it_read(capsys):
    # canonical, as module prints them, not the option text
    code, out, _ = run_cli(
        capsys,
        "points", "--lambda", "2,1,0", "--mu", "0", "--parity", "1", "--d", "1,0,0", "--q", "2",
    )
    assert code == 0
    assert out == '{"count":3,"d":[1,0,0],"lambda":"2,1","mu":"","parity":1,"q":2}\n'


def test_verify_theorem2_summary(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "theorem2", "--max-size", "3", "--max-word", "3"
    )
    assert code == 0
    assert out == '{"cases":84,"failures":0}\n'


def test_verify_conjecture1_exits_zero(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "conjecture1", "--max-size", "2", "--q", "2"
    )
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["failures"] == 0


def test_verify_verbose_streams_cases(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "pieri", "--max-size", "1", "--max-word", "1", "--verbose"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) > 1
    assert json.loads(lines[0])["status"] == "ok"


# a report, a summary and an error line, each with text outside ASCII
LINES = [
    verify.VerificationReport(
        "conjecture1", {"d": "0,1", "lambda": "3,2,1", "parity": 0, "q": 2},
        {"prediction": "a\u2081\u00b7\u03bb", "brute_force": "\u2603"},
    ).to_json(),
    {"cases": 25308, "failures": 0, "interrupted": True},
    {"error": {"message": "cannot write output file 'r\u00e9pertoire/\u2603.json': No such file",
               "type": "DomainError"}},
]


@pytest.mark.parametrize("held", [True, False], ids=["held", "python"])
def test_dumps_writes_the_bytes_of_json_dumps(monkeypatch, held):
    # the C encoder held from import, else, where the C accelerator is missing, the Python one
    expected = [json.dumps(obj, sort_keys=True, separators=(",", ":")) for obj in LINES]
    if not held:
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    dumps = cli._dumps if held else cli._line_encoder()
    assert (getattr(dumps, "__func__", None) is json.JSONEncoder.encode) is not held
    assert [dumps(obj) for obj in LINES] == expected


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_verify_dumps_only_the_lines_it_writes(capsys, monkeypatch, fmt):
    # a JSON line dumps its report, a text line its case, and the text summary nothing
    dumped = []
    monkeypatch.setattr(cli, "_dumps", lambda obj, real=cli._dumps: dumped.append(obj) or real(obj))
    argv = ["--format", fmt, "verify", "prop1", "--max-size", "2", "--max-word", "2", "--verbose"]
    code, out, _ = run_cli(capsys, *argv)
    cases = len(list(verify.sweep_prop1(2, 2)))
    assert code == 0 and len(out.splitlines()) == cases + 1
    assert len(dumped) == cases + (fmt == "json")


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("command", [
    ["phi", "--shape", "2,1", "--parity", "1", "--word", "1,0,1,0"],
    ["minor", "--word", "1,0,1,0", "--mu", "", "--lambda", "2,1", "--parity", "1"],
    ["pieri", "--word", "1,0,1,0", "--lambda", "2,1", "--parity", "1"],
], ids=["phi", "minor", "pieri"])
def test_a_polynomial_is_rendered_once_and_only_as_printed(capsys, monkeypatch, fmt, command):
    # one render in either format; phi's term list only for JSON, where it is printed
    calls = []
    for name in ("text", "json_terms", "text_and_terms"):
        real = getattr(MultiPoly, name)
        monkeypatch.setattr(MultiPoly, name, lambda self, n=name, f=real: calls.append(n) or f(self))
    code, out, _ = run_cli(capsys, "--format", fmt, *command)
    assert code == 0 and GOLDEN in out
    terms = fmt == "json" and command[0] == "phi"
    assert calls == (["text_and_terms"] if terms else ["text"])


def test_verify_writes_each_report_before_an_interrupt(tmp_path, capsys, monkeypatch):
    case = ((1,), (1,), 0)
    report = verify.check("theorem2", *case)
    lines = (
        json.dumps(report.to_json(), sort_keys=True, separators=(",", ":")) + "\n"
        + '{"cases":1,"failures":0,"interrupted":true}\n'
    )

    def interrupted_grid(max_size, max_word):
        yield case
        raise KeyboardInterrupt

    monkeypatch.setattr(verify, "sweep_theorem2", interrupted_grid)
    assert main(["verify", "theorem2", "--verbose"]) == 130
    assert capsys.readouterr().out == lines
    target = tmp_path / "partial.json"
    assert main(["--out", str(target), "verify", "theorem2", "--verbose"]) == 130
    assert target.read_text() == lines
    assert main(["--format", "text", "verify", "theorem2"]) == 130
    assert capsys.readouterr().out == "cases 1, failures 0, interrupted\n"


@pytest.mark.parametrize("target", verify.TARGETS)
def test_verify_runs_the_module_level_grid_of_its_target(capsys, monkeypatch, target):
    # a rebound sweep_<target> is the one that runs, one item per case
    grid = getattr(verify, f"sweep_{target}")
    seen = []

    def recorded(*bounds):
        for case in grid(*bounds):
            seen.append(case)
            yield case

    monkeypatch.setattr(verify, f"sweep_{target}", recorded)
    code, out, _ = run_cli(capsys, "verify", target, "--max-size", "2", "--max-word", "2")
    assert code == 0
    assert json.loads(out) == {"cases": len(seen), "failures": 0}
    assert len(seen) > 0


def test_unopenable_out_path_is_a_domain_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, _ = run_cli(
        capsys, "--out", str(target), "minor", "--word", "1,0", "--lambda", "1", "--parity", "0"
    )
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "DomainError"
    assert error["message"].startswith(f"cannot write output file {str(target)!r}")
    assert not target.exists()


def test_verify_output_is_deterministic(capsys):
    argv = ["verify", "theorem2", "--max-size", "2", "--max-word", "2", "--verbose"]
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_domain_error_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "minor", "--word", "1,0", "--mu", "3", "--lambda", "2,1", "--parity", "0"
    )
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DomainError"


@pytest.mark.parametrize("exc, shown", [(MemoryError(), "out of memory"),
                                        (MemoryError("no room"), "no room")],
                         ids=["bare", "with-message"])
def test_running_out_of_memory_is_one_error_line(capsys, monkeypatch, exc, shown):
    from loopminors import tableaux

    def exhausted(*_):
        raise exc

    monkeypatch.setattr(tableaux, "enumerate_chess", exhausted)
    code, out, err = run_cli(capsys, "chess", "--shape", "10,10,10", "--parity", "1",
                             "--max-label", "30")
    assert (code, err) == (1, "")
    assert out == '{"error":{"message":"%s","type":"MemoryError"}}\n' % shown


def test_out_of_memory_line_is_written_after_the_failing_frames_are_let_go(monkeypatch):
    import weakref

    from loopminors import tableaux

    class Held:
        pass

    refs, alive = [], []

    def exhausted(*_):
        held = Held()  # stands for the polynomial a handler was building
        refs.append(weakref.ref(held))
        raise MemoryError

    def emit(self, obj, text=None):
        alive.append(refs[0]() is not None)

    monkeypatch.setattr(tableaux, "enumerate_chess", exhausted)
    monkeypatch.setattr(cli.Output, "emit", emit)
    assert main(["chess", "--shape", "2,1", "--parity", "1", "--max-label", "3"]) == 1
    assert alive == [False]


def test_word_and_matrix_are_exclusive(capsys):
    code, out, _ = run_cli(
        capsys, "minor", "--mu", "", "--lambda", "1", "--parity", "0"
    )
    assert code == 1
    assert "error" in json.loads(out)


def test_bad_option_exits_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["minor", "--parity", "5", "--lambda", "1"])
    assert excinfo.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_matrix_file_numeric_mode(tmp_path, capsys):
    matrix = {
        "g11": {"0": "1"},
        "g12": {},
        "g21": {"1": "3/4"},
        "g22": {"0": "1"},
    }
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(matrix))
    code, out, _ = run_cli(
        capsys,
        "minor", "--matrix", str(path), "--mu", "", "--lambda", "1", "--parity", "0",
    )
    assert code == 0
    assert json.loads(out)["value"] == "3/4"


def test_out_file_and_determinism(tmp_path, capsys):
    target = tmp_path / "result.json"
    argv = [
        "--out", str(target),
        "minor", "--word", "1,0,1,0", "--mu", "", "--lambda", "2,1", "--parity", "1",
    ]
    assert main(list(argv)) == 0
    first = target.read_bytes()
    assert main(list(argv)) == 0
    assert target.read_bytes() == first
    assert first == b'{"polynomial":"%s"}\n' % GOLDEN.encode()


@pytest.mark.parametrize(
    "matrix, shown",
    [
        ({"g11": {"0": "1"}, "g12": {"0": "1"}, "g21": {"0": "1"}, "g22": {"0": "1"}}, "0"),
        ({"g11": {"0": "2"}, "g22": {"0": "1"}}, "2"),
        ({"g11": {"0": "1"}, "g12": {"-1": "1/2"}, "g21": {"1": "3"}, "g22": {"0": "1"}}, "-1/2"),
    ],
    ids=["all-ones", "g11-is-2", "constant-minus-half"],
)
def test_matrix_file_determinant_error_prints_the_polynomial(tmp_path, capsys, matrix, shown):
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(matrix))
    code, out, _ = run_cli(
        capsys,
        "minor", "--matrix", str(path), "--mu", "", "--lambda", "1", "--parity", "0",
    )
    assert code == 1
    assert out == '{"error":{"message":"determinant is not 1: %s","type":"DomainError"}}\n' % shown


@pytest.mark.parametrize(
    "content, fragment",
    [
        (None, "cannot read matrix file"),
        ('{"g11": ', "is not valid JSON"),
        ('{"g11": {"0": "one"}}', "bad term in g11"),
        ('{"g11": {"0": "1/0"}}', "bad term in g11"),
        ("[1, 2]", "must hold one JSON object"),
        ('{"g11": [1]}', "g11 must map t-exponents to coefficients"),
        ('{"g11": {"0": 1}, "g22": {"0": 1}, "G12": {"0": 5}}',
         "has keys ['G12'] besides g11, g12, g21 and g22"),
    ],
    ids=["missing-file", "malformed-json", "bad-rational", "zero-denominator", "not-an-object",
         "entry-not-an-object", "unexpected-key"],
)
def test_matrix_file_errors_are_structured(tmp_path, capsys, content, fragment):
    path = tmp_path / "loop.json"
    if content is not None:
        path.write_text(content)
    code, out, _ = run_cli(
        capsys,
        "minor", "--matrix", str(path), "--mu", "", "--lambda", "1", "--parity", "0",
    )
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "DomainError"
    assert fragment in error["message"]


def test_points_rejects_non_bit_parity_string(capsys):
    code, out, _ = run_cli(
        capsys, "points", "--lambda", "2,1", "--parity", "1", "--d", "2,0,0", "--q", "2"
    )
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DomainError"


def test_phi_rejects_an_empty_word(capsys):
    code, out, _ = run_cli(capsys, "phi", "--shape", "1", "--parity", "0", "--word", "")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DomainError"


# Each subcommand's options as recorded from the parser before its shared
# options were declared once: flag, dest, required, default, help, type,
# choices and action.  No option may go, loosen or lose its help.
OPTIONS = {
    "tableaux": [
        ("--shape", "shape", True, None, None, None, None, "_StoreAction"),
        ("--parity", "parity", False, None, None, int, (0, 1), "_StoreAction"),
        ("--d", "d", False, None, "filter by this i-parity string", None, None, "_StoreAction"),
    ],
    "chess": [
        ("--shape", "shape", True, None, None, None, None, "_StoreAction"),
        ("--parity", "parity", True, None, None, int, (0, 1), "_StoreAction"),
        ("--max-label", "max_label", True, None, None, int, None, "_StoreAction"),
    ],
    "phi": [
        ("--shape", "shape", True, None, None, None, None, "_StoreAction"),
        ("--parity", "parity", True, None, None, int, (0, 1), "_StoreAction"),
        ("--word", "word", True, None, None, None, None, "_StoreAction"),
    ],
    "minor": [
        ("--word", "word", False, None, "alternating word, symbolic mode", None, None,
         "_StoreAction"),
        ("--matrix", "matrix", False, None, "JSON Laurent matrix file, numeric mode", None, None,
         "_StoreAction"),
        ("--mu", "mu", False, "", None, None, None, "_StoreAction"),
        ("--lambda", "lam", True, None, None, None, None, "_StoreAction"),
        ("--parity", "parity", True, None, None, int, (0, 1), "_StoreAction"),
    ],
    "pieri": [
        ("--word", "word", True, None, None, None, None, "_StoreAction"),
        ("--lambda", "lam", True, None, None, None, None, "_StoreAction"),
        ("--parity", "parity", True, None, None, int, (0, 1), "_StoreAction"),
    ],
    "paths": [
        ("--word", "word", True, None, None, None, None, "_StoreAction"),
        ("--mu", "mu", False, "", None, None, None, "_StoreAction"),
        ("--lambda", "lam", True, None, None, None, None, "_StoreAction"),
        ("--parity", "parity", True, None, None, int, (0, 1), "_StoreAction"),
        ("--render", "render", False, False, "ASCII pictures", None, None, "_StoreTrueAction"),
    ],
    "module": [
        ("--lambda", "lam", True, None, None, None, None, "_StoreAction"),
        ("--mu", "mu", False, "", None, None, None, "_StoreAction"),
        ("--parity", "parity", True, None, None, int, (0, 1), "_StoreAction"),
    ],
    "points": [
        ("--lambda", "lam", True, None, None, None, None, "_StoreAction"),
        ("--mu", "mu", False, "", None, None, None, "_StoreAction"),
        ("--parity", "parity", True, None, None, int, (0, 1), "_StoreAction"),
        ("--d", "d", True, None, None, None, None, "_StoreAction"),
        ("--q", "q", True, None, None, int, None, "_StoreAction"),
    ],
    "verify": [
        ("target", "target", True, None, None, None, verify.TARGETS, "_StoreAction"),
        ("--max-size", "max_size", False, 5, None, int, None, "_StoreAction"),
        ("--max-word", "max_word", False, 5, None, int, None, "_StoreAction"),
        ("--q", "q", False, None, None, int, None, "_AppendAction"),
        ("--verbose", "verbose", False, False, "stream every case", None, None, "_StoreTrueAction"),
    ],
}


def test_each_subcommand_keeps_its_options():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(OPTIONS)
    for name, parser in sub.choices.items():
        options = [
            ((a.option_strings or [a.dest])[0], a.dest, a.required, a.default, a.help, a.type,
             a.choices, type(a).__name__)
            for a in parser._actions if not isinstance(a, argparse._HelpAction)
        ]
        assert options == OPTIONS[name], name


# A valid call of each subcommand that reads partitions or bit lists from text.
READING_CALLS = {
    "tableaux": ["tableaux", "--shape", "2,1", "--parity", "0", "--d", "0,1,1"],
    "chess": ["chess", "--shape", "2,1", "--parity", "1", "--max-label", "4"],
    "phi": ["phi", "--shape", "2,1", "--parity", "1", "--word", "1,0,1,0"],
    "minor": ["minor", "--word", "1,0,1,0", "--mu", "", "--lambda", "2,1", "--parity", "1"],
    "pieri": ["pieri", "--word", "1,0,1,0", "--lambda", "2,1", "--parity", "1"],
    "paths": ["paths", "--word", "1,0,1,0", "--mu", "", "--lambda", "2,1", "--parity", "1"],
    "module": ["module", "--lambda", "3,1", "--mu", "1", "--parity", "1"],
    "points": ["points", "--lambda", "2,1", "--mu", "", "--parity", "1", "--d", "1,0,0", "--q", "2"],
}
READ_AS = {"--shape": "partition", "--lambda": "partition", "--mu": "partition",
           "--word": "bit list", "--d": "bit list"}
READ_OPTIONS = [(name, option[0]) for name, options in OPTIONS.items()
                for option in options if option[0] in READ_AS]


@pytest.mark.parametrize("name, flag", READ_OPTIONS, ids=[f"{n}{f}" for n, f in READ_OPTIONS])
def test_a_malformed_partition_or_bit_list_is_one_domain_error_line(capsys, name, flag):
    argv = list(READING_CALLS[name])
    argv[argv.index(flag) + 1] = "2,x"
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (1, "")
    message = f"cannot parse {READ_AS[flag]} '2,x'"
    assert out == '{"error":{"message":"%s","type":"DomainError"}}\n' % message


def test_verify_rejects_an_empty_sweep(capsys):
    code, out, _ = run_cli(capsys, "verify", "theorem2", "--max-word", "0")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DomainError"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "theorem2", "--max-size", "2", "--max-word", "1", "--q", "7"],
        ["tableaux", "--shape", "2,1", "--parity", "1"],
        ["--format", "text", "tableaux", "--shape", "2,1", "--parity", "1"],
    ],
    ids=["verify-q", "tableaux-parity", "tableaux-parity-text"],
)
def test_an_option_the_command_would_ignore_is_an_error(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DomainError"


# The recorded bytes of CLI calls: for each row its argv, with --format, its exit
# code, its stdout, spelled out or as its sha256, and its stderr.  A recorded value
# changes only with a CHANGES.md line saying which bytes changed and why.  An
# error stays one JSON line in either format.
class Sha256(str):
    """The recorded sha256 of an output too long to spell out."""


WORD12 = "1,0,1,0,1,0,1,0,1,0,1,0"
WORD11 = "1,0,1,0,1,0,1,0,1,0,1"
WORD18 = "1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0"
# the 3,885-term, 12-variable anchor, through φ and both determinant routes
PHI12_TXT = Sha256("7c651c781b6132980402cc8e51d1cb992b153b5c23f9c17672bee9913cd215d6")
OFFPOOL = ["points", "--lambda", "4,3,2,1", "--mu", "2,1", "--parity", "1", "--d", "1,1,1,0,0,0,0"]
CONJECTURE1_WARNING = "warning: 4 conjecture mismatch(es) reported\n"

# The JSON Laurent matrices that the --matrix rows read, each written to a file of
# its name first.
MATRIX_FILES = {
    # g = x1(2/3) x0(3/4), det 1
    "det1.json": '{"g11":{"0":"1","1":"1/2"},"g12":{"0":"2/3"},"g21":{"1":"3/4"},"g22":{"0":"1"}}',
    # g11 = 2, g22 = 1, det 2
    "det2.json": '{"g11":{"0":"2"},"g12":{},"g21":{},"g22":{"0":"1"}}',
    # det 1 with polynomial entries, but g = diag(2, 1/2) x0(1) x1(1) has no unit
    # diagonal and g = [[1,t],[2,1+2t]] x0(3) x0(5/2) a lower constant 2, so both
    # minors must read the direct window
    "diag.json": '{"g11":{"0":"2"},"g12":{"0":"2"},"g21":{"1":"1/2"},"g22":{"0":"1/2","1":"1/2"}}',
    "lower.json": '{"g11":{"0":"1","2":"11/2"},"g12":{"1":"1"},'
                  '"g21":{"0":"2","1":"11/2","2":"11"},"g22":{"0":"1","1":"2"}}',
}

OUTPUTS = {
    "tableaux": (
        ["--format", "text", "tableaux", "--shape", "3,1"],
        0, "[[1, 2, 3], [4]]\n[[1, 2, 4], [3]]\n[[1, 3, 4], [2]]\n", "",
    ),
    # 768 tableaux, 23,835 bytes of JSON
    "tableaux-4321": (
        ["tableaux", "--shape", "4,3,2,1"],
        0, Sha256("e4316af3d7dde111c431018448df1c08dbfd0e75bdc4eb72311a301ca5e2381f"), "",
    ),
    "tableaux-none": (
        ["--format", "text", "tableaux", "--shape", "2,1", "--parity", "1", "--d", "1,1,1"],
        0, "(none)\n", "",
    ),
    "chess": (
        ["--format", "text", "chess", "--shape", "2,1", "--parity", "1", "--max-label", "4"],
        0,
        "0,0,1,2: [[[3, 4], [4]]]\n"
        "1,0,0,2: [[[1, 4], [4]]]\n"
        "1,1,0,1: [[[1, 2], [4]], [[1, 4], [2]]]\n"
        "1,2,0,0: [[[1, 2], [2]]]\n",
        "",
    ),
    # 594 tableaux, 20,347 bytes of JSON
    "chess-4321": (
        ["chess", "--shape", "4,3,2,1", "--parity", "1", "--max-label", "8"],
        0, Sha256("f528af1031e9532d0573cd4104b8987ea4c5d58a45a4e1cee57bc97494fe9555"), "",
    ),
    "phi": (
        ["--format", "text", "phi", "--shape", "2,1", "--parity", "1", "--word", "1,0,1,0"],
        0, GOLDEN + "\n", "",
    ),
    "minor": (
        ["--format", "text", "minor", "--word", "1,0,1,0", "--lambda", "2,1", "--parity", "1"],
        0, GOLDEN + "\n", "",
    ),
    "pieri": (
        ["--format", "text", "pieri", "--word", "1,0,1", "--lambda", "2,1", "--parity", "0"],
        0, "a2*a3^2\n", "",
    ),
    "paths": (
        ["--format", "text", "paths", "--word", "1,0", "--mu", "1", "--lambda", "2,1",
         "--parity", "1"],
        0, "[[2, 2, 3], [0, 0, 1]]\n", "",
    ),
    "paths-render": (
        ["--format", "text", "paths", "--word", "1,0,1", "--lambda", "1,1", "--parity", "0",
         "--render"],
        0,
        "weight a2*a3\n"
        "   1 o   o   *---*\n"
        "           /\n"
        "   0 *---*   o   *\n"
        "               /\n"
        "  -1 *---*---*   o\n"
        "sum a2*a3\n",
        "",
    ),
    # 330 families, 28,926 bytes of JSON
    "paths-321": (
        ["paths", "--word", "1,0,1,0,1,0,1,0,1,0", "--lambda", "3,2,1", "--parity", "1"],
        0, Sha256("9189a7d2338063b23f2971b1bcf17462cbb77d582df1bcd5fdb75a40d28c690b"), "",
    ),
    "module": (
        ["--format", "text", "module", "--lambda", "3,1", "--mu", "1", "--parity", "1"],
        0, "dim 3\n[0, 2] --beta--> [0, 1]\n", "",
    ),
    "points": (
        ["--format", "text", "points", "--lambda", "2,1", "--parity", "1", "--d", "1,0,0",
         "--q", "2"],
        0, "3\n", "",
    ),
    "points-canonical": (
        ["--format", "text", "points", "--lambda", "2,1,0", "--mu", "0", "--parity", "1",
         "--d", "1,0,0", "--q", "2"],
        0, "3\n", "",
    ),
    "verify": (
        ["--format", "text", "verify", "pieri", "--max-size", "1", "--max-word", "1", "--verbose"],
        0,
        'ok {"lambda":"","parity":0,"word":"0"}\n'
        'ok {"lambda":"","parity":0,"word":"1"}\n'
        'ok {"lambda":"","parity":1,"word":"0"}\n'
        'ok {"lambda":"","parity":1,"word":"1"}\n'
        'ok {"lambda":"1","parity":0,"word":"0"}\n'
        'ok {"lambda":"1","parity":0,"word":"1"}\n'
        'ok {"lambda":"1","parity":1,"word":"0"}\n'
        'ok {"lambda":"1","parity":1,"word":"1"}\n'
        "cases 8, failures 0\n",
        "",
    ),
    "verify-conjecture1": (
        ["--format", "text", "verify", "conjecture1", "--max-size", "6", "--q", "2", "--q", "3"],
        0,
        'mismatch {"d":"0,1,0,1,0,0","lambda":"3,2,1","parity":0,"q":2}\n'
        'mismatch {"d":"0,1,0,1,0,0","lambda":"3,2,1","parity":0,"q":3}\n'
        'mismatch {"d":"1,0,1,0,1,1","lambda":"3,2,1","parity":1,"q":2}\n'
        'mismatch {"d":"1,0,1,0,1,1","lambda":"3,2,1","parity":1,"q":3}\n'
        "cases 224, failures 4\n",
        CONJECTURE1_WARNING,
    ),
    "verify-lindstrom": (
        ["--format", "text", "verify", "lindstrom", "--max-size", "1", "--max-word", "1",
         "--verbose"],
        0,
        'ok {"lambda":"","mu":"","parity":0,"word":"0"}\n'
        'ok {"lambda":"","mu":"","parity":0,"word":"1"}\n'
        'ok {"lambda":"","mu":"","parity":1,"word":"0"}\n'
        'ok {"lambda":"","mu":"","parity":1,"word":"1"}\n'
        'ok {"lambda":"1","mu":"1","parity":0,"word":"0"}\n'
        'ok {"lambda":"1","mu":"1","parity":0,"word":"1"}\n'
        'ok {"lambda":"1","mu":"1","parity":1,"word":"0"}\n'
        'ok {"lambda":"1","mu":"1","parity":1,"word":"1"}\n'
        'ok {"lambda":"1","mu":"","parity":0,"word":"0"}\n'
        'ok {"lambda":"1","mu":"","parity":0,"word":"1"}\n'
        'ok {"lambda":"1","mu":"","parity":1,"word":"0"}\n'
        'ok {"lambda":"1","mu":"","parity":1,"word":"1"}\n'
        "cases 12, failures 0\n",
        "",
    ),
    "error": (
        ["--format", "text", "module", "--lambda", "3", "--mu", "5", "--parity", "0"],
        1, '{"error":{"message":"(5,) is not contained in (3,)","type":"DomainError"}}\n', "",
    ),
    "error-d-without-parity": (
        ["--format", "text", "tableaux", "--shape", "2,1", "--d", "0,1,1"],
        1, '{"error":{"message":"--d requires --parity","type":"DomainError"}}\n', "",
    ),
    # 6 is no field size, so no larger guard could count it; 7 is over the guard
    "error-q-not-a-field": (
        ["--format", "text", "points", "--lambda", "2,1", "--mu", "", "--parity", "0",
         "--d", "0,1,0", "--q", "6"],
        1, '{"error":{"message":"field size 6 is not a prime power","type":"DomainError"}}\n', "",
    ),
    "error-q-over-budget": (
        ["--format", "text", "points", "--lambda", "2,1", "--mu", "", "--parity", "0",
         "--d", "0,1,0", "--q", "7"],
        1,
        '{"error":{"message":"brute-force counting is guarded to q <= 5 (got 7)",'
        '"type":"ResourceLimitError"}}\n',
        "",
    ),
    # re-recorded from the program once the subcommand positional showed as
    # "command", whose usage line fits in 80 columns on Python 3.10 to 3.13; every
    # row runs with COLUMNS=80, argparse's line width
    "help": (
        ["--help"],
        0,
        "usage: loopminors [-h] [--format {json,text}] [--out OUT] command ...\n"
        "\n"
        "Exact tableau, path, and block-Toeplitz minor computations.\n"
        "\n"
        "positional arguments:\n"
        "  command\n"
        "    tableaux            standard tableaux of a shape\n"
        "    chess               chess tableaux grouped by content\n"
        "    phi                 flag-counting generating polynomial\n"
        "    minor               block-Toeplitz minor\n"
        "    pieri               determinant in single-row entries\n"
        "    paths               non-crossing path families\n"
        "    module              skew-shape module description\n"
        "    points              finite-field composition-series count\n"
        "    verify              cross-route verification sweeps\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --format {json,text}\n"
        "  --out OUT             write output to a file\n",
        "",
    ),
    "help-verify": (
        ["verify", "--help"],
        0,
        "usage: loopminors verify [-h] [--max-size MAX_SIZE] [--max-word MAX_WORD]\n"
        "                         [--q Q] [--verbose]\n"
        "                         {theorem2,prop1,conjecture1,pieri,lindstrom}\n"
        "\n"
        "positional arguments:\n"
        "  {theorem2,prop1,conjecture1,pieri,lindstrom}\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --max-size MAX_SIZE\n"
        "  --max-word MAX_WORD\n"
        "  --q Q\n"
        "  --verbose             stream every case\n",
        "",
    ),
    # what the enumerators build; recorded at 28a445f, whose enumerators were recursive
    "tableaux-4321.json": (
        ["tableaux", "--shape", "4,3,2,1"],
        0, Sha256("e4316af3d7dde111c431018448df1c08dbfd0e75bdc4eb72311a301ca5e2381f"), "",
    ),
    "tableaux-4321-d.txt": (
        ["--format", "text", "tableaux", "--shape", "4,3,2,1", "--parity", "1",
         "--d", "1,0,0,1,1,1,0,0,0,0"],
        0, Sha256("32e2a43d4565ef19ce0ca516c7a46cf030fa7efae0e81f41b6bf6229e2918c0d"), "",
    ),
    "chess-332.json": (
        ["chess", "--shape", "3,3,2", "--parity", "1", "--max-label", "8"],
        0, Sha256("47409d1d6c5790cd0648429b57c7c200a2cfa5569e11dde8aec0a43da5c59441"), "",
    ),
    "paths-321-render.txt": (
        ["--format", "text", "paths", "--word", "1,0,1,0,1,0", "--mu", "1", "--lambda", "3,2,1",
         "--parity", "1", "--render"],
        0, Sha256("25d7f00e1141eb1415fbd837fef0471b06690ce74c7d3d39430325f119f63e08"), "",
    ),
    "paths-331.json": (
        ["paths", "--word", "0,1,0,1,0,1,0", "--lambda", "3,3,1", "--parity", "0"],
        0, Sha256("1ffebf5649f3fa263a58dee92f8641f08d0f15081941c3e92fb1530d3b6e6e53"), "",
    ),
    "module-43221.json": (
        ["module", "--lambda", "4,3,2,2,1", "--mu", "2,1", "--parity", "0"],
        0,
        '{"arrows":[[[0,3],"beta",[0,2]],[[1,2],"alpha*",[0,2]],[[1,2],"beta",[1,1]],'
        '[[2,1],"alpha*",[1,1]],[[2,1],"beta",[2,0]],[[3,0],"alpha*",[2,0]],'
        '[[3,1],"alpha",[3,0]],[[3,1],"beta*",[2,1]],[[4,0],"beta*",[3,0]]],'
        '"dim":9,"inner":"2,1","outer":"4,3,2,2,1","parity":0}\n',
        "",
    ),
    "module-43221.txt": (
        ["--format", "text", "module", "--lambda", "4,3,2,2,1", "--mu", "2,1", "--parity", "0"],
        0,
        "dim 9\n"
        "[0, 3] --beta--> [0, 2]\n"
        "[1, 2] --alpha*--> [0, 2]\n"
        "[1, 2] --beta--> [1, 1]\n"
        "[2, 1] --alpha*--> [1, 1]\n"
        "[2, 1] --beta--> [2, 0]\n"
        "[3, 0] --alpha*--> [2, 0]\n"
        "[3, 1] --alpha--> [3, 0]\n"
        "[3, 1] --beta*--> [2, 1]\n"
        "[4, 0] --beta*--> [3, 0]\n",
        "",
    ),
    # flag counts over budget for a smaller pool
    "points-q5.json": (
        ["points", "--lambda", "4,4,2,1", "--mu", "3,1", "--parity", "0",
         "--d", "0,0,1,1,1,1,0", "--q", "5"],
        0, '{"count":174096,"d":[0,0,1,1,1,1,0],"lambda":"4,4,2,1","mu":"3,1","parity":0,"q":5}\n',
        "",
    ),
    "points-q4.json": (
        ["points", "--lambda", "4,4,2,1", "--mu", "3,1", "--parity", "0",
         "--d", "0,0,1,1,1,1,0", "--q", "4"],
        0, '{"count":44625,"d":[0,0,1,1,1,1,0],"lambda":"4,4,2,1","mu":"3,1","parity":0,"q":4}\n',
        "",
    ),
    # past the benchmark pool's functional budget when every step peels the top
    # (10,022 functionals at q = 5); recorded at d266a8c, which did
    "points-offpool-q5.json": (
        [*OFFPOOL, "--q", "5"],
        0,
        '{"count":5396976,"d":[1,1,1,0,0,0,0],"lambda":"4,3,2,1","mu":"2,1","parity":1,"q":5}\n',
        "",
    ),
    "points-offpool-q4.json": (
        [*OFFPOOL, "--q", "4"],
        0,
        '{"count":937125,"d":[1,1,1,0,0,0,0],"lambda":"4,3,2,1","mu":"2,1","parity":1,"q":4}\n',
        "",
    ),
    # digests of the output of the tuple-based text and json_terms, which the
    # packed-key readers replaced
    "phi12.json": (
        ["phi", "--shape", "5,4,3,2,1", "--parity", "1", "--word", WORD12],
        0, Sha256("175e0bcff603d631ac9c688f05230e8cd554ded24e9fc4a8efdafe95163942b0"), "",
    ),
    "phi12.txt": (
        ["--format", "text", "phi", "--shape", "5,4,3,2,1", "--parity", "1", "--word", WORD12],
        0, PHI12_TXT, "",
    ),
    # the symbolic cofactor route on the same anchor, whose text is φ's: Theorem 2
    # and the Pieri identity there
    "minor12.json": (
        ["minor", "--word", WORD12, "--mu=", "--lambda", "5,4,3,2,1", "--parity", "1"],
        0, Sha256("1f81afd7199a5bff3dfc9f97192ed64cff5fcc4bb0ff156962bae968dcf0d928"), "",
    ),
    "minor12.txt": (
        ["--format", "text", "minor", "--word", WORD12, "--mu=", "--lambda", "5,4,3,2,1",
         "--parity", "1"],
        0, PHI12_TXT, "",
    ),
    "pieri12.json": (
        ["pieri", "--word", WORD12, "--lambda", "5,4,3,2,1", "--parity", "1"],
        0, Sha256("1f81afd7199a5bff3dfc9f97192ed64cff5fcc4bb0ff156962bae968dcf0d928"), "",
    ),
    "pieri12.txt": (
        ["--format", "text", "pieri", "--word", WORD12, "--lambda", "5,4,3,2,1", "--parity", "1"],
        0, PHI12_TXT, "",
    ),
    # lambda = (3,2,2,2,2,2,2): the minor reads the side-3 window of the conjugate
    # (7,7,1), the Pieri determinant its side-3 matrix of single-row entries on
    # (7,7,1); the digests were recorded from the side-7 window of lambda itself
    "minor-tall11.json": (
        ["minor", "--word", WORD11, "--mu=", "--lambda", "3,2,2,2,2,2,2", "--parity", "1"],
        0, Sha256("24f8f0da4e69c74446565052f705748698a99b7e2879bd8eddc6179d39c931f4"), "",
    ),
    "minor-tall11.txt": (
        ["--format", "text", "minor", "--word", WORD11, "--mu=", "--lambda", "3,2,2,2,2,2,2",
         "--parity", "1"],
        0, Sha256("f29d09686c815a101b0414005421f34f60349e7cc0326f7885b8af58f960b229"), "",
    ),
    "pieri-tall11.json": (
        ["pieri", "--word", WORD11, "--lambda", "3,2,2,2,2,2,2", "--parity", "1"],
        0, Sha256("24f8f0da4e69c74446565052f705748698a99b7e2879bd8eddc6179d39c931f4"), "",
    ),
    "pieri-tall11.txt": (
        ["--format", "text", "pieri", "--word", WORD11, "--lambda", "3,2,2,2,2,2,2",
         "--parity", "1"],
        0, Sha256("f29d09686c815a101b0414005421f34f60349e7cc0326f7885b8af58f960b229"), "",
    ),
    # lambda = (2)^9 and its conjugate (9,9) both expand a side-2 matrix; the
    # digests were recorded at 1a71b3b, where (2)^9 expanded side 9
    "pieri-wide12.json": (
        ["pieri", "--word", WORD12, "--lambda", "2,2,2,2,2,2,2,2,2", "--parity", "1"],
        0, Sha256("ed78d15a6f8868fffc90e4626f03d09421d99014621cd99f892d903c9c7b1a06"), "",
    ),
    "pieri-wide12.txt": (
        ["--format", "text", "pieri", "--word", WORD12, "--lambda", "2,2,2,2,2,2,2,2,2",
         "--parity", "1"],
        0, Sha256("e0c2eb2cda6af19e309ae2e7544629b67bde8d1e5cc5e5e68ae211c33fa0ae83"), "",
    ),
    "pieri-wide12-conjugate.json": (
        ["pieri", "--word", WORD12, "--lambda", "9,9", "--parity", "1"],
        0, Sha256("ed78d15a6f8868fffc90e4626f03d09421d99014621cd99f892d903c9c7b1a06"), "",
    ),
    "pieri-wide12-conjugate.txt": (
        ["--format", "text", "pieri", "--word", WORD12, "--lambda", "9,9", "--parity", "1"],
        0, Sha256("e0c2eb2cda6af19e309ae2e7544629b67bde8d1e5cc5e5e68ae211c33fa0ae83"), "",
    ),
    # 18 letters: g has 10,946 terms, and word_to_loop builds it without
    # re-checking det g = 1; the digests were recorded from the checked build
    "minor-long18.json": (
        ["minor", "--word", WORD18, "--mu=", "--lambda", "3,2,1", "--parity", "1"],
        0, Sha256("fbc7d605022ee62c60a60ff66700b8a51e17b31e14411083ebfd560ce2366c4e"), "",
    ),
    "minor-long18.txt": (
        ["--format", "text", "minor", "--word", WORD18, "--mu=", "--lambda", "3,2,1",
         "--parity", "1"],
        0, Sha256("d37529d84d9eac89b3a13faf9bc8d080a86bba32f29a0bdffd1f2f85e365f0e7"), "",
    ),
    "pieri-long18.json": (
        ["pieri", "--word", WORD18, "--lambda", "3,2,1", "--parity", "1"],
        0, Sha256("fbc7d605022ee62c60a60ff66700b8a51e17b31e14411083ebfd560ce2366c4e"), "",
    ),
    "pieri-long18.txt": (
        ["--format", "text", "pieri", "--word", WORD18, "--lambda", "3,2,1", "--parity", "1"],
        0, Sha256("d37529d84d9eac89b3a13faf9bc8d080a86bba32f29a0bdffd1f2f85e365f0e7"), "",
    ),
    # 20,045 lines each; recorded at 7e6fb28, when every case ran its own checked
    # euler_char walk and coefficient read
    "verify-prop1.json": (
        ["verify", "prop1", "--max-size", "5", "--max-word", "6", "--verbose"],
        0, Sha256("be94b321c416da101758d38ecaae44ffffc901f309784fde5b57f4d7be26a9e2"), "",
    ),
    "verify-prop1.txt": (
        ["--format", "text", "verify", "prop1", "--max-size", "5", "--max-word", "6", "--verbose"],
        0, Sha256("987371f83f597755d7b39df666f1f0a71784f8cd8a6e0a3ebe0b2cf5d5acf2fa"), "",
    ),
    # 1,441 lines each; recorded at cd8168c, when every word ran its own phi and
    # Lindström walks
    "verify-theorem2.json": (
        ["verify", "theorem2", "--max-size", "7", "--max-word", "8", "--verbose"],
        0, Sha256("d95248678e1af20abbd4e8373f7e1b1c00470763c189869f2f0f55cbb7b18537"), "",
    ),
    "verify-theorem2.txt": (
        ["--format", "text", "verify", "theorem2", "--max-size", "7", "--max-word", "8",
         "--verbose"],
        0, Sha256("f8d7949b9c1cbe9c2dba0006be7ecface5bb5e06d1e3d14919734d3b473fc946"), "",
    ),
    # 2,641 lines each; recorded at cd8168c, when every word ran its own Lindström walk
    "verify-lindstrom.json": (
        ["verify", "lindstrom", "--max-size", "5", "--max-word", "6", "--verbose"],
        0, Sha256("8f75ed8d3e09069cc8462ebb72d2a4f8482b86703ef5160cc3a265167aa13822"), "",
    ),
    "verify-lindstrom.txt": (
        ["--format", "text", "verify", "lindstrom", "--max-size", "5", "--max-word", "6",
         "--verbose"],
        0, Sha256("9859eb18b8e24e94d59edcbb9a88bf1b8395427804c42f05d9d0f781ff8b5525"), "",
    ),
    # 961 lines each; recorded at 01a7f44, when every line built its own JSON
    # encoder and every case formatted its own fields
    "verify-pieri.json": (
        ["verify", "pieri", "--max-size", "6", "--max-word", "8", "--verbose"],
        0, Sha256("3b7167e0fd7fad99c657f92d600a96de6dcb2e3cbc4a9403c229287e9143bfa2"), "",
    ),
    "verify-pieri.txt": (
        ["--format", "text", "verify", "pieri", "--max-size", "6", "--max-word", "8", "--verbose"],
        0, Sha256("9ae8196d1d004ae38d1da4e3db4645c96fc4d0f42a436541fdfcba206b383af5"), "",
    ),
    # 225 lines each; recorded at 3da8a06, when ShapeModule was a frozen dataclass
    # and conjecture1_prediction lived in shapemod; the four mismatches are
    # findings, so the sweep exits 0 with a warning on stderr
    "verify-conjecture1.json": (
        ["verify", "conjecture1", "--max-size", "6", "--q", "2", "--q", "3", "--verbose"],
        0, Sha256("24ae002a3751d49748cd59dd2022a1e578cc76773bc7ef8f6b2a30d244347a68"),
        CONJECTURE1_WARNING,
    ),
    "verify-conjecture1.txt": (
        ["--format", "text", "verify", "conjecture1", "--max-size", "6", "--q", "2", "--q", "3",
         "--verbose"],
        0, Sha256("e83fe6782c8c2ba6b861a6dd60f18d747c93b664c7305c0b0660016b14c0ca22"),
        CONJECTURE1_WARNING,
    ),
    "matrix-det1": (
        ["minor", "--matrix", "det1.json", "--mu", "", "--lambda", "2,1", "--parity", "1"],
        0, '{"value":"3/8"}\n', "",
    ),
    "matrix-det2": (
        ["minor", "--matrix", "det2.json", "--mu", "", "--lambda", "1", "--parity", "0"],
        1, '{"error":{"message":"determinant is not 1: 2","type":"DomainError"}}\n', "",
    ),
    "matrix-diag": (
        ["minor", "--matrix", "diag.json", "--mu", "", "--lambda", "1,1", "--parity", "0"],
        0, '{"value":"1"}\n', "",
    ),
    "matrix-lower-11": (
        ["minor", "--matrix", "lower.json", "--mu", "", "--lambda", "1,1", "--parity", "1"],
        0, '{"value":"-2"}\n', "",
    ),
    "matrix-lower-111": (
        ["minor", "--matrix", "lower.json", "--mu", "", "--lambda", "1,1,1", "--parity", "0"],
        0, '{"value":"0"}\n', "",
    ),
}


@pytest.mark.parametrize("argv, code, expected, err", OUTPUTS.values(), ids=OUTPUTS.keys())
def test_text_output_bytes(tmp_path, monkeypatch, capsys, argv, code, expected, err):
    monkeypatch.setenv("COLUMNS", "80")
    for name in MATRIX_FILES.keys() & set(argv):
        (tmp_path / name).write_text(MATRIX_FILES[name])
    argv = [str(tmp_path / a) if a in MATRIX_FILES else a for a in argv]
    try:
        status = main(argv)
    except SystemExit as exc:  # --help
        status = exc.code
    out, got_err = capsys.readouterr()
    if isinstance(expected, Sha256):
        out = hashlib.sha256(out.encode()).hexdigest()
    assert (status, out, got_err) == (code, expected, err)


def test_text_output_to_a_file(tmp_path, capsys):
    target = tmp_path / "phi.txt"
    argv = ["phi", "--shape", "2,1", "--parity", "1", "--word", "1,0,1,0"]
    assert run_cli(capsys, "--format", "text", "--out", str(target), *argv) == (0, "", "")
    assert target.read_bytes() == GOLDEN.encode() + b"\n"
