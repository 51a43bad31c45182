import argparse
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
    # text once in either format; phi's term list only for JSON, where it is printed
    calls = []
    for name in ("text", "json_terms"):
        real = getattr(MultiPoly, name)
        monkeypatch.setattr(MultiPoly, name, lambda self, n=name, f=real: calls.append(n) or f(self))
    code, out, _ = run_cli(capsys, "--format", fmt, *command)
    assert code == 0 and GOLDEN in out
    terms = fmt == "json" and command[0] == "phi"
    assert calls == ["text"] + ["json_terms"] * terms


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
    ],
    ids=["missing-file", "malformed-json", "bad-rational", "zero-denominator", "not-an-object",
         "entry-not-an-object"],
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


# The --format text bytes and exit code of every subcommand; an error stays
# one JSON line.
TEXT_OUTPUTS = {
    "tableaux": (
        ["tableaux", "--shape", "3,1"],
        0,
        "[[1, 2, 3], [4]]\n[[1, 2, 4], [3]]\n[[1, 3, 4], [2]]\n",
    ),
    "tableaux-none": (
        ["tableaux", "--shape", "2,1", "--parity", "1", "--d", "1,1,1"],
        0,
        "(none)\n",
    ),
    "chess": (
        ["chess", "--shape", "2,1", "--parity", "1", "--max-label", "4"],
        0,
        "0,0,1,2: [[[3, 4], [4]]]\n"
        "1,0,0,2: [[[1, 4], [4]]]\n"
        "1,1,0,1: [[[1, 2], [4]], [[1, 4], [2]]]\n"
        "1,2,0,0: [[[1, 2], [2]]]\n",
    ),
    "phi": (["phi", "--shape", "2,1", "--parity", "1", "--word", "1,0,1,0"], 0, GOLDEN + "\n"),
    "minor": (["minor", "--word", "1,0,1,0", "--lambda", "2,1", "--parity", "1"], 0, GOLDEN + "\n"),
    "pieri": (["pieri", "--word", "1,0,1", "--lambda", "2,1", "--parity", "0"], 0, "a2*a3^2\n"),
    "paths": (
        ["paths", "--word", "1,0", "--mu", "1", "--lambda", "2,1", "--parity", "1"],
        0,
        "[[2, 2, 3], [0, 0, 1]]\n",
    ),
    "paths-render": (
        ["paths", "--word", "1,0,1", "--lambda", "1,1", "--parity", "0", "--render"],
        0,
        "weight a2*a3\n"
        "   1 o   o   *---*\n"
        "           /\n"
        "   0 *---*   o   *\n"
        "               /\n"
        "  -1 *---*---*   o\n"
        "sum a2*a3\n",
    ),
    "module": (
        ["module", "--lambda", "3,1", "--mu", "1", "--parity", "1"],
        0,
        "dim 3\n[0, 2] --beta--> [0, 1]\n",
    ),
    "points": (["points", "--lambda", "2,1", "--parity", "1", "--d", "1,0,0", "--q", "2"], 0, "3\n"),
    "points-canonical": (
        ["points", "--lambda", "2,1,0", "--mu", "0", "--parity", "1", "--d", "1,0,0", "--q", "2"],
        0,
        "3\n",
    ),
    "verify": (
        ["verify", "pieri", "--max-size", "1", "--max-word", "1", "--verbose"],
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
    ),
    "verify-conjecture1": (
        ["verify", "conjecture1", "--max-size", "6", "--q", "2", "--q", "3"],
        0,
        'mismatch {"d":"0,1,0,1,0,0","lambda":"3,2,1","parity":0,"q":2}\n'
        'mismatch {"d":"0,1,0,1,0,0","lambda":"3,2,1","parity":0,"q":3}\n'
        'mismatch {"d":"1,0,1,0,1,1","lambda":"3,2,1","parity":1,"q":2}\n'
        'mismatch {"d":"1,0,1,0,1,1","lambda":"3,2,1","parity":1,"q":3}\n'
        "cases 224, failures 4\n",
    ),
    "verify-lindstrom": (
        ["verify", "lindstrom", "--max-size", "1", "--max-word", "1", "--verbose"],
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
    ),
    "error": (
        ["module", "--lambda", "3", "--mu", "5", "--parity", "0"],
        1,
        '{"error":{"message":"(5,) is not contained in (3,)","type":"DomainError"}}\n',
    ),
    "error-d-without-parity": (
        ["tableaux", "--shape", "2,1", "--d", "0,1,1"],
        1,
        '{"error":{"message":"--d requires --parity","type":"DomainError"}}\n',
    ),
    # 6 is no field size, so no larger guard could count it; 7 is over the guard
    "error-q-not-a-field": (
        ["points", "--lambda", "2,1", "--mu", "", "--parity", "0", "--d", "0,1,0", "--q", "6"],
        1,
        '{"error":{"message":"field size 6 is not a prime power","type":"DomainError"}}\n',
    ),
    "error-q-over-budget": (
        ["points", "--lambda", "2,1", "--mu", "", "--parity", "0", "--d", "0,1,0", "--q", "7"],
        1,
        '{"error":{"message":"brute-force counting is guarded to q <= 5 (got 7)",'
        '"type":"ResourceLimitError"}}\n',
    ),
}


# The rows that write to stderr; every other row writes nothing there.
TEXT_STDERR = {"verify-conjecture1": "warning: 4 conjecture mismatch(es) reported\n"}


@pytest.mark.parametrize(
    "argv, code, expected, err",
    [(*row, TEXT_STDERR.get(name, "")) for name, row in TEXT_OUTPUTS.items()],
    ids=TEXT_OUTPUTS.keys(),
)
def test_text_output_bytes(capsys, argv, code, expected, err):
    assert run_cli(capsys, "--format", "text", *argv) == (code, expected, err)


def test_text_output_to_a_file(tmp_path, capsys):
    target = tmp_path / "phi.txt"
    argv = ["phi", "--shape", "2,1", "--parity", "1", "--word", "1,0,1,0"]
    assert run_cli(capsys, "--format", "text", "--out", str(target), *argv) == (0, "", "")
    assert target.read_bytes() == GOLDEN.encode() + b"\n"
