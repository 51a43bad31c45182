"""Cold start: ``import loopminors`` and a CLI call load only what their work uses.

The package exports its names from one table and imports a module on first
use of one of its names; each CLI handler imports its own route, and each
``verify`` builder the route it runs.  The import
checks run in a fresh interpreter, so an eager import added to ``__init__``, to
``cli``'s module level or to a module of the flag-count route fails here.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import loopminors

SRC = Path(__file__).resolve().parents[1] / "src"

GOLDEN_ARGV = ["minor", "--word", "1,0,1,0", "--mu", "", "--lambda", "2,1", "--parity", "1"]

PROBE = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m.startswith("loopminors."))
import loopminors
after_import = loaded()
import loopminors.cli
loopminors.cli.main(json.loads(sys.argv[1]))
print(json.dumps({"import": after_import, "golden": loaded(),
                  "dataclasses": "dataclasses" in sys.modules}))
"""

# the flag-count route: ``import loopminors.shapemod`` with no argument, else a CLI call
FLAG_PROBE = """
import json, sys
if len(sys.argv) > 1:
    import loopminors.cli
    loopminors.cli.main(sys.argv[1:])
else:
    import loopminors.shapemod
print(json.dumps({"loaded": sorted(m for m in sys.modules if m.startswith("loopminors.")),
                  "dataclasses": "dataclasses" in sys.modules}))
"""
MODULE_ROUTE = ("errors", "gf", "partitions", "shapemod")
POINTS_ARGV = ["points", "--lambda", "4,4,2,1", "--mu", "3,1", "--parity", "0",
               "--d", "0,0,1,1,1,1,0", "--q", "5"]
MODULE_ARGV = ["module", "--lambda", "4,3,2,2,1", "--mu", "2,1", "--parity", "0"]


# a verify call through the CLI, or an import of the module named
ROUTE_PROBE = """
import importlib, json, sys
if sys.argv[1] == "verify":
    import loopminors.cli
    loopminors.cli.main(sys.argv[1:])
else:
    importlib.import_module(sys.argv[1])
print(json.dumps("dataclasses" in sys.modules))
"""
VERIFY_ARGV = ["verify", "theorem2", "--max-size", "2", "--max-word", "2", "--verbose"]


def run_fresh(probe: str, *args: str) -> list[str]:
    """The stdout lines of ``probe`` run in a fresh interpreter that imports from ``src``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", probe, *args], capture_output=True, text=True, env=env, check=True
    )
    return proc.stdout.splitlines()


@pytest.fixture(scope="module")
def probe() -> dict:
    golden, report = run_fresh(PROBE, json.dumps(GOLDEN_ARGV))
    assert golden == '{"polynomial":"a1*a2^2 + 2*a1*a2*a4 + a1*a4^2 + a3*a4^2"}'
    return json.loads(report)


def test_import_loads_no_module_of_the_package(probe):
    assert probe["import"] == []


def test_the_golden_call_loads_only_the_matrix_route(probe):
    route = ("cli", "determinants", "errors", "loop", "multipoly", "partitions", "toeplitz")
    assert probe["golden"] == [f"loopminors.{name}" for name in route]
    assert not probe["dataclasses"]


def test_the_module_route_imports_only_its_own_code():
    (report,) = run_fresh(FLAG_PROBE)
    assert json.loads(report) == {
        "loaded": [f"loopminors.{name}" for name in MODULE_ROUTE], "dataclasses": False
    }


@pytest.mark.parametrize(
    "argv, answer",
    [(POINTS_ARGV, '{"count":174096,"d":[0,0,1,1,1,1,0],"lambda":"4,4,2,1","mu":"3,1","parity":0,"q":5}'),
     (MODULE_ARGV, '{"arrows":[[[0,3],"beta",[0,2]],')],
    ids=["points", "module"],
)
def test_a_flag_count_call_loads_only_the_module_route_and_cli(argv, answer):
    output, report = run_fresh(FLAG_PROBE, *argv)
    assert output.startswith(answer)
    assert json.loads(report) == {
        "loaded": sorted(f"loopminors.{name}" for name in (*MODULE_ROUTE, "cli")),
        "dataclasses": False,
    }


@pytest.mark.parametrize(
    "argv, lines",
    [(VERIFY_ARGV, 33), (["loopminors.networks"], 0), (["loopminors.tableaux"], 0)],
    ids=["verify", "networks", "tableaux"],
)
def test_no_route_or_command_loads_dataclasses(argv, lines):
    *output, report = run_fresh(ROUTE_PROBE, *argv)
    assert len(output) == lines and json.loads(report) is False
    if lines:
        assert output[-1] == '{"cases":32,"failures":0}'


# a verify call through the CLI, then the package's modules it loaded
VERIFY_PROBE = """
import json, sys
import loopminors.cli
loopminors.cli.main(sys.argv[1:])
print(json.dumps(sorted(m for m in sys.modules if m.startswith("loopminors."))))
"""
# the modules each target's verify call loads: its routes and the ring beneath them
VERIFY_LOADS = {
    "theorem2": ("cli", "determinants", "errors", "loop", "multipoly", "networks", "partitions",
                 "phi", "toeplitz", "verify"),
    "prop1": ("cli", "errors", "multipoly", "partitions", "phi", "tableaux", "verify"),
    "pieri": ("cli", "determinants", "errors", "loop", "multipoly", "partitions", "toeplitz",
              "verify"),
    "lindstrom": ("cli", "determinants", "errors", "loop", "multipoly", "networks", "partitions",
                  "toeplitz", "verify"),
    "conjecture1": ("cli", "errors", "gf", "partitions", "shapemod", "tableaux", "verify"),
}


@pytest.mark.parametrize("target", VERIFY_LOADS)
def test_a_verify_call_loads_only_its_targets_routes(target):
    bounds = ["--max-size", "2"] + (["--max-word", "2"] if target != "conjecture1" else [])
    summary, report = run_fresh(VERIFY_PROBE, "verify", target, *bounds)
    assert json.loads(summary)["failures"] == 0
    assert json.loads(report) == [f"loopminors.{name}" for name in VERIFY_LOADS[target]]


@pytest.mark.parametrize("name", loopminors.__all__)
def test_each_export_is_its_defining_modules_object(name):
    value = getattr(loopminors, name)
    assert value.__module__.startswith("loopminors.")
    assert getattr(importlib.import_module(value.__module__), name) is value


def test_dir_lists_every_export_and_unknown_names_raise():
    assert set(loopminors.__all__) <= set(dir(loopminors))
    with pytest.raises(AttributeError, match="'loopminors' has no attribute 'nope'"):
        getattr(loopminors, "nope")


def test_star_import_binds_exactly_the_exports():
    namespace: dict = {}
    exec("from loopminors import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == loopminors.__all__
