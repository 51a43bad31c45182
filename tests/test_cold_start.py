"""Cold start: ``import loopminors`` and a CLI call load only what their work uses.

The package exports its names from one table and imports a module on first
use of one of its names; each CLI handler imports its own route.  The import
checks run in a fresh interpreter, so an eager import added to ``__init__`` or
to ``cli``'s module level fails here.
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


@pytest.fixture(scope="module")
def probe() -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(GOLDEN_ARGV)],
        capture_output=True, text=True, env=env, check=True,
    )
    golden, report = proc.stdout.splitlines()
    assert golden == '{"polynomial":"a1*a2^2 + 2*a1*a2*a4 + a1*a4^2 + a3*a4^2"}'
    return json.loads(report)


def test_import_loads_no_module_of_the_package(probe):
    assert probe["import"] == []


def test_the_golden_call_loads_only_the_matrix_route(probe):
    route = ("cli", "determinants", "errors", "loop", "multipoly", "partitions", "toeplitz")
    assert probe["golden"] == [f"loopminors.{name}" for name in route]
    assert not probe["dataclasses"]


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
