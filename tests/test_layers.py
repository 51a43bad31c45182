"""The routes stay independent: no route imports another route's code.

The tableau route is ``tableaux`` and ``phi``, the path route ``networks``,
the matrix route ``loop``, ``toeplitz``, ``determinants`` and the ring
``multipoly``, and the module route ``shapemod`` and its field ``gf``, which
count flags over F_q.  Inputs are checked in ``partitions``, which every
route may import, and whose ``Value._made`` is the one constructor that skips
the checks: no other module makes an object through ``__new__``.  It also owns
the one sequence rule, a tuple or a list: no other module tests for either type.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "loopminors"

MATRIX_ROUTE = ("loop", "toeplitz", "determinants", "multipoly")
MODULE_ROUTE = ("shapemod", "gf")
FOREIGN = {
    **{module: ("tableaux", "phi", "networks") for module in MATRIX_ROUTE},
    **{module: ("tableaux", "phi", "networks", *MATRIX_ROUTE) for module in MODULE_ROUTE},
    "networks": ("tableaux", "phi", "loop", "toeplitz", "determinants"),
    "tableaux": ("networks", "loop", "toeplitz", "determinants"),
    "phi": ("networks", "loop", "toeplitz", "determinants"),
}
ALLOWED: dict[tuple[str, str], set[str]] = {}


def imported_names(module: str) -> dict[str, set[str]]:
    """Package module -> the names ``module`` imports from it ("*" for the module itself)."""
    found: dict[str, set[str]] = {}
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level != 1 and (node.module or "").split(".")[0] != "loopminors":
                continue
            source = (node.module or "").removeprefix("loopminors").lstrip(".")
            for alias in node.names:
                if source:
                    found.setdefault(source, set()).add(alias.name)
                else:  # from . import x
                    found.setdefault(alias.name, set()).add("*")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("loopminors."):
                    found.setdefault(alias.name.split(".")[1], set()).add("*")
    return found


def test_imports_are_read():
    assert imported_names("phi")["multipoly"] == {"MultiPoly"}
    assert imported_names("shapemod")["gf"] == {"*"}
    assert "check_partition" in imported_names("toeplitz")["partitions"]


@pytest.mark.parametrize("module", sorted(FOREIGN))
def test_a_route_imports_no_other_route(module):
    imports = imported_names(module)
    for other in FOREIGN[module]:
        assert imports.get(other, set()) <= ALLOWED.get((module, other), set()), other


def names_used(module: str) -> set[str]:
    """Every name, attribute, function and class name written in ``module``."""
    names = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def test_names_are_read():
    assert {"Value", "_made", "__new__"} <= names_used("partitions")
    assert "_made" in names_used("loop")


@pytest.mark.parametrize("module", sorted(path.stem for path in SRC.glob("*.py")))
def test_value_made_is_the_one_trusted_constructor(module):
    names = names_used(module)
    assert not names & {"_from_packed", "_built"}
    if module != "partitions":
        assert "__new__" not in names


def calls_of(module: str, name: str) -> list[ast.Call]:
    """Each call of the bare name ``name`` in ``module``."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name]


def sequence_tests(module: str) -> list[str]:
    """The source of each ``isinstance`` call of ``module`` that tests for a list or a tuple."""
    return [ast.unparse(call) for call in calls_of(module, "isinstance")
            if any(isinstance(node, ast.Name) and node.id in ("list", "tuple")
                   for node in ast.walk(call.args[1]))]


def test_the_scan_sees_the_rule_and_the_hash_call_of_partitions():
    # the owner's own calls, so an empty scan of another module means no call, not a blind scan
    assert sequence_tests("partitions") == ["isinstance(values, (tuple, list))"]
    assert len(calls_of("partitions", "hash")) == 1


@pytest.mark.parametrize("module", sorted(path.stem for path in SRC.glob("*.py")))
def test_partitions_owns_the_sequence_rule(module):
    # a second rule would read some sequence its own way; verify reads its fields through readers
    if module != "partitions":
        assert not sequence_tests(module)
    if module == "verify":
        assert not calls_of(module, "hash")
