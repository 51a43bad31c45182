"""The routes stay independent: no route imports another route's code.

The tableau route is ``tableaux`` and ``phi``, the path route ``networks``,
the matrix route ``loop``, ``toeplitz``, ``determinants`` and the ring
``multipoly``, and the module route ``shapemod`` and its field ``gf``, which
count flags over F_q.  Inputs are checked in ``partitions``, which every
route may import.
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
