"""Every library name the benchmark in ``perfbench/`` reaches still resolves.

The benchmark finds these names at run time, by module and dotted name, and one it cannot
find reads as zero time, not as a failure.  The list is kept here, apart from
``perfbench/``, so that deleting or renaming one of them fails the tests.
"""

import importlib

import pytest

# the span targets of perfbench/layertrace.py, by module
SPANS = {
    "partitions": ("partitions_up_to", "subpartitions", "index_set"),
    "tableaux": ("enumerate_standard", "enumerate_by_parity", "enumerate_chess", "ground_state"),
    "phi": ("phi_polynomial",),
    "networks": ("enumerate_families", "lindstrom_minor", "family_weight"),
    "multipoly": ("MultiPoly.__mul__", "MultiPoly.__rmul__", "MultiPoly.__add__",
                  "MultiPoly.__radd__", "MultiPoly.text"),
    "loop": ("word_to_loop", "LoopElement.__init__"),
    "toeplitz": ("minor", "pieri_determinant"),
    "determinants": ("det_cofactor", "det_bareiss"),
    "shapemod": ("build_module", "count_flags_fq"),
    "gf": ("projective_vectors", "left_kernel_basis"),
    "verify": ("realizable_parities",),
    "cli": ("main",),
}
# the function layertrace counts calls of, and the verify grids the sweep worker wraps
COUNTED = {"partitions": ("check_partition",)}
GRIDS = {"verify": tuple(f"sweep_{target}" for target in
                         ("theorem2", "prop1", "pieri", "lindstrom", "conjecture1"))}
# what perfbench/worker.py calls through ``import loopminors`` on the large and fq workloads
LIBRARY = {"": ("phi_polynomial", "MultiPoly.text", "lindstrom_minor", "word_to_loop", "minor",
                "pieri_determinant", "identity_loop", "generator", "MultiPoly.evaluate",
                "build_module", "count_flags_fq")}

NAMES = [(module, dotted) for table in (SPANS, COUNTED, GRIDS, LIBRARY)
         for module, names in table.items() for dotted in names]


@pytest.mark.parametrize("module, dotted", NAMES, ids=[f"{m}:{d}" for m, d in NAMES])
def test_every_name_the_benchmark_reaches_resolves(module, dotted):
    value = importlib.import_module(f"loopminors.{module}" if module else "loopminors")
    for name in dotted.split("."):
        value = getattr(value, name)
    assert callable(value)
