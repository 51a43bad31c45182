"""Exact combinatorics of tableaux, chip-diagram paths, and Toeplitz minors.

The same polynomial is computable through three independent routes (chess
tableau enumeration, non-crossing path families, and determinants of
block-Toeplitz windows), and the verify module cross-checks them on demand.
All arithmetic is exact (integers, rationals, integer polynomials).

``import loopminors`` loads no module of the package: the first use of an
exported name imports the one module that defines it (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# Each module and the names it exports.
_EXPORTS = {
    "errors": ("DomainError", "InvalidWindowError", "LoopMinorsError", "ResourceLimitError"),
    "loop": ("LaurentPoly", "LoopElement", "generator", "identity_loop", "is_unipotent_plus",
             "word_to_loop"),
    "multipoly": ("MultiPoly",),
    "networks": ("PathFamily", "enumerate_families", "family_weight", "lindstrom_minor",
                 "render_family"),
    "partitions": ("contains", "format_partition", "index_set", "max_index", "parse_partition",
                   "partitions_of", "subpartitions"),
    "phi": ("euler_char", "phi_polynomial"),
    "shapemod": ("ShapeModule", "build_module", "count_flags_fq"),
    "tableaux": ("ChessTableau", "StandardTableau", "conjecture1_prediction", "enumerate_by_parity",
                 "enumerate_chess", "enumerate_standard", "expand_word", "ground_state",
                 "parity_string"),
    "toeplitz": ("entry_E", "minor", "pieri_determinant", "toeplitz_entry"),
    "verify": ("VerificationReport", "check"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
