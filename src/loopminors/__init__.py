"""Exact combinatorics of tableaux, chip-diagram paths, and Toeplitz minors.

The same polynomial is computable through three independent routes (chess
tableau enumeration, non-crossing path families, and determinants of
block-Toeplitz windows), and the verify module cross-checks them on demand.
All arithmetic is exact (integers, rationals, integer polynomials).
"""

from .errors import DomainError, InvalidWindowError, LoopMinorsError, ResourceLimitError
from .loop import LaurentPoly, LoopElement, generator, identity_loop, is_unipotent_plus, word_to_loop
from .multipoly import MultiPoly
from .networks import (
    PathFamily,
    enumerate_families,
    family_weight,
    lindstrom_minor,
    path_to_tableau,
    render_family,
)
from .partitions import (
    contains,
    format_partition,
    index_set,
    max_index,
    parse_partition,
    partitions_of,
    subpartitions,
)
from .phi import euler_char, phi_polynomial
from .shapemod import (
    ShapeModule,
    build_module,
    conjecture1_prediction,
    count_flags_fq,
    delta_partition_type,
)
from .tableaux import (
    ChessTableau,
    StandardTableau,
    box_parity,
    enumerate_by_parity,
    enumerate_chess,
    enumerate_standard,
    expand_word,
    ground_state,
    parity_string,
    sigma,
)
from .toeplitz import entry_E, minor, pieri_determinant, toeplitz_entry
from .verify import VerificationReport, check

__version__ = "0.1.0"

__all__ = [
    "ChessTableau",
    "DomainError",
    "InvalidWindowError",
    "LaurentPoly",
    "LoopElement",
    "LoopMinorsError",
    "MultiPoly",
    "PathFamily",
    "ResourceLimitError",
    "ShapeModule",
    "StandardTableau",
    "VerificationReport",
    "box_parity",
    "build_module",
    "check",
    "conjecture1_prediction",
    "contains",
    "count_flags_fq",
    "delta_partition_type",
    "entry_E",
    "enumerate_by_parity",
    "enumerate_chess",
    "enumerate_families",
    "enumerate_standard",
    "euler_char",
    "expand_word",
    "family_weight",
    "format_partition",
    "generator",
    "ground_state",
    "identity_loop",
    "index_set",
    "is_unipotent_plus",
    "lindstrom_minor",
    "max_index",
    "minor",
    "parity_string",
    "parse_partition",
    "partitions_of",
    "path_to_tableau",
    "phi_polynomial",
    "pieri_determinant",
    "render_family",
    "sigma",
    "subpartitions",
    "toeplitz_entry",
    "word_to_loop",
]
