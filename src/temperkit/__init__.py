"""Exact decision engine for the temperedness inequality
rho_h <= rho_{g/h} + 2 rho_V on a maximal split torus.

All criterion arithmetic is exact, on integer rows; rationals enter only
through JSON and matrix-mode extraction.  Every verdict carries either a
ray certificate of global nonnegativity or a rational witness direction
where the deficit is negative.
"""

from .check import (Verdict, ScanPoint, ScanReport, check, scan_family,
                    render_scan_table, tensor_product_check,
                    TABLE1_PREDICATES, TABLE2_PREDICATES)
from .errors import (TemperkitError, ArityError, ConstraintViolationError,
                     SpaceMismatchError, BracketClosureError,
                     DecompositionError, NonSplitError, SchemaError,
                     BasisError, ContainmentError, SymmetryError)
from .generators import (BlockPattern, MatrixPairInput, TABLE1_PATTERNS,
                         TABLE2_PATTERNS, build_sl_block, build_product_in_sl,
                         build_product_in_sp, build_so_pair,
                         build_classical_in_sl, realify, extract_weights,
                         example_sp21_input)
from .model import (LinearForm, TorusSpace, WeightModule, PLFunction,
                    SymmetryBlock, PairSpec, evaluate_pl, rho_plus,
                    rho_function, deficit)
from .verify import (NonnegCertificate, Witness, distinct_hyperplanes,
                     is_nonnegative, grid_oracle)

__version__ = "0.1.0"

__all__ = [
    "Verdict", "ScanPoint", "ScanReport", "check",
    "scan_family", "render_scan_table", "tensor_product_check",
    "TABLE1_PREDICATES", "TABLE2_PREDICATES",
    "TemperkitError", "ArityError", "ConstraintViolationError",
    "SpaceMismatchError", "BracketClosureError", "DecompositionError",
    "NonSplitError", "SchemaError", "BasisError", "ContainmentError",
    "SymmetryError",
    "BlockPattern", "MatrixPairInput", "TABLE1_PATTERNS", "TABLE2_PATTERNS",
    "build_sl_block", "build_product_in_sl", "build_product_in_sp",
    "build_so_pair", "build_classical_in_sl", "realify", "extract_weights",
    "example_sp21_input",
    "LinearForm", "TorusSpace", "WeightModule", "PLFunction", "SymmetryBlock",
    "PairSpec", "evaluate_pl", "rho_plus", "rho_function", "deficit",
    "NonnegCertificate", "Witness", "distinct_hyperplanes",
    "is_nonnegative", "grid_oracle",
    "__version__",
]
