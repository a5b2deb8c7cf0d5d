"""Exact decision engine for the temperedness inequality
rho_h <= rho_{g/h} + 2 rho_V on a maximal split torus.

All criterion arithmetic is exact, on integer rows; rationals enter only
through JSON and matrix-mode extraction.  Every verdict carries either a
ray certificate of global nonnegativity or a rational witness direction
where the deficit is negative.
"""

from .check import Verdict, check
from .errors import (TemperkitError, ArityError, ConstraintViolationError,
                     SpaceMismatchError, BracketClosureError,
                     DecompositionError, NonSplitError, SchemaError,
                     BasisError, ContainmentError)
from .generators import (BlockPattern, TABLE1_PATTERNS, TABLE2_PATTERNS,
                         build_sl_block, build_product_in_sl, realify)
from .model import (TorusSpace, WeightModule, PLFunction, PairSpec,
                    evaluate_pl, rho_function, deficit)
from .verify import NonnegCertificate, Witness, is_nonnegative

__version__ = "0.1.0"

__all__ = [
    "Verdict", "ScanPoint", "ScanReport", "check",
    "scan_family", "render_scan_table", "tensor_product_spec",
    "TABLE1_PREDICATES", "TABLE2_PREDICATES",
    "TemperkitError", "ArityError", "ConstraintViolationError",
    "SpaceMismatchError", "BracketClosureError", "DecompositionError",
    "NonSplitError", "SchemaError", "BasisError", "ContainmentError",
    "BlockPattern", "MatrixPairInput", "TABLE1_PATTERNS", "TABLE2_PATTERNS",
    "build_sl_block", "build_product_in_sl", "build_product_in_sp",
    "build_so_pair", "build_classical_in_sl", "realify", "extract_weights",
    "example_sp21_input",
    "TorusSpace", "WeightModule", "PLFunction", "PairSpec",
    "evaluate_pl", "rho_function", "deficit",
    "NonnegCertificate", "Witness", "is_nonnegative",
    "__version__",
]


def __getattr__(name):
    # matrix mode and the family questions load on first use, so importing
    # the package compiles neither
    if name in ("MatrixPairInput", "extract_weights", "example_sp21_input"):
        from . import matrices as module
    elif name in ("ScanPoint", "ScanReport", "scan_family", "render_scan_table",
                  "tensor_product_spec", "TABLE1_PREDICATES", "TABLE2_PREDICATES",
                  "build_product_in_sp", "build_so_pair", "build_classical_in_sl"):
        from . import families as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


def __dir__():
    # the names __getattr__ serves are public too
    return sorted({*globals(), *__all__})
