"""Verdict assembly; the evidence records live in temperkit.model and the
input ceiling in temperkit.serialize, so recheck loads no decision module.

The family scans, their predicates and the tensor-product dictionary live
in temperkit.families, which no verdict loads; __getattr__ below serves
their public names from here too, loading that module on the first one.
"""

from __future__ import annotations

from .model import NonnegCertificate, PairSpec, Record, deficit, evaluate_pl
from .verify import is_nonnegative


class Verdict(Record):
    """A decision and its evidence: the pair is tempered exactly when the
    evidence is a NonnegCertificate rather than a Witness."""

    __slots__ = ("evidence", "deficit_summary")
    _fields = ("tempered",) + __slots__

    def __init__(self, evidence, deficit_summary: dict):
        self._set(evidence, deficit_summary)

    @property
    def tempered(self) -> bool:
        return isinstance(self.evidence, NonnegCertificate)


def check(spec: PairSpec, use_symmetry: bool = True) -> Verdict:
    """Decide the temperedness inequality for a pair, with exact evidence.

    The deficit is invariant under the restricted Weyl group of h, so the
    enumeration covers one chamber of a finite group of reflections in
    roots of h that it is verified invariant under
    (verify._chamber_walls, which derives the chamber in free-column
    coordinates from one solve for every coroot); that changes
    certificate size, never the verdict.  With use_symmetry false it
    enumerates the whole slice instead, as a reference.
    """
    f = deficit(spec)
    evidence = is_nonnegative(f, spec if use_symmetry else None)
    summary = {"hyperplanes": len(f.terms),
               "torus_dim": f.space.dim}
    if isinstance(evidence, NonnegCertificate):
        summary["chambers"] = evidence.chamber_count
        summary["rays"] = len(evidence.rays)
    else:
        # replay the witness through plain evaluation, independent of the
        # enumeration machinery
        value = evaluate_pl(f, evidence.direction)
        if not value == evidence.value < 0:
            raise RuntimeError(f"witness replays to {value}, "
                               f"recorded {evidence.value}")
    return Verdict(evidence, summary)


# the public names of temperkit.families that `from temperkit.check import ...`
# and sys.modules["temperkit.check"] give
_FAMILY_NAMES = frozenset((
    "ScanPoint", "ScanReport", "TABLE1_PREDICATES", "TABLE2_PREDICATES",
    "sp_product_tempered", "FAMILIES", "scan_family", "render_scan_table",
    "TENSOR_PRODUCTS", "tensor_question", "tensor_product_spec"))


def __getattr__(name):
    # any other name fails without an import: `from .check import ...`
    # probes __path__, which must not load families
    if name not in _FAMILY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import families
    return getattr(families, name)
