"""Verdict assembly, and the ceiling on the size of a question read from input.

The family scans, their closed-form predicates and the tensor-product
dictionary live in temperkit.families, which no verdict loads; the
module-level __getattr__ serves their public names from here as well, and
loads that module on the first such name.
"""

from __future__ import annotations

from .model import PairSpec, Record, deficit, evaluate_pl
from .verify import NonnegCertificate, is_nonnegative


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


# the largest matrix size n (of sl(n), sp(n), so(p, q) or the sl into which a
# classical algebra embeds) that a question read from input may name, and so
# the largest integer parameter; check on H10(6,5,6), at n = 17, took 265 s CPU
# and 1.76 GiB peak RSS (ROADMAP.md, 2 cores, Python 3.11.7)
QUESTION_CEILING = 64


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
