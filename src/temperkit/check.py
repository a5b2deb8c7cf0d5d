"""Verdict assembly, family scans, and the tensor-product dictionary."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import SchemaError
from .generators import (TABLE1_PATTERNS, TABLE2_PATTERNS, build_classical_in_sl,
                         build_product_in_sl, build_product_in_sp, build_so_pair,
                         build_sl_block, realify)
from .model import PairSpec, deficit, evaluate_pl
from .verify import NonnegCertificate, Witness, is_nonnegative


@dataclass(frozen=True)
class Verdict:
    tempered: bool
    evidence: object                     # NonnegCertificate or Witness
    deficit_summary: dict
    spec_echo: dict

    def __post_init__(self):
        if self.tempered != isinstance(self.evidence, NonnegCertificate):
            raise ValueError("tempered must be True exactly when the evidence "
                             "is a NonnegCertificate")


def check(spec: PairSpec, use_symmetry: bool = True) -> Verdict:
    """Decide the temperedness inequality for a pair, with exact evidence.

    The symmetry group declared on the spec is verified at run time (a
    false declaration raises SymmetryError) and restricts the enumeration
    to one fundamental domain; it changes certificate size, never the
    verdict.  use_symmetry=False enumerates the whole slice instead, as a
    reference.
    """
    f = deficit(spec)
    symmetry = spec.symmetry if use_symmetry else ()
    evidence = is_nonnegative(f, symmetry=symmetry)
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
    return Verdict(tempered=isinstance(evidence, NonnegCertificate),
                   evidence=evidence,
                   deficit_summary=summary,
                   spec_echo=dict(spec.metadata))


# ---------------------------------------------------------------------------
# family scans

@dataclass(frozen=True)
class ScanPoint:
    params: tuple
    tempered: bool
    predicted: bool
    summary: dict


@dataclass(frozen=True)
class ScanReport:
    family: str
    ranges: dict
    points: tuple[ScanPoint, ...]
    mismatches: tuple[ScanPoint, ...]

    @property
    def clean(self) -> bool:
        return not self.mismatches


def _partitions(n: int, largest: Optional[int] = None):
    """Weakly decreasing partitions of n."""
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


TABLE1_PREDICATES = {
    "H1": lambda p, q: p <= q + 1,
    "H2": lambda p, q: p == 1,
    "H3": lambda p, q: p == 1 and q == 1,
    "H4": lambda p, q: p <= q + 1 and q <= p + 1,
}

TABLE2_PREDICATES = {
    "H1": lambda p, q, r: p <= q + 1,
    "H2": lambda p, q, r: q <= p + r + 1,
    "H3": lambda p, q, r: q <= r + 1,
    "H4": lambda p, q, r: p == 1 and q == 1 and r == 1,
    "H5": lambda p, q, r: p <= q + r + 1 and q <= p + r + 1,
    "H6": lambda p, q, r: p <= q + 1 and q <= p + r + 1,
    "H7": lambda p, q, r: p == 1 and q <= r + 1,
    "H8": lambda p, q, r: p <= q + 1 and r <= q + 1,
    "H9": lambda p, q, r: q <= r + 1 and r <= q + 1,
    "H10": lambda p, q, r: p <= q + r + 1 and q <= p + r + 1 and r <= p + q + 1,
    "H11": lambda p, q, r: p <= q + 1 and q <= p + r + 1 and r <= q + 1,
    "H12": lambda p, q, r: p == 1 and q <= r + 1 and r <= q + 1,
}


def _scan_table1(pmax: int = 6, qmax: int = 6, patterns: Sequence[str] = ()):
    names = list(patterns) or list(TABLE1_PATTERNS)
    for name in names:
        for p in range(1, pmax + 1):
            for q in range(1, qmax + 1):
                spec = build_sl_block(TABLE1_PATTERNS[name](p, q))
                yield (name, p, q), spec, TABLE1_PREDICATES[name](p, q)


def _scan_table2(max: int = 4, patterns: Sequence[str] = ()):
    names = list(patterns) or list(TABLE2_PATTERNS)
    for name in names:
        for p, q, r in itertools.product(range(1, max + 1), repeat=3):
            spec = build_sl_block(TABLE2_PATTERNS[name](p, q, r))
            yield (name, p, q, r), spec, TABLE2_PREDICATES[name](p, q, r)


def _scan_example52_sl(n: int = 8):
    for total in range(2, n + 1):
        for parts in _partitions(total):
            if len(parts) < 2:
                continue
            yield (parts,), build_product_in_sl(parts), 2 * parts[0] <= total + 1


def sp_product_tempered(parts: Sequence[int]) -> bool:
    """Closed form for sp(n_1) x ... x sp(n_r) inside sp(n), n = sum n_i:
    tempered exactly when r >= 3 and 2 max n_i <= n.

    The deficit is linear on each C_n Weyl chamber and invariant under sign
    changes and under permutations inside a block, so it is nonnegative
    exactly when it is nonnegative at the 0/1 rays.  At a ray with k_i ones
    in block i and k = sum k_i it equals

        F(k) = k(2n - k - 3) - 2 sum k_i (2 n_i - k_i - 1).

    Proven: with two parts (a, b) the all-ones ray gives
    F = -(a - b)^2 - (a + b) < 0, so no two-part product is tempered.
    Checked exhaustively: "min F >= 0" agrees with this rule on every
    partition with n <= 14.  Realification doubles every multiplicity and
    keeps the sign of the deficit, so the rule also covers the complex
    pairs sp(m, C) x sp(n, C) inside sp(m + n, C).
    """
    return len(parts) >= 3 and 2 * max(parts) <= sum(parts)


def _scan_example52_sp(n: int = 4):
    for total in range(2, n + 1):
        for parts in _partitions(total):
            if len(parts) < 2:
                continue
            yield (parts,), build_product_in_sp(parts), sp_product_tempered(parts)


def _scan_example52_so(total: int = 6):
    for p1, q1, p2, q2 in itertools.product(range(1, total + 1), repeat=4):
        if p1 + q1 + p2 + q2 > total:
            continue
        spec = build_so_pair(p1, q1, p2, q2)
        yield (p1, q1, p2, q2), spec, abs(p1 + q1 - p2 - q2) <= 2


def _scan_example51(total: int = 6, rank: int = 4):
    for p in range(1, total):
        for q in range(1, total - p + 1):
            yield ("so_in_sl", p, q), build_classical_in_sl("so", p, q), True
    for m in range(1, rank + 1):
        yield ("sp_in_sl", m), build_classical_in_sl("sp", m), False
    for m in range(1, rank + 1):
        for n in range(1, m + 1):
            yield (("sl_C", m, n), realify(build_product_in_sl((m, n))),
                   abs(m - n) <= 1)
            yield (("so_C", m, n),
                   realify(build_so_pair((m + 1) // 2, m // 2,
                                         (n + 1) // 2, n // 2)),
                   abs(m - n) <= 2)
            yield (("sp_C", m, n), realify(build_product_in_sp((m, n))),
                   sp_product_tempered((m, n)))


FAMILIES: dict[str, Callable] = {
    "table1": _scan_table1,
    "table2": _scan_table2,
    "example51": _scan_example51,
    "example52-sl": _scan_example52_sl,
    "example52-sp": _scan_example52_sp,
    "example52-so": _scan_example52_so,
}


def scan_family(family: str, **ranges) -> ScanReport:
    """Run check over a named parameter family and compare with its
    closed-form predicate."""
    if family not in FAMILIES:
        raise KeyError(f"unknown family {family!r}; known: {sorted(FAMILIES)}")
    points = []
    mismatches = []
    for params, spec, predicted in FAMILIES[family](**ranges):
        v = check(spec)
        point = ScanPoint(params=params, tempered=v.tempered,
                          predicted=predicted, summary=v.deficit_summary)
        points.append(point)
        if v.tempered != predicted:
            mismatches.append(point)
    return ScanReport(family=family, ranges=dict(ranges),
                      points=tuple(points), mismatches=tuple(mismatches))


def render_scan_table(report: ScanReport) -> str:
    """Aligned text table of a scan report."""
    lines = [f"family: {report.family}   points: {len(report.points)}   "
             f"mismatches: {len(report.mismatches)}"]
    header = f"{'params':<28} {'verdict':<12} {'predicted':<12} chambers"
    lines.append(header)
    lines.append("-" * len(header))
    for pt in report.points:
        verdict = "tempered" if pt.tempered else "not tempered"
        predicted = "tempered" if pt.predicted else "not tempered"
        mark = "" if pt.tempered == pt.predicted else "  << MISMATCH"
        chambers = pt.summary.get("chambers", "-")
        lines.append(f"{str(pt.params):<28} {verdict:<12} {predicted:<12} "
                     f"{chambers}{mark}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# tensor products of degenerate principal series

def tensor_product_check(variant: int, *params: int) -> Verdict:
    """Map a tensor-product temperedness question to a block-pattern check.

    variant 1, params (k, l, n): product of the two Grassmannian series
        attached to (k, n-k) and (n-l, l); reduces to the three-block
        pattern H12 with sizes (|k-l|, min(k,l), n-max(k,l)).
    variant 2, params (a, b, c): flag series (a,b,c) against (b+c, a);
        reduces to H11 with sizes (b, a, c).
    variant 3, params (a, b, c): flag series (a,b,c) against (c,b,a);
        reduces to H10 with sizes (a, b, c).
    Bad input raises SchemaError naming tensor_product.variant or
    tensor_product.params.
    """
    if variant not in (1, 2, 3):
        raise SchemaError("tensor_product.variant: must be 1, 2 or 3")
    if len(params) != 3:
        raise SchemaError(f"tensor_product.params: variant {variant} takes "
                          f"3 params, got {len(params)}")
    if variant == 1:
        k, l, n = params
        if not (0 < k < n and 0 < l < n):
            raise SchemaError("tensor_product.params: need 0 < k, l < n")
        sizes = (abs(k - l), min(k, l), n - max(k, l))
        pattern = TABLE2_PATTERNS["H12"](*sizes)
        meta = {"question": "tensor_product", "variant": 1, "k": k, "l": l, "n": n}
    elif variant == 2:
        a, b, c = params
        if min(a, b, c) < 1:
            raise SchemaError("tensor_product.params: need a, b, c >= 1")
        sizes = (b, a, c)
        pattern = TABLE2_PATTERNS["H11"](*sizes)
        meta = {"question": "tensor_product", "variant": 2, "a": a, "b": b, "c": c}
    else:
        a, b, c = params
        if min(a, b, c) < 1:
            raise SchemaError("tensor_product.params: need a, b, c >= 1")
        sizes = (a, b, c)
        pattern = TABLE2_PATTERNS["H10"](*sizes)
        meta = {"question": "tensor_product", "variant": 3, "a": a, "b": b, "c": c}
    spec = build_sl_block(pattern)
    spec = PairSpec(g_module=spec.g_module, h_module=spec.h_module,
                    metadata={**spec.metadata, **meta}, symmetry=spec.symmetry)
    return check(spec)
