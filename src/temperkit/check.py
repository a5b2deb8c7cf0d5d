"""Verdict assembly, family scans, and the tensor-product dictionary."""

from __future__ import annotations

import itertools
from typing import Callable, Optional, Sequence

from .errors import SchemaError
from .generators import (TABLE1_PATTERNS, TABLE2_PATTERNS, build_classical_in_sl,
                         build_product_in_sl, build_product_in_sp, build_so_pair,
                         build_sl_block, realify)
from .model import PairSpec, Record, deficit, evaluate_pl
from .verify import NonnegCertificate, Witness, is_nonnegative


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
    (verify._chamber_walls, which derives the chamber in slice
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


# ---------------------------------------------------------------------------
# family scans

class ScanPoint(Record):
    __slots__ = _fields = ("params", "tempered", "predicted", "summary")

    def __init__(self, params: tuple, tempered: bool, predicted: bool, summary: dict):
        self._set(params, tempered, predicted, summary)


class ScanReport(Record):
    __slots__ = _fields = ("family", "ranges", "points", "mismatches")

    def __init__(self, family: str, ranges: dict, points: tuple[ScanPoint, ...],
                 mismatches: tuple[ScanPoint, ...]):
        self._set(family, ranges, points, mismatches)

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


def _scan_table1(pmax: int = 6, qmax: int = 6):
    for name in TABLE1_PATTERNS:
        for p in range(1, pmax + 1):
            for q in range(1, qmax + 1):
                spec = build_sl_block(TABLE1_PATTERNS[name](p, q))
                yield (name, p, q), spec, TABLE1_PREDICATES[name](p, q)


def _scan_table2(max: int = 4):
    for name in TABLE2_PATTERNS:
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

# the largest matrix size n (of sl(n), sp(n), so(p, q) or the sl into which a
# classical algebra embeds) that a question read from input may name, and so
# the largest integer parameter; check on H10(6,5,6), at n = 17, took 265 s CPU
# and 1.76 GiB peak RSS (ROADMAP.md, 2 cores, Python 3.11.7)
QUESTION_CEILING = 64


# variant -> the names of its parameters, the table 2 pattern it reduces to,
# and that pattern's sizes.  Variant 1, (k, l, n): the product of the two
# Grassmannian series attached to (k, n-k) and (n-l, l).  Variant 2, (a, b, c):
# the flag series (a,b,c) against (b+c, a).  Variant 3: (a,b,c) against (c,b,a).
TENSOR_PRODUCTS = {
    1: (("k", "l", "n"), "H12", lambda k, l, n: (abs(k - l), min(k, l), n - max(k, l))),
    2: (("a", "b", "c"), "H11", lambda a, b, c: (b, a, c)),
    3: (("a", "b", "c"), "H10", lambda a, b, c: (a, b, c)),
}


def tensor_question(variant, params, where: str) -> PairSpec:
    """The block-pattern spec of a tensor-product question, checked first:
    params are three ints (a bool is not) at {where}.params, or a document's
    metadata, holding them by name at where.  Bad input, n past the ceiling
    among it, raises SchemaError naming {where}.variant or the params' place."""
    if type(variant) is not int or variant not in TENSOR_PRODUCTS:
        raise SchemaError(f"{where}.variant: must be 1, 2 or 3")
    names, pattern, to_sizes = TENSOR_PRODUCTS[variant]
    at = f"{where}.params"
    if isinstance(params, dict):
        params, at = [params.get(key) for key in names], where
    if len(params) != 3 or any(type(x) is not int for x in params):
        raise SchemaError(f"{at}: variant {variant} takes 3 integers, "
                          f"got {list(params)}")
    if variant == 1:
        k, l, n = params
        if not (0 < k < n and 0 < l < n):
            raise SchemaError(f"{at}: need 0 < k, l < n")
    elif min(params) < 1:
        raise SchemaError(f"{at}: need a, b, c >= 1")
    sizes = to_sizes(*params)
    if sum(sizes) > QUESTION_CEILING:
        raise SchemaError(f"{at}: matrix size {sum(sizes)} exceeds the ceiling "
                          f"{QUESTION_CEILING}")
    spec = build_sl_block(TABLE2_PATTERNS[pattern](*sizes))
    return PairSpec(g_module=spec.g_module, h_module=spec.h_module,
                    metadata={**spec.metadata, "question": "tensor_product",
                              "variant": variant, **dict(zip(names, params))},
                    built=True)


def tensor_product_spec(variant: int, *params: int) -> PairSpec:
    """The block-pattern spec of a tensor-product question (TENSOR_PRODUCTS).
    Bad input raises SchemaError naming tensor_product.variant or
    tensor_product.params."""
    return tensor_question(variant, params, "tensor_product")
