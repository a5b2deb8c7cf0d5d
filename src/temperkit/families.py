"""Family questions that no verdict runs: the defining-module builders, the
family scans with their closed-form predicates, and the tensor-product
dictionary.

`import temperkit` does not load this module; the package's and `check`'s
`__getattr__` load it on the first of its public names, `serialize` for a
question naming its builders or a tensor product, `cli` for a scan.  It
imports `check` only in scan_family, so a recheck loads no decision module.

The defining-module builders derive products inside sp(n), orthogonal
pairs and classical subalgebras of sl(n) from the defining module V, whose
weights on the split torus are +-e_a (and zeros for so(p,q)).  sp(V) =
S^2 V, so(V) = L^2 V and, V being self-dual, gl(V) = V (x) V* = S^2 V +
L^2 V (Fulton-Harris, Representation Theory, 1991), so each multiset, zero
weights included, has the right dimension by construction.  Beside each
builder is its deficit in closed form, which recheck values with no
module built.
"""

from __future__ import annotations

import itertools
from collections import Counter
from operator import add
from typing import Callable, Optional, Sequence

from .errors import SchemaError
from .generators import (TABLE1_PATTERNS, TABLE2_PATTERNS, BlockPattern, _block_spec, _e,
                         _int_param, _product_parts, _sl_block_metadata, _zero,
                         build_product_in_sl, build_sl_block, realify)
from .model import PairSpec, Record, TorusSpace, WeightModule
from .serialize import QUESTION_CEILING


# ---------------------------------------------------------------------------
# pairs derived from the defining module

def _rep(coords, n: int, zeros: int = 0) -> list[tuple[int, ...]]:
    """Weights of a defining module V on the split torus R^n: +-e_a for each
    torus coordinate a in coords, and zeros zero weights."""
    return [_e(a, n, s) for a in coords for s in (1, -1)] + [_zero(n)] * zeros


def _square(rep, alternating: bool) -> Counter:
    """Weights of the exterior square (alternating) or the symmetric square
    of the module with weights rep: w_i + w_j over i < j, or over i <= j."""
    pairs = (itertools.combinations if alternating
             else itertools.combinations_with_replacement)(rep, 2)
    return Counter(tuple(map(add, a, b)) for a, b in pairs)


def _tensor(rep1, rep2) -> Counter:
    """Weights of the tensor product of two modules: w + w' over all pairs."""
    return Counter(tuple(map(add, a, b)) for a, b in itertools.product(rep1, rep2))


def _module(space: TorusSpace, counter: Counter) -> WeightModule:
    """The module of a counter of integer rows; nonpositive counts drop out."""
    rows = [(space._reduce(c), m) for c, m in counter.items() if m > 0]
    return WeightModule._from_integers(space, rows, space._scale)


def _product_form(factor: list[int], diagonal: list[int]) -> tuple[TorusSpace, int, list]:
    """(space, 1, terms) for a product's deficit on R^n, coordinate a of
    factor[a]: -|y_a +- y_b| for a < b in one factor, +|y_a +- y_b| across
    two, and diagonal[a]*|y_a| where that is nonzero."""
    n = len(factor)
    terms = []
    for a, b in itertools.combinations(range(n), 2):
        c = 1 if factor[a] != factor[b] else -1
        for sign in (-1, 1):
            row = [0] * n
            row[a], row[b] = 1, sign
            terms.append((c, tuple(row)))
    terms += [(c, _e(a, n)) for a, c in enumerate(diagonal) if c]
    return TorusSpace(n), 1, terms


def _product_in_sp(parts: Sequence[int]) -> tuple[list[int], dict]:
    """The checked parts of sp(n_1) x ... x sp(n_r) inside sp(n), and the
    metadata build_product_in_sp writes."""
    parts = _product_parts(parts)
    return parts, {"family": "product_in_sp", "parts": parts}


def build_product_in_sp(parts: Sequence[int]) -> PairSpec:
    """sp(n_1) x ... x sp(n_r) inside sp(n), split real forms.

    sp(V) = S^2 V for the defining module V, here V_1 + ... + V_r with
    weights +-e_a on the split torus R^n (no constraints).  So h is the sum
    of the S^2 V_i and g/h the sum of the V_i (x) V_j over i < j.
    """
    parts, meta = _product_in_sp(parts)
    n = sum(parts)
    space = TorusSpace(n)
    ends = list(itertools.accumulate(parts, initial=0))
    reps = [_rep(range(a, b), n) for a, b in zip(ends, ends[1:])]
    h_counter: Counter = Counter()
    for rep in reps:
        h_counter.update(_square(rep, alternating=False))
    g_counter: Counter = Counter()
    for rep1, rep2 in itertools.combinations(reps, 2):
        g_counter.update(_tensor(rep1, rep2))
    return PairSpec(
        g_module=_module(space, g_counter),
        h_module=_module(space, h_counter),
        metadata=meta, built=True)


def product_in_sp_deficit(parts: Sequence[int]) -> tuple[tuple, dict]:
    """The deficit of build_product_in_sp(parts) in closed form, as (space,
    den, terms) with the rows as built (model._evaluate), and the metadata
    the builder writes; no weight module is built.

    Half the sum of |w| over S^2 V_i is, for a < b inside the part,
    |y_a + y_b| + |y_a - y_b| (from +-e_a +- e_b, each twice over the two
    signs), and 2|y_a| (from +-2e_a); over V_i (x) V_j it is
    |y_a + y_b| + |y_a - y_b| for a in part i and b in part j.  So the
    deficit is -|y_a +- y_b| inside a part, +|y_a +- y_b| across parts and
    -2|y_a| for each coordinate.
    """
    parts, meta = _product_in_sp(parts)
    return _product_form([i for i, p in enumerate(parts) for _ in range(p)],
                         [-2] * sum(parts)), meta


def _so_pair(p1: int, q1: int, p2: int, q2: int) -> tuple[list, dict]:
    """Each factor's (m_i, z_i) of a checked signature, m_i = min(p_i, q_i)
    its rank and z_i = p_i + q_i - 2 m_i the zero weights of V_i, and the
    metadata build_so_pair writes."""
    for name, v in zip(("p1", "q1", "p2", "q2"), (p1, q1, p2, q2)):
        if _int_param(v, name) < 0:
            raise ValueError("signature entries must be nonnegative")
    if p1 + q1 < 1 or p2 + q2 < 1:
        raise ValueError("need p1 + q1 >= 1 and p2 + q2 >= 1")
    return ([(min(p, q), p + q - 2 * min(p, q)) for p, q in ((p1, q1), (p2, q2))],
            {"family": "so_pair", "signature": [p1, q1, p2, q2]})


def build_so_pair(p1: int, q1: int, p2: int, q2: int) -> PairSpec:
    """so(p1,q1) + so(p2,q2) inside so(p1+p2, q1+q2).

    so(V) = L^2 V for the defining module V = V_1 + V_2.  The torus is a
    split torus of h, of rank min(p1,q1) + min(p2,q2); on it V_i has the
    weights +-e_a of its own coordinates and p_i + q_i - 2 min(p_i, q_i)
    zero weights.  So h = L^2 V_1 + L^2 V_2 and g/h = V_1 (x) V_2.  Each
    factor needs p_i + q_i >= 1: an empty one leaves no pair, or h = g.
    """
    ((m1, z1), (m2, z2)), meta = _so_pair(p1, q1, p2, q2)
    n = m1 + m2
    space = TorusSpace(n)
    rep1 = _rep(range(m1), n, z1)
    rep2 = _rep(range(m1, n), n, z2)
    return PairSpec(
        g_module=_module(space, _tensor(rep1, rep2)),
        h_module=_module(space, _square(rep1, alternating=True)
                         + _square(rep2, alternating=True)),
        metadata=meta, built=True)


def so_pair_deficit(p1: int, q1: int, p2: int, q2: int) -> tuple[tuple, dict]:
    """The deficit of build_so_pair(p1, q1, p2, q2) in closed form, as
    (space, den, terms) with the rows as built (model._evaluate), and the
    metadata the builder writes; no weight module is built.

    Half the sum of |w| over L^2 V_i is, for a < b inside factor i,
    |y_a + y_b| + |y_a - y_b|, and z_i |y_a| for each of its coordinates
    (+-e_a against each zero weight); over V_1 (x) V_2 it is |y_a + y_b| +
    |y_a - y_b| across the factors, z_2 |y_a| on factor 1 and z_1 |y_b| on
    factor 2.  So the deficit is -|y_a +- y_b| inside a factor, +|y_a +-
    y_b| across, (z_2 - z_1)|y_a| on factor 1 and (z_1 - z_2)|y_b| on
    factor 2.
    """
    ((m1, z1), (m2, z2)), meta = _so_pair(p1, q1, p2, q2)
    return _product_form([0] * m1 + [1] * m2, [z2 - z1] * m1 + [z1 - z2] * m2), meta


def _classical(kind: str, *params: int) -> tuple[int, int, dict]:
    """The rank m and the zero weights z of V for a checked classical
    subalgebra, and the metadata build_classical_in_sl writes."""
    if kind == "so":
        p, q = params
        if _int_param(p, "p") < 0 or _int_param(q, "q") < 0:
            raise ValueError("signature entries must be nonnegative")
        if p + q < 2:
            raise ValueError("need p + q >= 2")
        m = min(p, q)
        return m, p + q - 2 * m, {"family": "classical_in_sl", "kind": "so",
                                  "signature": [p, q]}
    if kind == "sp":
        (m,) = params
        if _int_param(m, "m") < 1:
            raise ValueError("need m >= 1")
        return m, 0, {"family": "classical_in_sl", "kind": "sp", "m": m}
    raise ValueError(f"unknown kind {kind!r}")


def build_classical_in_sl(kind: str, *params: int) -> PairSpec:
    """A classical subalgebra inside sl of its defining representation V.

    kind "so": so(p,q) inside sl(p+q); kind "sp": sp(m) inside sl(2m).
    The torus is a split torus of h, on which V has the weights +-e_a (and
    p + q - 2 min(p, q) zero weights for so).  V is self-dual, so
    gl(V) = V (x) V* = S^2 V + L^2 V.  h is so(V) = L^2 V or sp(V) = S^2 V,
    and g/h is the other square less one zero weight, the trace.
    """
    m, zeros, meta = _classical(kind, *params)
    space = TorusSpace(m)
    rep = _rep(range(m), m, zeros)
    g_counter = _square(rep, alternating=kind == "sp")
    g_counter[_zero(m)] -= 1
    return PairSpec(
        g_module=_module(space, g_counter),
        h_module=_module(space, _square(rep, alternating=kind == "so")),
        metadata=meta, built=True)


def classical_in_sl_deficit(kind: str, *params: int) -> tuple[tuple, dict]:
    """The deficit of build_classical_in_sl(kind, *params) in closed form,
    as (space, den, terms), and the metadata the builder writes; no weight
    module is built.

    S^2 V is L^2 V together with the weights 2w, one for each weight w of
    V.  So half the sum of |w| over S^2 V exceeds that over L^2 V by half
    of sum |2w| = 2 sum_a (|y_a| + |-y_a|), that is by 2 sum_a |y_a|, and
    the zero weights of V and the trace add nothing.  For so(p,q) inside
    sl(p+q), where h = L^2 V, the deficit is 2 sum_a |y_a| >= 0, so the
    pair is tempered for every p + q >= 2 (with min(p, q) = 0 the torus
    is a point).  For sp(m) inside sl(2m), where h = S^2 V, it is
    -2 sum_a |y_a|, negative at every y != 0 of R^m, so no m >= 1 gives a
    tempered pair.
    """
    m, _, meta = _classical(kind, *params)
    c = 2 if kind == "so" else -2
    return (TorusSpace(m), 1, [(c, _e(a, m)) for a in range(m)]), meta


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


# the rules of Tables 1 and 2, claimed for every size >= 1, all that the
# scans visit, and for no empty block (size 0): a variant 1 tensor product
# with k = l is H12 with p = 0, tempered, where the H12 rule fails
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
    """sl(n_1) x ... x sl(n_r) inside sl(n), predicted tempered exactly
    when 2 max n_i <= n + 1; claimed for at least two parts, each >= 1,
    which are all that this scan visits."""
    for total in range(2, n + 1):
        for parts in _partitions(total):
            if len(parts) < 2:
                continue
            yield (parts,), build_product_in_sl(parts), 2 * parts[0] <= total + 1


def sp_product_tempered(parts: Sequence[int]) -> bool:
    """Closed form for sp(n_1) x ... x sp(n_r) inside sp(n), n = sum n_i:
    tempered exactly when r >= 3 and 2 max n_i <= n.  The rule is claimed
    for at least two parts, each >= 1, as the builder requires.

    The deficit is linear on each C_n Weyl chamber and invariant under sign
    changes and under permutations inside a block, so it is nonnegative
    exactly when it is nonnegative at the 0/1 rays.  At a ray with k_i ones
    in block i and k = sum k_i it equals

        F(k) = k(2n - k - 3) - 2 sum k_i (2 n_i - k_i - 1).

    Proven: with two parts (a, b) the all-ones ray gives
    F = -(a - b)^2 - (a + b) < 0, so no two-part product is tempered.
    Checked exhaustively, in a test: "min F >= 0" agrees with this rule on
    every partition with n <= 14.  Realification doubles every multiplicity
    and keeps the sign of the deficit, so the rule also covers the complex
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
    """so(p1,q1) + so(p2,q2) inside so(p1+p2, q1+q2), predicted tempered
    exactly when |p1 + q1 - p2 - q2| <= 2.

    The rule is claimed only for signatures whose entries are all >= 1,
    which are all that this scan visits; with a zero entry it can fail
    (so(6) + so(1,2) inside so(7,2) is tempered, its deficit 5|y|).
    """
    for p1, q1, p2, q2 in itertools.product(range(1, total + 1), repeat=4):
        if p1 + q1 + p2 + q2 > total:
            continue
        spec = build_so_pair(p1, q1, p2, q2)
        yield (p1, q1, p2, q2), spec, abs(p1 + q1 - p2 - q2) <= 2


def _scan_example51(total: int = 6, rank: int = 4):
    """Example 5.1's pairs and their rules:

    - so(p,q) inside sl(p+q): always tempered, proven for every p + q >= 2
      by its closed-form deficit 2 sum |y_a| (classical_in_sl_deficit);
    - sp(m) inside sl(2m): never tempered, proven for every m >= 1 by its
      deficit -2 sum |y_a|;
    - sl_C(m, n), sl(m, C) x sl(n, C) inside sl(m + n, C): tempered
      exactly when |m - n| <= 1, claimed for m, n >= 1;
    - so_C(m, n), so(m, C) + so(n, C) inside so(m + n, C): tempered
      exactly when |m - n| <= 2, claimed for m, n >= 1;
    - sp_C(m, n): sp_product_tempered((m, n)), for m, n >= 1.
    """
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

# family -> the largest matrix size its scan reaches, with the scan's defaults
SCAN_SIZES: dict[str, Callable] = {
    "table1": lambda pmax=6, qmax=6: pmax + qmax,
    "table2": lambda max=4: 3 * max,
    "example51": lambda total=6, rank=4: max(total, 2 * rank),
    "example52-sl": lambda n=8: n,
    "example52-sp": lambda n=4: n,
    "example52-so": lambda total=6: total,
}


def scan_family(family: str, **ranges) -> ScanReport:
    """Run check over a named parameter family and compare with its
    closed-form predicate."""
    from .check import check
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

# variant -> the names of its parameters, the table 2 pattern it reduces to,
# and that pattern's sizes.  Variant 1, (k, l, n): the product of the two
# Grassmannian series attached to (k, n-k) and (n-l, l).  Variant 2, (a, b, c):
# the flag series (a,b,c) against (b+c, a).  Variant 3: (a,b,c) against (c,b,a).
TENSOR_PRODUCTS = {
    1: (("k", "l", "n"), "H12", lambda k, l, n: (abs(k - l), min(k, l), n - max(k, l))),
    2: (("a", "b", "c"), "H11", lambda a, b, c: (b, a, c)),
    3: (("a", "b", "c"), "H10", lambda a, b, c: (a, b, c)),
}


def tensor_question(variant, params, where: str) -> tuple[BlockPattern, dict]:
    """The block pattern of a tensor-product question and its spec's
    metadata, checked first: params are three ints (a bool is not) at
    {where}.params, or a document's metadata, holding them by name at where.
    Bad input, n past the ceiling among it, raises SchemaError naming
    {where}.variant or the params' place."""
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
    pattern = TABLE2_PATTERNS[pattern](*sizes)
    return pattern, {**_sl_block_metadata(pattern), "question": "tensor_product",
                     "variant": variant, **dict(zip(names, params))}


def tensor_product_spec(variant: int, *params: int) -> PairSpec:
    """The block-pattern spec of a tensor-product question (TENSOR_PRODUCTS).
    Bad input raises SchemaError naming tensor_product.variant or
    tensor_product.params."""
    return _block_spec(*tensor_question(variant, params, "tensor_product"))
