"""Family questions that no verdict runs: the defining-module builders, the
family scans with their closed-form predicates, and the tensor-product
dictionary.

`import temperkit` does not load this module; the package's and `check`'s
`__getattr__` load it on the first of its public names, `serialize` for a
question naming its builders or a tensor product, `cli` for a scan.  It
imports `check` only in scan_family, so a recheck loads no decision module.

Products inside sp(n), orthogonal pairs and classical subalgebras of sl(n)
are one recipe: h = h(V_1) + ... + h(V_r) inside g(V) for a defining
module V = V_1 + ... + V_r, each V_i with the weights +-e_a of its own
coordinates of the split torus and z_i zero weights, g being sp, so or sl
and h sp or so.  Each family's parameter check returns that description,
and one builder (_defining_spec) and one closed form of the deficit
(_defining_deficit, which recheck values with no module built) read it.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Callable, Optional, Sequence

from .errors import SchemaError
from .generators import (TABLE1_PATTERNS, TABLE2_PATTERNS, BlockPattern, _block_spec, _e,
                         _int_param, _product_parts, _sl_block_metadata,
                         build_product_in_sl, build_sl_block, realify)
from .model import PairSpec, Record, TorusSpace, WeightModule
from .serialize import QUESTION_CEILING


# ---------------------------------------------------------------------------
# pairs derived from the defining module

# algebra X -> (c, l, s, dim): on a module V with the weights +-e_a of m
# coordinates and z zero weights, X(V) has each +-e_a +- e_b (a < b) c
# times, each +-2e_a l times, each +-e_a s*z times, and zero weights to
# make up dim(2m + z).  sp(V) = S^2 V, so(V) = L^2 V and, V being
# self-dual, sl(V) = S^2 V + L^2 V less the trace (Fulton-Harris,
# Representation Theory, 1991)
_ALGEBRAS = {
    "sp": (1, 1, 1, lambda N: N * (N + 1) // 2),
    "so": (1, 0, 1, lambda N: N * (N - 1) // 2),
    "sl": (2, 1, 2, lambda N: N * N - 1),
}


def _module(space: TorusSpace, counter: Counter) -> WeightModule:
    """The module of a counter of integer rows; nonpositive counts drop out."""
    rows = [(space._reduce(c), m) for c, m in counter.items() if m > 0]
    return WeightModule._from_integers(space, rows, space._scale)


def _weights(algebra: str, coords: range, zeros: int, n: int) -> Counter:
    """The weights of X(V) on R^n (_ALGEBRAS), V having the weights +-e_a
    for a in coords and zeros zero weights."""
    c, long, short, dim = _ALGEBRAS[algebra]
    out: Counter = Counter()
    row = [0] * n
    for a, b in itertools.combinations(coords, 2):
        for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            row[a], row[b] = sa, sb
            out[tuple(row)] = c
        row[a] = row[b] = 0
    for a in coords:
        for value, m in ((2, long), (-2, long), (1, short * zeros), (-1, short * zeros)):
            if m:
                row[a] = value
                out[tuple(row)] = m
        row[a] = 0
    out[tuple(row)] = dim(2 * len(coords) + zeros) - sum(out.values())
    return out


def _defining_spec(g: str, h: str, factors: list, metadata: dict) -> PairSpec:
    """The spec of h(V_1) + ... + h(V_r) inside g(V), V = V_1 + ... + V_r,
    for factors [(m_i, z_i)]: V_i has the weights +-e_a of its own m_i
    coordinates of R^n, n = sum m_i, and z_i zero weights.  g/h is g(V)
    less every h(V_i), weight by weight, so each multiset, zero weights
    included, has the right dimension by construction."""
    n = sum(m for m, _ in factors)
    space = TorusSpace._from_reduced(n, (), ())
    g_counter = _weights(g, range(n), sum(z for _, z in factors), n)
    h_counter: Counter = Counter()
    start = 0
    for m, z in factors:
        h_counter.update(_weights(h, range(start, start + m), z, n))
        start += m
    g_counter.subtract(h_counter)
    return PairSpec(g_module=_module(space, g_counter), h_module=_module(space, h_counter),
                    metadata=metadata, built=True)


def _defining_deficit(g: str, h: str, factors: list, metadata: dict) -> tuple[tuple, dict]:
    """The deficit of _defining_spec(g, h, factors, metadata) in closed
    form, as (space, den, terms) with the rows as built (model._evaluate),
    and the metadata; no weight module is built.

    The deficit is rho_{g/h} - rho_h = rho_g - 2 rho_h, where rho_X(y) is
    half the sum of |w(y)| over the weights w of X.  By _ALGEBRAS, X(V)
    gives c (|y_a + y_b| + |y_a - y_b|) for each a < b, from the four
    weights +-e_a +- e_b, and d_X(z) |y_a| for each coordinate a, d_X(z) =
    2l + s z, from +-2e_a and +-e_a.  So the deficit has, for a < b, the
    term c (|y_a + y_b| + |y_a - y_b|) with c = c_g - 2 c_h when a and b
    lie in one factor and c = c_g when not, and d_g(Z) - 2 d_h(z_i) times
    |y_a| for each coordinate a of factor i, Z = sum z_i; a zero
    coefficient writes no term.  Hence:

    - sp(n_1) x ... x sp(n_r) in sp(n): c = -1 inside a part, +1 across
      parts, and -2|y_a| on every coordinate;
    - so(p1,q1) + so(p2,q2): c = -1 inside a factor, +1 across, and
      (z_2 - z_1)|y_a| on factor 1, (z_1 - z_2)|y_a| on factor 2;
    - so(p,q) in sl(p+q): 2 sum_a |y_a| >= 0, tempered for every p + q >= 2
      (with min(p, q) = 0 the torus is a point);
    - sp(m) in sl(2m): -2 sum_a |y_a|, negative at every y != 0 of R^m, so
      no m >= 1 gives a tempered pair.
    """
    cg, lg, sg, _ = _ALGEBRAS[g]
    ch, lh, sh, _ = _ALGEBRAS[h]
    owner = [i for i, (m, _) in enumerate(factors) for _ in range(m)]
    dg = 2 * lg + sg * sum(z for _, z in factors)
    delta = [dg - 2 * (2 * lh + sh * z) for _, z in factors]
    n = len(owner)
    terms = []
    row = [0] * n
    for a, b in itertools.combinations(range(n), 2):
        c = cg - 2 * ch if owner[a] == owner[b] else cg
        if c:
            for sign in (-1, 1):
                row[a], row[b] = 1, sign
                terms.append((c, tuple(row)))
            row[a] = row[b] = 0
    terms += [(delta[i], _e(a, n)) for a, i in enumerate(owner) if delta[i]]
    return (TorusSpace._from_reduced(n, (), ()), 1, terms), metadata


def _product_in_sp(parts: Sequence[int]) -> tuple:
    """sp(n_1) x ... x sp(n_r) inside sp(n) as (g, h, factors, metadata)
    for _defining_spec, the parts checked."""
    parts = _product_parts(parts)
    return "sp", "sp", [(p, 0) for p in parts], {"family": "product_in_sp", "parts": parts}


def build_product_in_sp(parts: Sequence[int]) -> PairSpec:
    """sp(n_1) x ... x sp(n_r) inside sp(n), split real forms (_defining_spec)."""
    return _defining_spec(*_product_in_sp(parts))


def product_in_sp_deficit(parts: Sequence[int]) -> tuple[tuple, dict]:
    """The deficit of build_product_in_sp(parts) in closed form, and the
    metadata the builder writes (_defining_deficit)."""
    return _defining_deficit(*_product_in_sp(parts))


def _so_pair(p1: int, q1: int, p2: int, q2: int) -> tuple:
    """so(p1,q1) + so(p2,q2) inside so(p1+p2, q1+q2) as (g, h, factors,
    metadata) for _defining_spec, the signature checked.  A split torus of
    h gives factor i the rank m_i = min(p_i, q_i) and z_i = p_i + q_i - 2 m_i
    zero weights.  Each factor needs p_i + q_i >= 1: an empty one leaves no
    pair, or h = g."""
    for name, v in zip(("p1", "q1", "p2", "q2"), (p1, q1, p2, q2)):
        if _int_param(v, name) < 0:
            raise ValueError("signature entries must be nonnegative")
    if p1 + q1 < 1 or p2 + q2 < 1:
        raise ValueError("need p1 + q1 >= 1 and p2 + q2 >= 1")
    return ("so", "so", [(min(p, q), p + q - 2 * min(p, q)) for p, q in ((p1, q1), (p2, q2))],
            {"family": "so_pair", "signature": [p1, q1, p2, q2]})


def build_so_pair(p1: int, q1: int, p2: int, q2: int) -> PairSpec:
    """so(p1,q1) + so(p2,q2) inside so(p1+p2, q1+q2) (_defining_spec)."""
    return _defining_spec(*_so_pair(p1, q1, p2, q2))


def so_pair_deficit(p1: int, q1: int, p2: int, q2: int) -> tuple[tuple, dict]:
    """The deficit of build_so_pair(p1, q1, p2, q2) in closed form, and the
    metadata the builder writes (_defining_deficit)."""
    return _defining_deficit(*_so_pair(p1, q1, p2, q2))


def _classical(kind: str, *params: int) -> tuple:
    """so(p,q) inside sl(p+q) (kind "so") or sp(m) inside sl(2m) (kind "sp")
    as (g, h, factors, metadata) for _defining_spec, the parameters checked:
    one factor, of rank min(p, q) with p + q - 2 min(p, q) zero weights, or
    of rank m."""
    if kind == "so":
        p, q = params
        if _int_param(p, "p") < 0 or _int_param(q, "q") < 0:
            raise ValueError("signature entries must be nonnegative")
        if p + q < 2:
            raise ValueError("need p + q >= 2")
        m = min(p, q)
        return ("sl", "so", [(m, p + q - 2 * m)],
                {"family": "classical_in_sl", "kind": "so", "signature": [p, q]})
    if kind == "sp":
        (m,) = params
        if _int_param(m, "m") < 1:
            raise ValueError("need m >= 1")
        return "sl", "sp", [(m, 0)], {"family": "classical_in_sl", "kind": "sp", "m": m}
    raise ValueError(f"unknown kind {kind!r}")


def build_classical_in_sl(kind: str, *params: int) -> PairSpec:
    """A classical subalgebra inside sl of its defining representation:
    so(p,q) inside sl(p+q) for kind "so", sp(m) inside sl(2m) for kind
    "sp" (_defining_spec)."""
    return _defining_spec(*_classical(kind, *params))


def classical_in_sl_deficit(kind: str, *params: int) -> tuple[tuple, dict]:
    """The deficit of build_classical_in_sl(kind, *params) in closed form,
    and the metadata the builder writes (_defining_deficit)."""
    return _defining_deficit(*_classical(kind, *params))


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
