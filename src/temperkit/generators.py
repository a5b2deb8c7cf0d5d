"""Weight-data constructors for block subalgebras of sl(n).

The builders here produce exact weight multisets from the roots e_a - e_b:
block patterns inside sl(n) (build_sl_block, with the named patterns of
tables 1 and 2), products inside sl(n) among them, and realify, which views
a split complex pair as a real one.  matrix_input_for_block_pattern gives a
block pattern's explicit matrices, for the extractor in temperkit.matrices
to cross-check the family builders.  The builders that derive a pair from
the defining module (products inside sp(n), orthogonal pairs, classical
subalgebras of sl(n)) live in temperkit.families, which no verdict loads.
"""

from __future__ import annotations

import itertools
from operator import sub
from typing import Sequence

from .errors import BracketClosureError
from .model import PairSpec, Record, TorusSpace, WeightModule

# Weights and constraints are integer rows: tuples of ints, one per ambient
# coordinate.


def _e(i: int, n: int, s: int = 1) -> tuple[int, ...]:
    v = [0] * n
    v[i] = s
    return tuple(v)


def _zero(n: int) -> tuple[int, ...]:
    return (0,) * n


def _int_param(value, name: str) -> int:
    """value, if its type is exactly int (a bool is not); else TypeError
    naming the parameter, as a float would build a wrong pair or fail
    without saying where."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, not {type(value).__name__}")
    return value


# ---------------------------------------------------------------------------
# block subalgebras of sl(n)

class BlockPattern(Record):
    """Shape of a block subalgebra of sl(n): diagonal blocks plus selected
    strictly-upper off-diagonal blocks.

    sizes: block sizes (zero-size blocks are dropped at construction);
    diagonal_kind: per block, "full" (all of gl(size)) or "identity"
    (scalars only); upper_blocks: (i, j) pairs with i < j whose full
    off-diagonal block belongs to the subalgebra.
    """

    __slots__ = _fields = ("sizes", "diagonal_kind", "upper_blocks")

    def __init__(self, sizes: tuple[int, ...], diagonal_kind: tuple[str, ...],
                 upper_blocks: frozenset = frozenset()):
        sizes = tuple(_int_param(s, f"sizes[{i}]") for i, s in enumerate(sizes))
        if len(sizes) != len(diagonal_kind):
            raise ValueError("need one diagonal kind per block")
        for k in diagonal_kind:
            if k not in ("full", "identity"):
                raise ValueError(f"unknown diagonal kind {k!r}")
        if any(s < 0 for s in sizes):
            raise ValueError("block sizes must be nonnegative")
        keep = [i for i, s in enumerate(sizes) if s > 0]
        if len(keep) != len(sizes):
            remap = {old: new for new, old in enumerate(keep)}
            upper_blocks = [(remap[i], remap[j]) for i, j in upper_blocks
                            if i in remap and j in remap]
            sizes = tuple(sizes[i] for i in keep)
            diagonal_kind = tuple(diagonal_kind[i] for i in keep)
        upper_blocks = frozenset(upper_blocks)
        self._set(sizes, diagonal_kind, upper_blocks)
        k = len(sizes)
        for i, j in upper_blocks:
            if not (0 <= i < j < k):
                raise ValueError(f"bad upper block ({i},{j})")
        for (i, j), (a, b) in itertools.product(upper_blocks, repeat=2):
            if j == a and (i, b) not in upper_blocks:
                raise BracketClosureError(
                    f"upper blocks ({i},{j}) and ({a},{b}) require ({i},{b})")

    @property
    def n(self) -> int:
        return sum(self.sizes)

    def block_coords(self) -> list[list[int]]:
        out, start = [], 0
        for s in self.sizes:
            out.append(list(range(start, start + s)))
            start += s
        return out


def _block_torus(pattern: BlockPattern) -> TorusSpace:
    """Ambient R^n with trace-zero full blocks and zeroed identity blocks."""
    n = pattern.n
    constraints = []
    for blk, kind in zip(pattern.block_coords(), pattern.diagonal_kind):
        if kind == "full":
            constraints.append(tuple(int(a in blk) for a in range(n)))
        else:
            constraints.extend(_e(a, n) for a in blk)
    return TorusSpace(n, constraints)


def build_sl_block(pattern: BlockPattern) -> PairSpec:
    """Weight data of a block subalgebra h inside g = sl(n).

    The torus is the diagonal of h with the center of each diagonal block
    removed (temperedness is unchanged by dividing out that center).  Each
    weight of sl(n) goes to exactly one of h and g/h: a root e_a - e_b to h
    when its pair of blocks is a full diagonal block or an upper block of
    the pattern, and of the n - 1 zero weights, one less than its size per
    full block.  So dim h + dim g/h = n^2 - 1 holds by construction.
    """
    n = pattern.n
    if n == 0:
        raise ValueError("pattern has no coordinates")
    space = _block_torus(pattern)
    blocks = pattern.block_coords()
    block = [i for i, blk in enumerate(blocks) for _ in blk]
    full = [i for i, kind in enumerate(pattern.diagonal_kind) if kind == "full"]
    in_h = pattern.upper_blocks | {(i, i) for i in full}
    # reduction is linear, so e_a - e_b reduces to u[a] - u[b]
    u = [space._reduce(_e(a, n)) for a in range(n)]
    h_rows, g_rows = [], []
    for a, b in itertools.permutations(range(n), 2):
        rows = h_rows if (block[a], block[b]) in in_h else g_rows
        rows.append((tuple(map(sub, u[a], u[b])), 1))
    h_zero = sum(len(blocks[i]) - 1 for i in full)
    for rows, zero in ((h_rows, h_zero), (g_rows, n - 1 - h_zero)):
        if zero:
            rows.append((_zero(n), zero))

    return PairSpec(
        g_module=WeightModule._from_integers(space, g_rows, space._scale),
        h_module=WeightModule._from_integers(space, h_rows, space._scale),
        metadata={"family": "sl_block", "sizes": list(pattern.sizes),
                  "diagonal_kind": list(pattern.diagonal_kind),
                  "upper_blocks": sorted(pattern.upper_blocks)},
        built=True)


def build_product_in_sl(parts: Sequence[int]) -> PairSpec:
    """sl(n_1) x ... x sl(n_r) block-diagonal inside sl(n)."""
    parts = [_int_param(p, f"parts[{i}]") for i, p in enumerate(parts)]
    if len(parts) < 2:
        raise ValueError("need at least two factors (a single part gives h = g)")
    if any(p < 1 for p in parts):
        raise ValueError("factor sizes must be positive")
    pattern = BlockPattern(tuple(parts), ("full",) * len(parts))
    spec = build_sl_block(pattern)
    return PairSpec(g_module=spec.g_module, h_module=spec.h_module,
                    metadata={"family": "product_in_sl", "parts": parts}, built=True)


def realify(spec: PairSpec) -> PairSpec:
    """View a split complex pair as a real pair: every multiplicity doubles.
    A pair already realified is real, not complex: ValueError."""
    if spec.metadata.get("realified"):
        raise ValueError("the pair is already realified")

    def double(M: WeightModule) -> WeightModule:
        return WeightModule._from_integers(M.space, [(row, 2 * m) for row, m in M.rows],
                                           M.den)

    meta = dict(spec.metadata)
    meta["realified"] = True
    return PairSpec(
        g_module=double(spec.g_module),
        h_module=double(spec.h_module),
        v_module=double(spec.v_module) if spec.v_module is not None else None,
        metadata=meta, built=spec.built)


def matrix_input_for_block_pattern(pattern: BlockPattern) -> MatrixPairInput:
    """Explicit sl(n) matrices realizing a block pattern, for cross-checks."""
    from .matrices import MatrixPairInput
    n = pattern.n
    blocks = pattern.block_coords()

    def unit(a, b):
        return [[int(r == a and c == b) for c in range(n)] for r in range(n)]

    def diag(vec):
        return [[vec[r] if r == c else 0 for c in range(n)] for r in range(n)]

    g_basis = [unit(a, b) for a in range(n) for b in range(n) if a != b]
    g_basis += [diag([1 if i == a else (-1 if i == a + 1 else 0) for i in range(n)])
                for a in range(n - 1)]
    h_basis = []
    for blk, kind in zip(blocks, pattern.diagonal_kind):
        if kind == "full":
            for a, b in itertools.permutations(blk, 2):
                h_basis.append(unit(a, b))
            for a, b in zip(blk, blk[1:]):
                h_basis.append(diag([1 if i == a else (-1 if i == b else 0)
                                     for i in range(n)]))
    for i, j in pattern.upper_blocks:
        for a in blocks[i]:
            for b in blocks[j]:
                h_basis.append(unit(a, b))

    torus = [diag(v) for v in _block_torus(pattern).slice_basis()]
    ident = [[int(r == c) for c in range(n)] for r in range(n)]
    return MatrixPairInput(ambient_dim=n, g_basis=tuple(g_basis),
                           h_basis=tuple(h_basis), torus_basis=tuple(torus),
                           diagonalizer=tuple(ident),
                           metadata={"family": "sl_block_matrices"})


# ---------------------------------------------------------------------------
# named block patterns for the two-block and three-block families

TABLE1_PATTERNS = {
    "H1": lambda p, q: BlockPattern((p, q), ("full", "identity")),
    "H2": lambda p, q: BlockPattern((p, q), ("full", "identity"), {(0, 1)}),
    "H3": lambda p, q: BlockPattern((p, q), ("full", "full"), {(0, 1)}),
    "H4": lambda p, q: BlockPattern((p, q), ("full", "full")),
}

TABLE2_PATTERNS = {
    "H1": lambda p, q, r: BlockPattern((p, q, r), ("full", "identity", "identity"),
                                       {(0, 2)}),
    "H2": lambda p, q, r: BlockPattern((p, q, r), ("identity", "full", "identity"),
                                       {(0, 2)}),
    "H3": lambda p, q, r: BlockPattern((p, q, r), ("identity", "full", "identity"),
                                       {(0, 1), (0, 2)}),
    "H4": lambda p, q, r: BlockPattern((p, q, r), ("full", "full", "full"),
                                       {(0, 1), (0, 2), (1, 2)}),
    "H5": lambda p, q, r: BlockPattern((p, q, r), ("full", "full", "identity")),
    "H6": lambda p, q, r: BlockPattern((p, q, r), ("full", "full", "identity"),
                                       {(0, 2)}),
    "H7": lambda p, q, r: BlockPattern((p, q, r), ("full", "full", "identity"),
                                       {(0, 1), (0, 2)}),
    "H8": lambda p, q, r: BlockPattern((p, q, r), ("full", "identity", "full"),
                                       {(0, 2)}),
    "H9": lambda p, q, r: BlockPattern((p, q, r), ("identity", "full", "full"),
                                       {(0, 1), (0, 2)}),
    "H10": lambda p, q, r: BlockPattern((p, q, r), ("full", "full", "full")),
    "H11": lambda p, q, r: BlockPattern((p, q, r), ("full", "full", "full"),
                                        {(0, 2)}),
    "H12": lambda p, q, r: BlockPattern((p, q, r), ("full", "full", "full"),
                                        {(0, 1), (0, 2)}),
}
