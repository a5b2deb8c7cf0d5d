"""Reference implementations the tests compare the package against.

None of this is on the decision path.  rref and mat_inv are plain Fraction
Gauss-Jordan elimination, and fraction_det is Fraction elimination with
row swaps: the references for linalg's integer rref and solve.  dense
gives back the rational matrix of a matrix held by MatrixPairInput.
grid_oracle is a brute-force search for a negative value;
parabolic_decomposition gives the weight modules of a block pattern
relative to its parabolic.  dense_chamber_walls derives the chamber the
way verify once did, from a coroot solve per root and dense ambient rows:
the reference for verify._chamber_walls.  generic_sl_block builds a block
pattern's spec the generic way, its torus row-reduced by TorusSpace and
every root of sl(n) reduced one coordinate at a time: the reference for
generators.build_sl_block.  replay_problems applies recheck's rule to the
evidence through evaluate_at's Fractions: the reference for
serialize.recheck_document's integer replay.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from operator import sub
from typing import Optional, Sequence

from temperkit.families import _module
from temperkit.generators import BlockPattern, _block_torus, _e, _zero
from temperkit.linalg import solve
from temperkit.model import (PLFunction, PairSpec, TorusSpace, WeightModule,
                             _canonical_terms, _lex_positive, _primitive, evaluate_pl)
from temperkit.verify import Witness


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][col]
        if pv != 1:
            pv = Fraction(pv)   # int / int would be a float
            rows[rank] = [x / pv if x else x for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                c = rows[i][col]
                rows[i] = [x - c * y if y else x
                           for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return rows[:rank], pivots


def mat_inv(A: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Inverse as the right half of rref([A | I]); ValueError if singular."""
    n = len(A)
    rows, pivots = rref([list(row) + [Fraction(int(i == j)) for j in range(n)]
                         for i, row in enumerate(A)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in rows]


def fraction_det(M):
    """det M by Fraction elimination with row swaps."""
    M, det = [[Fraction(x) for x in row] for row in M], Fraction(1)
    for k in range(len(M)):
        p = next((i for i in range(k, len(M)) if M[i][k]), None)
        if p is None:
            return Fraction(0)
        if p != k:
            M[k], M[p], det = M[p], M[k], -det
        det *= M[k][k]
        for i in range(k + 1, len(M)):
            r = M[i][k] / M[k][k]
            M[i] = [x - r * y for x, y in zip(M[i], M[k])]
    return det


def dense(held, n: int) -> list[list[Fraction]]:
    """The n x n Fraction matrix of (entries, scale), the sparse integer
    form in which MatrixPairInput holds each matrix."""
    entries, scale = held
    M = [[Fraction(0)] * n for _ in range(n)]
    for (a, b), x in entries:
        M[a][b] = Fraction(x, scale)
    return M


_INT64_BOUND = 2 ** 62


def _on_slice_basis(f: PLFunction, basis):
    """(linear, terms): f on the slice basis in canonical form, f.den*f =
    linear.y + sum c*|row.y|.  A row reduced modulo the constraints, as all
    stored rows are, is zero at the pivots, so its value at a basis vector
    is its entry at the vector's free column times the vector's entry
    there."""
    free = [c for c in range(f.space.ambient_dim) if c not in f.space._pivots]
    columns = [(c, v[c]) for c, v in zip(free, basis)]
    return [f.linear[c] * s for c, s in columns], _canonical_terms(
        (c, [row[j] * s for j, s in columns]) for c, row in f.terms)


def grid_oracle(f: PLFunction, resolution: int) -> Optional[Witness]:
    """Brute-force search for a negative value on an integer grid.

    Evaluates f at every integer point of the closed ball of the given
    l-infinity radius in slice coordinates.  Exact (integer arithmetic
    after clearing denominators); returns the most negative point found, or
    None.  Never authoritative for the nonnegative answer.
    """
    import numpy as np
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    space = f.space
    basis = space.slice_basis()
    d = len(basis)
    if d == 0:
        return None
    Lrow, terms = _on_slice_basis(f, basis)
    A = [row for _, row in terms]
    C = [c for c, _ in terms]

    max_abs = 0
    for row, c in zip(A, C):
        max_abs += abs(c) * sum(abs(x) for x in row) * resolution
    max_abs += sum(abs(x) for x in Lrow) * resolution
    # int64 sums are exact below the bound; past it numpy sums Python ints
    dtype = np.int64 if max_abs < _INT64_BOUND else object
    coords = np.array(np.meshgrid(*([np.arange(-resolution, resolution + 1)] * d),
                                  indexing="ij")).reshape(d, -1).T.astype(dtype)
    vals = coords @ np.array(Lrow, dtype=dtype)
    if A:
        vals = vals + np.abs(coords @ np.array(A, dtype=dtype).T) \
            @ np.array(C, dtype=dtype)
    i = int(np.argmin(vals))
    if vals[i] >= 0:
        return None
    direction = space.lift(tuple(int(x) for x in coords[i]))
    return Witness(direction=direction, value=evaluate_pl(f, direction))


def _diff(i: int, j: int, n: int) -> tuple[int, ...]:
    v = [0] * n
    v[i] = 1
    v[j] -= 1
    return tuple(v)


def parabolic_decomposition(pattern: BlockPattern):
    """Weight modules (s, l/s, u/v) for h inside the block upper-triangular
    parabolic with the same block structure.

    s = diagonal part of h, l/s = rest of the block-diagonal Levi,
    u/v = strictly-upper cross blocks not belonging to h.  All three live
    on the torus of build_sl_block(pattern).
    """
    n = pattern.n
    space = _block_torus(pattern)
    blocks = pattern.block_coords()

    s_counter: Counter = Counter()
    l_counter: Counter = Counter()
    for blk, kind in zip(blocks, pattern.diagonal_kind):
        for a, b in itertools.permutations(blk, 2):
            l_counter[_diff(a, b, n)] += 1
        l_counter[_zero(n)] += len(blk)
        if kind == "full":
            for a, b in itertools.permutations(blk, 2):
                s_counter[_diff(a, b, n)] += 1
            s_counter[_zero(n)] += len(blk) - 1
    ls_counter = l_counter.copy()
    ls_counter.subtract(s_counter)

    uv_counter: Counter = Counter()
    k = len(blocks)
    for i, j in itertools.combinations(range(k), 2):
        if (i, j) in pattern.upper_blocks:
            continue
        for a in blocks[i]:
            for b in blocks[j]:
                uv_counter[_diff(a, b, n)] += 1

    return (_module(space, s_counter),
            _module(space, ls_counter),
            _module(space, uv_counter))


def generic_block_torus(pattern: BlockPattern) -> TorusSpace:
    """generators._block_torus through TorusSpace's row reduction."""
    n = pattern.n
    constraints = []
    for blk, kind in zip(pattern.block_coords(), pattern.diagonal_kind):
        if kind == "full":
            constraints.append(tuple(int(a in blk) for a in range(n)))
        else:
            constraints.extend(_e(a, n) for a in blk)
    return TorusSpace(n, constraints)


def generic_sl_block(pattern: BlockPattern) -> PairSpec:
    """build_sl_block root by root: every root e_a - e_b of sl(n), reduced
    as u[a] - u[b] with u[a] = TorusSpace._reduce(e_a), goes to h when its
    pair of blocks is a full diagonal block or an upper block."""
    n = pattern.n
    if n == 0:
        raise ValueError("pattern has no coordinates")
    space = generic_block_torus(pattern)
    blocks = pattern.block_coords()
    block = [i for i, blk in enumerate(blocks) for _ in blk]
    full = [i for i, kind in enumerate(pattern.diagonal_kind) if kind == "full"]
    in_h = pattern.upper_blocks | {(i, i) for i in full}
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


def _root(R, L):
    """The root (R, L, R.L): a reduced weight row R and L = s*B^-1 R lifted,
    s > 0 one integer shared by every root that makes each L integral,
    both signed so L is lexicographically positive."""
    if not _lex_positive(L):
        R, L = [-x for x in R], [-x for x in L]
    return tuple(R), L, _dot(R, L)


def _invariant(a, f: PLFunction, coeffs, by_column) -> bool:
    """Whether f o s_a = f; ``coeffs`` maps each row of f to its c, and
    ``by_column`` holds the rows' columns.  s_a maps distinct rows to
    distinct directions, a row to (k*row - 2*(row.L)*R) / k."""
    R, L, k = a
    xs = [0] * len(f.terms)
    for column, v in zip(by_column, L):
        if v:
            xs = [x + v * y for x, y in zip(xs, column)]
    for (c, row), x in zip(f.terms, xs):
        if x:
            image, g = _primitive([k * p - 2 * x * q for p, q in zip(row, R)])
            if coeffs.get(image, 0) * k != c * abs(g):
                return False
    return not _dot(f.linear, L)


def dense_chamber_walls(f: PLFunction, columns, lift, pair: PairSpec) -> list:
    """The walls of verify._chamber_walls, derived on dense ambient rows
    for f, in the slice coordinates whose basis vector j has the entry s
    at the free column c of the pair (c, s) = columns[j], and whose
    ambient rows ``lift`` gives.  One solve gives every coroot, a
    column per root; each root is lifted, and its reflection tested on
    f's ambient terms, before it is kept; the simple-root and angle tests
    take ambient dot products."""
    d = len(columns)
    h, g = pair.h_module, pair.g_module
    den = math.lcm(h.den, g.den)
    B = [[0] * d for _ in range(d)]
    for M in (h, g):
        for row, m in M.rows:
            w = [(j, row[c] * s * (den // M.den)) for j, (c, s) in enumerate(columns)
                 if row[c]]
            for j, x in w:
                for k, y in w:
                    B[j][k] += m * x * y
    roots = dict.fromkeys(_primitive(row)[0] for row, _ in h.rows if any(row))
    solved = roots and solve(B, [[R[c] * s for c, s in columns] for R in roots])
    if not solved:
        return []
    coeffs = {row: c for c, row in f.terms}
    by_column = list(zip(*coeffs))
    kept = [a for a in (_root(R, [_dot(col, t) for col in lift])
                        for R, t in zip(roots, solved[0]))
            if _invariant(a, f, coeffs, by_column)]
    # s_a keeps every other kept root b positive: k s_a(b) = k b - 2x a
    simple = [a for a in kept if all(
        b is a or not x or _lex_positive(a[2] * p - 2 * x * q for p, q in zip(b[1], a[1]))
        for b, x in ((b, _dot(b[0], a[1])) for b in kept))]
    for i, (R, _, k) in enumerate(simple):
        for _, L, j in simple[:i]:
            x = _dot(R, L)
            if x > 0 or 4 * x * x not in (0, k * j, 2 * k * j, 3 * k * j):
                return []
    simple.sort(key=lambda a: _primitive(a[1])[0], reverse=True)
    return [[a[0][c] * s for c, s in columns] for a in simple]


def replay_problems(data: dict) -> list[str]:
    """serialize.recheck_document's problems, its replay valued through
    evaluate_at: each point's deficit as a Fraction, compared with the
    recorded value and with zero, and every name formed up front."""
    from temperkit.model import deficit, evaluate_at
    from temperkit.serialize import (_expect, _rational_text, dumps,
                                     evidence_from_json, read_pair_spec)
    from temperkit.verify import NonnegCertificate
    if "pair_spec" not in _expect(data, dict, "document"):
        return ["document has no pair_spec to recheck against"]
    ev = evidence_from_json(data.get("evidence", {}))
    spec, problems = read_pair_spec(data["pair_spec"])
    dim = spec.space.ambient_dim
    tempered = isinstance(ev, NonnegCertificate)
    points, recorded = ((ev.rays, ev.ray_values) if tempered
                        else ([ev.direction], [ev.value]))
    names = [f"ray {i}" if tempered else "witness direction" for i in range(len(points))]
    arity = [f"{name}: point arity {len(point)} does not match the ambient "
             f"dimension {dim}"
             for name, point in zip(names, points) if len(point) != dim]
    if arity:
        return problems + arity
    claim = dumps(tempered)
    if data.get("tempered") is not tempered:
        kind = "certificate" if tempered else "witness"
        problems.append(f"{kind} evidence but tempered is not {claim}")
    if len(points) != len(recorded):
        problems.append("ray and value counts differ")
        return problems
    f = deficit(spec)
    for name, value, expected in zip(names, evaluate_at(f, points), recorded):
        if value is None:
            problems.append(f"{name}: point violates torus constraints")
        elif value != expected:
            problems.append(f"{name}: recorded value {_rational_text(expected)}, "
                            f"computed {_rational_text(value)}")
        elif (value >= 0) != tempered:
            problems.append(f"{name}: deficit {_rational_text(value)} "
                            f"contradicts tempered {claim}")
    if tempered and f.space.dim > 0 and not points:
        problems.append("certificate has no rays")
    return problems
