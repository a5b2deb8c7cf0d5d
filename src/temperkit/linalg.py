"""Small exact linear algebra helpers over integer matrices.

Dense matrices are lists of lists of int (row major); sparse matrices are
dicts {(row, col): int} of their nonzero entries, a rational matrix times
a positive scale.  Row reduction is fraction-free: rref keeps every row
integer and primitive, so no Fraction arithmetic happens here.  Everything
is exact; numpy is deliberately not used so there is no precision cliff
in the decision path.
"""

from __future__ import annotations

import math
from typing import Hashable, Mapping, Optional, Sequence

Sparse = dict[tuple[int, int], int]


def to_sparse(M: Sequence[Sequence]) -> tuple[Sparse, int]:
    """(S, scale): the nonzero entries of the rational matrix M times scale,
    the least common multiple of their denominators, so S is integer."""
    nonzero = [((a, b), x) for a, row in enumerate(M)
               for b, x in enumerate(row) if x]
    scale = math.lcm(*(x.denominator for _, x in nonzero))
    return {key: x.numerator * (scale // x.denominator)
            for key, x in nonzero}, scale


def sparse_mul(A: Sparse, B: Sparse) -> Sparse:
    B_rows: dict[int, list[tuple[int, int]]] = {}
    for (k, j), b in B.items():
        B_rows.setdefault(k, []).append((j, b))
    out: Sparse = {}
    for (i, k), a in A.items():
        for j, b in B_rows.get(k, ()):
            out[i, j] = out.get((i, j), 0) + a * b
    return {key: x for key, x in out.items() if x}


def sparse_commutator(A: Sparse, B: Sparse) -> Sparse:
    out = sparse_mul(A, B)
    for key, x in sparse_mul(B, A).items():
        out[key] = out.get(key, 0) - x
    return {key: x for key, x in out.items() if x}


def _primitive(row: list[int], negate: bool = False) -> list[int]:
    g = -math.gcd(*row) if negate else math.gcd(*row)
    return row if g in (0, 1) else [x // g for x in row]


def rref(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form of integer rows: (nonzero rows, pivot
    columns), each row the primitive multiple of its RREF row with a
    positive pivot entry.  Against a pivot row with entry p, a row with
    entry x becomes (p/g)*row - (x/g)*pivot over its content, g = gcd(p, x)."""
    rows = [list(r) for r in rows]
    pivots: list[int] = []
    for col in range(len(rows[0]) if rows else 0):
        rank = len(pivots)
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        pivot = _primitive(rows[piv], rows[piv][col] < 0)
        rows[piv], rows[rank] = rows[rank], pivot
        p = pivot[col]
        for i, row in enumerate(rows):
            x = row[col]
            if x and i != rank:
                g = math.gcd(p, x)
                a, b = p // g, x // g
                rows[i] = _primitive([y - b * z for y, z in zip(row, pivot)] if a == 1
                                     else [a * y - b * z for y, z in zip(row, pivot)])
        pivots.append(col)
        if len(pivots) == len(rows):
            break
    return rows[:len(pivots)], pivots


def solve(A: Sequence[Sequence[int]],
          columns: Sequence[Sequence[int]]) -> Optional[tuple[list[list[int]], int]]:
    """(X, s) with X[k] = s * A^-1 columns[k] for the square integer matrix
    A and the least common multiple s > 0 of the pivot entries of rref([A |
    columns]), or None if A is singular."""
    n = len(A)
    rows, pivots = rref([list(row) + [c[i] for c in columns]
                         for i, row in enumerate(A)])
    if pivots[:n] != list(range(n)):
        return None
    s = math.lcm(*(row[i] for i, row in enumerate(rows)))
    return [[row[j] * (s // row[i]) for i, row in enumerate(rows)]
            for j in range(n, n + len(columns))], s


def in_span(rows: Sequence[Sequence[tuple[Hashable, int]]],
            pivots: Sequence[Hashable], vec: Mapping[Hashable, int]) -> bool:
    """Whether the sparse vector vec, {column: value}, is in the row span of
    an rref given as the nonzero (column, value) pairs of each row, pivot
    first, and its pivot columns: at each pivot c, in order, scaling vec by
    p/g and subtracting x/g times the row, for p = row[c], x = vec[c] and
    g = gcd(p, x), must leave zero."""
    v = dict(vec)
    for row, c in zip(rows, pivots):
        x = v.get(c)
        if x:
            p = row[0][1]
            g = math.gcd(p, x)
            if p != g:
                v = {j: y * (p // g) for j, y in v.items()}
            for j, y in row:
                v[j] = v.get(j, 0) - x // g * y
    return not any(v.values())
