"""Small exact linear algebra helpers over integer matrices.

Dense matrices are lists of lists of int (row major); sparse matrices are
the nonzero entries ((row, col), int) of a rational matrix times a
positive scale (a dict, or to_sparse's tuple), whose products take the
right factor's row_index, built once.  Row reduction is fraction-free:
rref keeps every row integer and primitive, so no Fraction arithmetic
happens past to_sparse.  Everything is exact; numpy is deliberately not
used so there is no precision cliff in the decision path.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Hashable, Iterable, Mapping, Optional, Sequence

Sparse = dict[tuple[int, int], int]
Entries = Iterable[tuple[tuple[int, int], int]]
Index = dict[int, list[tuple[int, int]]]


def to_sparse(M: Sequence[Sequence]) -> tuple[tuple, int]:
    """(entries, scale): the nonzero entries ((row, col), x) of the dense
    rational matrix M in row-major order times scale, the lcm of their
    denominators, so every x is an int; unique, and ((), 1) for M = 0."""
    entries = [((a, b), x if type(x) is int else Fraction(x))
               for a, row in enumerate(M) for b, x in enumerate(row)
               if x or type(x) is not int]  # so a false None still raises
    scale = math.lcm(*(x.denominator for _, x in entries))
    return tuple([(key, x.numerator * (scale // x.denominator))
                  for key, x in entries if x]), scale


def row_index(S: Entries) -> Index:
    """The entries of S by row: {i: [(j, S[i][j])]}."""
    out: Index = {}
    for (i, j), x in S:
        out.setdefault(i, []).append((j, x))
    return out


def sparse_mul(A: Entries, B: Index, out: Optional[Sparse] = None, sign: int = 1) -> Sparse:
    """out plus sign*A*B, for B given by its row_index; zero entries stay."""
    out = {} if out is None else out
    for (i, k), x in A:
        x *= sign
        for j, y in B.get(k, ()):
            out[i, j] = out.get((i, j), 0) + x * y
    return out


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


def in_span(reduced: Mapping[Hashable, Sequence[tuple[Hashable, int]]],
            vec: Mapping[Hashable, int]) -> bool:
    """Whether the sparse vector vec, {column: value}, is in the row span of
    an rref given as {pivot: the nonzero (column, value) pairs of its row,
    pivot first}: reducing at each pivot c in vec's support, scaling vec by
    p/g and subtracting x/g times the row, for p = row[c], x = vec[c] and
    g = gcd(p, x), must leave zero.  A row is zero at every other pivot, so
    a step only rescales vec there and the order does not matter."""
    v = dict(vec)
    for c, row in [(c, reduced[c]) for c, x in vec.items() if x and c in reduced]:
        x, p = v[c], row[0][1]
        g = math.gcd(p, x)
        if p != g:
            v = {j: y * (p // g) for j, y in v.items()}
        for j, y in row:
            v[j] = v.get(j, 0) - x // g * y
    return not any(v.values())
