"""Small exact linear algebra helpers over integer matrices.

Dense matrices are lists of lists of int (row major).  Row reduction is
fraction-free: rref keeps every row integer and primitive.  Everything is
exact; numpy is deliberately not used so there is no precision cliff in
the decision path.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence


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
