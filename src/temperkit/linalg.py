"""Small exact linear algebra helpers over rational matrices.

Matrices are lists of lists of int or Fraction (row major).  Everything
here is exact; numpy is deliberately not used so there is no precision
cliff in the decision path.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Matrix = list[list[Fraction]]


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    m = len(B[0]) if B else 0
    B_nonzero = [[(j, b) for j, b in enumerate(row) if b] for row in B]
    out = []
    for Ai in A:
        row = [Fraction(0)] * m
        for a, Bt in zip(Ai, B_nonzero):
            if a:
                for j, b in Bt:
                    row[j] += a * b
        out.append(row)
    return out


def mat_sub(A: Matrix, B: Matrix) -> Matrix:
    return [[a - b if b else a for a, b in zip(ra, rb)]
            for ra, rb in zip(A, B)]


def commutator(A: Matrix, B: Matrix) -> Matrix:
    return mat_sub(mat_mul(A, B), mat_mul(B, A))


def mat_inv(A: Matrix) -> Matrix:
    """Inverse as the right half of rref([A | I]); ValueError if singular."""
    n = len(A)
    rows, pivots = rref([list(row) + [Fraction(int(i == j)) for j in range(n)]
                         for i, row in enumerate(A)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in rows]


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[Matrix, list[int]]:
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


def in_span(reduced: Matrix, pivots: Sequence[int],
            vec: Sequence[Fraction]) -> bool:
    """Whether vec is in the row span of an RREF: subtracting vec[c] times
    the row of each pivot c must leave zero."""
    v = list(vec)
    for row, c in zip(reduced, pivots):
        x = v[c]
        if x:
            for j, b in enumerate(row):
                if b:
                    v[j] -= x * b
    return not any(v)
