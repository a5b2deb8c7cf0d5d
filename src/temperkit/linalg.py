"""Small exact linear algebra helpers over Fraction matrices.

Matrices are lists of lists of Fraction (row major).  Everything here is
exact; numpy is deliberately not used so there is no precision cliff in the
decision path.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Matrix = list[list[Fraction]]


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    n, k = len(A), len(B)
    m = len(B[0]) if B else 0
    out = [[Fraction(0)] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        for t in range(k):
            a = Ai[t]
            if a == 0:
                continue
            Bt = B[t]
            row = out[i]
            for j in range(m):
                row[j] += a * Bt[j]
    return out


def mat_sub(A: Matrix, B: Matrix) -> Matrix:
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def commutator(A: Matrix, B: Matrix) -> Matrix:
    return mat_sub(mat_mul(A, B), mat_mul(B, A))


def mat_inv(A: Matrix) -> Matrix:
    """Inverse by Gauss-Jordan; raises ValueError on singular input."""
    n = len(A)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(A)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                c = aug[i][col]
                aug[i] = [x - c * y for x, y in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


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
        rows[rank] = [x / pv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                c = rows[i][col]
                rows[i] = [x - c * y for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return rows[:rank], pivots


def rank_of(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(rref(rows)[0])


def in_row_space(rows: Matrix, vec: Sequence[Fraction]) -> bool:
    if not rows:
        return all(x == 0 for x in vec)
    return rank_of(rows) == rank_of(list(rows) + [list(vec)])
