"""Small exact linear algebra helpers over rational matrices.

Dense matrices are lists of lists of int or Fraction (row major); sparse
matrices are dicts {(row, col): int} of their nonzero entries, a rational
matrix times a positive scale.  Everything here is exact; numpy is
deliberately not used so there is no precision cliff in the decision path.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Hashable, Mapping, Sequence

Matrix = list[list[Fraction]]
Sparse = dict[tuple[int, int], int]


def to_sparse(M: Sequence[Sequence[Fraction]]) -> tuple[Sparse, int]:
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


def mat_inv(A: Matrix) -> Matrix:
    """Inverse as the right half of rref([A | I]); ValueError if singular."""
    n = len(A)
    rows, pivots = rref([list(row) + [Fraction(int(i == j)) for j in range(n)]
                         for i, row in enumerate(A)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in rows]


def pd_solve(B: Sequence[Sequence[int]], columns) -> "list[list[int]] | None":
    """adj(B) c for each integer column c, or None unless the symmetric
    integer matrix B is positive definite: fraction-free Gauss-Jordan
    elimination (Bareiss 1968) on [B | columns], whose divisions are exact
    and whose pivots are the leading principal minors (Sylvester)."""
    d = len(B)
    rows = [list(B[i]) + [c[i] for c in columns] for i in range(d)]
    prev = 1
    for k in range(d):
        p, pivot = rows[k][k], rows[k]
        if p <= 0:
            return None
        rows = [row if i == k else [(p * a - row[k] * b) // prev
                                    for a, b in zip(row, pivot)]
                for i, row in enumerate(rows)]
        prev = p
    return [list(col) for col in zip(*(row[d:] for row in rows))]


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


def in_span(rows: Sequence[Sequence[tuple[Hashable, Fraction]]],
            pivots: Sequence[Hashable], vec: Mapping[Hashable, Fraction]) -> bool:
    """Whether the sparse vector vec, {column: value}, is in the row span of
    an RREF given as the nonzero (column, value) pairs of each row and its
    pivot columns: subtracting vec[c] times the row of each pivot c, in
    pivot order, must leave zero."""
    v = dict(vec)
    for row, c in zip(rows, pivots):
        x = v.get(c)
        if x:
            for j, b in row:
                v[j] = v.get(j, 0) - x * b
    return not any(v.values())
