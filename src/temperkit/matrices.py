"""Matrix mode: a pair's weights extracted from explicit rational matrix
bases by simultaneous eigenspace decomposition, an independent cross-check
of the family builders; only matrix_pair questions load it.  A sparse
matrix is the nonzero entries ((row, col), int) of a rational matrix times
a positive scale; products take the right factor's row_index, built once.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from operator import sub
from typing import Hashable, Iterable, Mapping, Optional, Sequence

from .errors import (BasisError, BracketClosureError, ContainmentError,
                     DecompositionError)
from .linalg import rref, solve
from .model import PairSpec, Record, TorusSpace, WeightModule

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


class MatrixPairInput(Record):
    """Explicit matrix realization of a pair h inside g in gl(ambient_dim).

    Each matrix is given dense, as nested rationals, and held in the sparse
    integer form of to_sparse, (entries, scale); that form is unique, so
    two inputs are equal exactly when their matrices are.
    diagonalizer is a rational change of basis Q such that every
    Q^-1 T Q, T in torus_basis, is diagonal; it must be supplied by the
    caller so the whole pipeline stays rational.
    """

    __slots__ = _fields = ("ambient_dim", "g_basis", "h_basis", "torus_basis",
                           "diagonalizer", "metadata")

    def __init__(self, ambient_dim: int, g_basis: tuple, h_basis: tuple,
                 torus_basis: tuple, diagonalizer: tuple,
                 metadata: Optional[dict] = None):
        n = ambient_dim

        def held(M, error):
            if len(M) != n or any(len(row) != n for row in M):
                raise ValueError(error)
            return to_sparse(M)

        bases = [tuple(held(M, f"{name} entries must be {n}x{n}") for M in basis)
                 for name, basis in zip(self.__slots__[1:],
                                        (g_basis, h_basis, torus_basis))]
        Q = held(diagonalizer, "diagonalizer must be square of ambient size")
        self._set(n, *bases, Q, {} if metadata is None else metadata)


def extract_weights(inp: MatrixPairInput) -> PairSpec:
    """Joint ad-eigenspace decomposition of h and g/h under the torus.

    Conjugated by the diagonalizer Q, the torus is diagonal, diag(mu), and
    the unit matrix E_ab has weight mu_a - mu_b; this splits the n*n matrix
    coordinates into weight blocks.  Each matrix is read as the input holds
    it, sparse and integer, scaled by its own positive factor, which changes
    no test below.  Q's rows and Q^-1's columns are indexed once; Q^-1 M Q is
    a pass over M's entries, then one over MQ's.  Independence is the row
    count of each conjugated basis's RREF (for the torus, of its diagonals);
    h in g and closure under brackets, formed from the h matrices' row
    indexes, are tests against an RREF at the vector's own pivots
    (in_span).  A span is torus-stable exactly when it is the direct
    sum of its pieces in the blocks; RREF is unique, so the RREF of that
    sum is the union of the pieces' RREFs.  Hence the span is stable
    exactly when every RREF row lies in one block, else DecompositionError,
    and a weight's multiplicity is the number of RREF rows with their pivot
    in its block, its row mu_a - mu_b over L = lcm of the torus scales.
    Once every Q^-1 T Q is diagonal the torus commutes, as conjugation
    keeps commutators; that needs no separate test.
    """
    n = inp.ambient_dim
    Q = dict(inp.diagonalizer[0])
    inverse = solve([[Q.get((a, b), 0) for b in range(n)] for a in range(n)],
                    [[int(a == b) for a in range(n)] for b in range(n)])
    if inverse is None:
        raise BasisError("diagonalizer: matrix is singular")
    # Q's rows and the columns of s*Q^-1; the scale of Q cancels in
    # Q^-1 M Q, leaving s
    Q_rows, s = row_index(Q.items()), inverse[1]
    Qi_cols = [[(a, x) for a, x in enumerate(col) if x] for col in inverse[0]]

    def conjugate(held) -> tuple[Sparse, int]:
        M, scale = held
        out: Sparse = {}
        for (b, c), x in sparse_mul(M, Q_rows).items():
            for a, y in Qi_cols[b]:
                out[a, c] = out.get((a, c), 0) + y * x
        return {key: x for key, x in out.items() if x}, scale * s

    diags = [conjugate(T) for T in inp.torus_basis]
    if any(a != b for D, _ in diags for a, b in D):
        raise DecompositionError("torus is not diagonal in the supplied basis")
    # mu_a, the torus coordinates over L; E_ab's block is keyed by
    # mu_a - mu_b, which is its weight over L
    L = math.lcm(*(scale for _, scale in diags))
    mu = [tuple(D.get((a, a), 0) * (L // scale) for D, scale in diags) for a in range(n)]
    if len(rref(list(zip(*mu)))[0]) != len(diags):
        raise BasisError("torus_basis: matrices are linearly dependent")
    block = {(a, b): tuple(map(sub, mu[a], mu[b])) for a in range(n) for b in range(n)}

    h_mats = [conjugate(M)[0] for M in inp.h_basis]
    reduced = {}
    for name, mats in (("h_basis", h_mats),
                       ("g_basis", [conjugate(M)[0] for M in inp.g_basis])):
        flat = [[0] * (n * n) for _ in mats]
        for row, M in zip(flat, mats):
            for (a, b), x in M.items():
                row[a * n + b] = x
        rows, pivots = rref(flat)
        if len(rows) != len(mats):
            raise BasisError(f"{name}: matrices are linearly dependent")
        reduced[name] = {divmod(c, n): [(divmod(j, n), x) for j, x in enumerate(row) if x]
                         for row, c in zip(rows, pivots)}
    for i, M in enumerate(h_mats):
        if not in_span(reduced["g_basis"], M):
            raise ContainmentError(f"h_basis[{i}] is not in the span of g_basis")
    indexed = [(M.items(), row_index(M.items())) for M in h_mats]
    for (A, rA), (B, rB) in itertools.combinations(indexed, 2):
        if not in_span(reduced["h_basis"], sparse_mul(B, rA, sparse_mul(A, rB), -1)):
            raise BracketClosureError("h basis does not span a subalgebra")

    def multiplicities(name) -> Counter:
        out: Counter = Counter()
        for c, row in reduced[name].items():
            if any(block[j] != block[c] for j, _ in row):
                raise DecompositionError(
                    f"{name}: span is not stable under the torus")
            out[block[c]] += 1
        return out

    mh = multiplicities("h_basis")
    mq = multiplicities("g_basis") - mh
    # the space has no constraints, so every row is already reduced
    space = TorusSpace(len(inp.torus_basis))
    return PairSpec(g_module=WeightModule._from_integers(space, mq.items(), L),
                    h_module=WeightModule._from_integers(space, mh.items(), L),
                    metadata=dict(inp.metadata))


# ---------------------------------------------------------------------------
# quaternionic example: sp(1) + sp(1,1) inside sp(2,1)

_LQ = {
    "1": ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    "i": ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0)),
    "j": ((0, 0, -1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, -1, 0, 0)),
    "k": ((0, 0, 0, -1), (0, 0, -1, 0), (0, 1, 0, 0), (1, 0, 0, 0)),
}


def _quat_matrix(entries: dict) -> list[list[int]]:
    """12x12 real matrix from a sparse 3x3 quaternionic matrix.

    entries maps (row, col) to a dict of quaternion units to integer
    coefficients; each unit acts by left multiplication on H = R^4.
    """
    M = [[0] * 12 for _ in range(12)]
    for (r, c), q in entries.items():
        for unit, coeff in q.items():
            L = _LQ[unit]
            for a in range(4):
                for b in range(4):
                    if L[a][b]:
                        M[4 * r + a][4 * c + b] += coeff * L[a][b]
    return M


def _quat_conj(q: dict) -> dict:
    return {u: (c if u == "1" else -c) for u, c in q.items()}


def example_sp21_input() -> MatrixPairInput:
    """sp(1) + sp(1,1) inside sp(2,1), realized in gl(12, R).

    sp(2,1) is the quaternionic matrices X with X* J + J X = 0 for
    J = diag(1, 1, -1); h is the block-diagonal sp(1) (slot 0) plus
    sp(1,1) (slots 1, 2).  The split torus of h is one-dimensional,
    generated by the symmetric pair of real units in slots (1,2), (2,1).
    """
    imag = ("i", "j", "k")
    J = (1, 1, -1)

    def pair_entries(r, c, q):
        # X[c][r] is determined by X[r][c] via the signature
        sign = -J[r] * J[c]
        return {(r, c): q, (c, r): {u: sign * v for u, v in _quat_conj(q).items()}}

    h_basis = []
    for u in imag:  # sp(1): imaginary quaternions in slot 0
        h_basis.append(_quat_matrix({(0, 0): {u: 1}}))
    for slot in (1, 2):  # sp(1,1) diagonal: imaginary in slots 1 and 2
        for u in imag:
            h_basis.append(_quat_matrix({(slot, slot): {u: 1}}))
    for u in ("1",) + imag:  # sp(1,1) off-diagonal pair (1,2)
        h_basis.append(_quat_matrix(pair_entries(1, 2, {u: 1})))

    g_basis = list(h_basis)
    for r, c in ((0, 1), (0, 2)):  # the complement of h in sp(2,1)
        for u in ("1",) + imag:
            g_basis.append(_quat_matrix(pair_entries(r, c, {u: 1})))

    torus = [_quat_matrix({(1, 2): {"1": 1}, (2, 1): {"1": 1}})]
    # eigenvectors: slot-0 coordinates (eigenvalue 0), then sums and
    # differences of slot-1 and slot-2 coordinates (eigenvalues +1, -1)
    Q = [[0] * 12 for _ in range(12)]
    for a in range(4):
        Q[a][a] = Q[4 + a][4 + a] = Q[8 + a][4 + a] = Q[4 + a][8 + a] = 1
        Q[8 + a][8 + a] = -1
    return MatrixPairInput(ambient_dim=12, g_basis=tuple(g_basis),
                           h_basis=tuple(h_basis), torus_basis=tuple(torus),
                           diagonalizer=tuple(Q),
                           metadata={"family": "sp21_quaternionic"})
