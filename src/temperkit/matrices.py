"""Matrix mode: a pair's weights extracted from explicit rational matrix
bases by simultaneous eigenspace decomposition, an independent cross-check
of the family builders; only matrix_pair questions load it.  A sparse
matrix is the nonzero entries ((row, col), int) of a rational matrix times
a positive scale; products take the right factor's row_index, built once.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from operator import sub
from typing import Hashable, Iterable, Mapping, Optional, Sequence

from .errors import (BasisError, BracketClosureError, ContainmentError,
                     DecompositionError)
from .linalg import rref
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


def reduce_components(vectors: Sequence[Mapping[Hashable, int]]) -> dict:
    """The rref of the sparse integer vectors, each the nonzero entries
    {column: value} over sortable columns, as {pivot: the nonzero (column,
    value) pairs of its row in column order, pivot first}; the rank is its
    length.  Two vectors are linked when they share a column.  A connected
    component's span lies on its own columns, so the span is the direct
    sum of the components' spans, and as RREF is unique, its rref is the
    union of theirs: one linalg.rref per component, over its columns in
    order.  A component of one vector is that vector over the gcd of its
    entries, signed to make its pivot entry positive, so [(column, 1)] if
    it has one entry, and needs no rref call."""
    parent = list(range(len(vectors)))

    def root(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    owner: dict = {}
    for i, vec in enumerate(vectors):
        for c in vec:
            j = owner.setdefault(c, i)
            if j != i:
                parent[root(j)] = root(i)
    groups: dict[int, list] = {}
    for i, vec in enumerate(vectors):
        groups.setdefault(root(i), []).append(vec)
    out = {}
    for group in groups.values():
        if len(group) == 1:
            vec, = group
            if len(vec) == 1:
                c, = vec
                out[c] = [(c, 1)]
            elif vec:
                cols = sorted(vec)
                g = math.gcd(*vec.values()) * (1 if vec[cols[0]] > 0 else -1)
                out[cols[0]] = [(c, vec[c] // g) for c in cols]
            continue
        cols = sorted({c for vec in group for c in vec})
        rows, pivots = rref([[vec.get(c, 0) for c in cols] for vec in group])
        for row, p in zip(rows, pivots):
            out[cols[p]] = [(cols[j], x) for j, x in enumerate(row) if x]
    return out


def extract_weights(inp: MatrixPairInput) -> PairSpec:
    """Joint ad-eigenspace decomposition of h and g/h under the torus.

    Conjugated by the diagonalizer Q, the torus is diagonal, diag(mu), and
    the unit matrix E_ab has weight mu_a - mu_b; this splits the n*n matrix
    coordinates into weight blocks.  Each matrix is read as the input holds
    it, sparse and integer, scaled by its own positive factor, which changes
    no test below.  s*Q^-1 comes from the rref of [Q | I]; Q's rows and
    s*Q^-1's columns are indexed once, and Q^-1 M Q is one pass over M's
    entries against them, made once for each distinct matrix of the
    input, as h's matrices are mostly g's too.  The rrefs of [Q | I] and
    of each basis are taken by reduce_components, one connected component
    of the support at a time, and are the rrefs of the dense rows.
    Independence is the row count of each conjugated basis's RREF (for the
    torus, of its diagonals); h in g and closure under brackets, formed
    from the h matrices' row indexes, are tests against an RREF at the
    vector's own pivots (in_span).  A bracket [A, B] is formed only when
    A's columns meet B's rows or B's columns meet A's rows; otherwise
    AB = BA = 0.  A span is torus-stable
    exactly when it is the direct sum of its pieces in the blocks; RREF is
    unique, so the RREF of that sum is the union of the pieces' RREFs.
    Hence the span is stable exactly when every RREF row lies in one
    block, else DecompositionError, and a weight's multiplicity is the
    number of RREF rows with their pivot in its block, its row mu_a - mu_b
    over L = lcm of the torus scales.  A position's block is computed only
    for a row of two or more entries; pivots are counted by the torus
    coordinates of their ends, and each pair's difference is taken once.
    Once every Q^-1 T Q is diagonal the torus commutes, as conjugation
    keeps commutators; that needs no separate test.
    """
    n = inp.ambient_dim
    Q_rows = row_index(inp.diagonalizer[0])
    inverse = reduce_components([{**dict(Q_rows.get(a, ())), n + a: 1} for a in range(n)])
    if any(a not in inverse for a in range(n)):
        raise BasisError("diagonalizer: matrix is singular")
    # the columns of s*Q^-1, for s the lcm of the pivot entries; the scale
    # of Q cancels in Q^-1 M Q, leaving s
    s = math.lcm(*(inverse[a][0][1] for a in range(n)))
    Qi_cols: list[list] = [[] for _ in range(n)]
    for a in range(n):
        (_, p), *rest = inverse[a]
        for j, x in rest:
            Qi_cols[j - n].append((a, x * (s // p)))
    conjugated: dict = {}

    def conjugate(held) -> tuple[Sparse, int]:
        result = conjugated.get(held)
        if result is None:
            M, scale = held
            out: Sparse = {}
            for (b, k), x in M:
                for c, q in Q_rows.get(k, ()):
                    for a, y in Qi_cols[b]:
                        out[a, c] = out.get((a, c), 0) + y * x * q
            result = conjugated[held] = {key: x for key, x in out.items() if x}, scale * s
        return result

    diags = [conjugate(T) for T in inp.torus_basis]
    if any(a != b for D, _ in diags for a, b in D):
        raise DecompositionError("torus is not diagonal in the supplied basis")
    # mu_a, the torus coordinates over L; E_ab's block is keyed by
    # mu_a - mu_b, which is its weight over L
    L = math.lcm(*(scale for _, scale in diags))
    mu = [tuple(D.get((a, a), 0) * (L // scale) for D, scale in diags) for a in range(n)]
    if len(rref(list(zip(*mu)))[0]) != len(diags):
        raise BasisError("torus_basis: matrices are linearly dependent")

    def block(key) -> tuple:
        a, b = key
        return tuple(map(sub, mu[a], mu[b]))

    h_mats = [conjugate(M)[0] for M in inp.h_basis]
    reduced = {}
    for name, mats in (("h_basis", h_mats),
                       ("g_basis", [conjugate(M)[0] for M in inp.g_basis])):
        reduced[name] = reduce_components(mats)
        if len(reduced[name]) != len(mats):
            raise BasisError(f"{name}: matrices are linearly dependent")
    for i, M in enumerate(h_mats):
        if not in_span(reduced["g_basis"], M):
            raise ContainmentError(f"h_basis[{i}] is not in the span of g_basis")
    # [A, B] = AB - BA is formed only for pairs that overlap
    indexed = [(M.items(), row_index(M.items())) for M in h_mats]
    cols = [{b for _, b in M} for M in h_mats]
    with_row: dict[int, list[int]] = {}
    with_col: dict[int, list[int]] = {}
    for i, (_, rA) in enumerate(indexed):
        for a in rA:
            with_row.setdefault(a, []).append(i)
        for b in cols[i]:
            with_col.setdefault(b, []).append(i)
    for i, (A, rA) in enumerate(indexed):
        meets = {j for b in cols[i] for j in with_row.get(b, ()) if j > i}
        meets.update(j for a in rA for j in with_col.get(a, ()) if j > i)
        for j in meets:
            B, rB = indexed[j]
            if not in_span(reduced["h_basis"], sparse_mul(B, rA, sparse_mul(A, rB), -1)):
                raise BracketClosureError("h basis does not span a subalgebra")

    def multiplicities(name) -> Counter:
        for c, row in reduced[name].items():
            if len(row) > 1 and any(block(j) != block(c) for j, _ in row[1:]):
                raise DecompositionError(
                    f"{name}: span is not stable under the torus")
        # pivots counted by their ends' torus coordinates, which many share
        ends = Counter((mu[a], mu[b]) for a, b in reduced[name])
        out: Counter = Counter()
        for (x, y), m in ends.items():
            out[tuple(map(sub, x, y))] += m
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
