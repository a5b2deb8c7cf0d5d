"""Incremental cell enumeration for hyperplane arrangements on a linear slice.

The arrangement lives on the kernel of the torus constraints (the "slice").
Cells are enumerated by inserting hyperplanes one at a time into a list of
polyhedral cones, splitting cones via the double description method.  All
cones at a given stage share the same lineality space, namely the slice
intersected with the kernels of every constraint inserted so far; the code
maintains that space explicitly instead of assuming pointedness.

Every ray lives once in one shared ray table, which holds its vector and a
bitmask of the constraints it is tight on; the tight sets make the
combinatorial adjacency test a few integer AND operations.  A cone is the
list of its rays' table indices.  Each inserted hyperplane values every
ray of the table once, which gives the sets P and N of its positive and
negative rays: a cone it does not cut passes through on two disjointness
tests, and only the cones it cuts visit their rays one by one.

All vectors here are integer tuples in the coordinates the slice basis is
given in; normal vectors of hyperplanes are integer tuples in the same
coordinates.  No division ever happens except exact gcd normalization.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from operator import mul

from .model import Record


def _dot(a, b) -> int:
    return sum(map(mul, a, b))


def _primitive(vec):
    g = math.gcd(*vec)
    if g <= 1:
        return tuple(vec)
    return tuple(v // g for v in vec)


class Cell(Record):
    """A full-dimensional cell, given by its primitive extreme rays."""

    __slots__ = _fields = ("rays",)
    __hash__ = None

    def __init__(self, rays: tuple[tuple[int, ...], ...]):
        self._set(rays)


class CellComplex(Record):
    """The rays of the cells, each once, and the basis of the cells' common
    lineality space, read off the ray table; ``cells`` is built on first
    use from each cell's table indices.  ``_table`` holds the ray vector of
    each table index, ``_cones`` the table indices of each cell."""

    __slots__ = ("rays", "lineality", "_table", "_cones", "_cells")
    _fields = __slots__[:2]
    __hash__ = None

    def __init__(self, rays: list[tuple[int, ...]], lineality: list[tuple[int, ...]],
                 _table: list, _cones: list):
        self._set(rays, lineality, _table, _cones, None)

    @property
    def count(self) -> int:
        return len(self._cones)

    @property
    def cells(self) -> list[Cell]:
        if self._cells is None:
            cells = [Cell(tuple(self._table[i] for i in rays)) for rays in self._cones]
            object.__setattr__(self, "_cells", cells)
        return self._cells


def _split_lineality(L, hL, j):
    """Basis of L ∩ ker h given values hL of h on the generators, pivot j."""
    hj = hL[j]
    new = []
    for i, g in enumerate(L):
        if i == j:
            continue
        if hL[i] == 0:
            new.append(g)
        else:
            new.append(_primitive(tuple(hj * a - hL[i] * b
                                        for a, b in zip(g, L[j]))))
    return new


def _insert_case1(table, tight, cones, L, hL, h, k, wall):
    """Insert constraint number k, h, that is nonzero on the lineality space.

    Every cone meets both open sides, so every cone splits in two.  Rays
    are projected into ker h along a lineality vector w with h(w) > 0; the
    vector w itself (resp. -w) becomes the one new ray of the plus (resp.
    minus) side.  A ``wall`` keeps only its plus side.
    """
    j = next(i for i, v in enumerate(hL) if v != 0)
    w = L[j] if hL[j] > 0 else tuple(-x for x in L[j])
    hw = abs(hL[j])
    new_L = _split_lineality(L, hL, j)

    # w lies in the lineality space, so it is tight on every earlier
    # constraint, and a ray moved along it into ker h keeps its tight set;
    # no ray of the earlier stage is read again, so each moves in place
    bit = 1 << k
    for i, v in enumerate(table):
        if hr := _dot(h, v):
            table[i] = _primitive(tuple(hw * a - hr * b for a, b in zip(v, w)))
        tight[i] |= bit
    plus, minus = len(table), len(table) + 1
    table += [w, tuple(-x for x in w)]
    tight += [bit - 1, bit - 1]

    out = []
    for rays in cones:
        out.append(rays + [plus])
        if not wall:
            out.append(rays + [minus])
    return out, new_L


def _adjacent(T: int, tight, rays) -> bool:
    """Whether p and n, with T the tight set they share, span a face of the
    cone with these rays: exactly two of them, p and n, are tight on all
    of T."""
    seen = 0
    for r in rays:
        if tight[r] & T == T:
            seen += 1
            if seen > 2:
                return False
    return True


def _insert_case2(table, tight, cones, h, k, wall, need):
    """Insert constraint number k, h, vanishing on the lineality space: the
    classic DD split.

    A ``wall`` keeps only its plus side.  need is the dimension of the
    cones modulo their lineality space, minus 2: two adjacent rays of a
    pointed cone of dimension d share at least d - 2 tight constraints, so
    fewer rule adjacency out at once.

    Adjacency of a pair (p, n) is decided once per insertion, in the first
    cone that holds both.  It is a property of the fan, not of the cell:
    if p and n lie in cells C1 and C2, then cone(p, n) lies in C1 ∩ C2, a
    common face of both, so cone(p, n) is a face of C1 exactly when it is
    a face of C2.
    """
    vals = [_dot(h, v) for v in table]
    bit = 1 << k
    P = {i for i, v in enumerate(vals) if v > 0}
    N = {i for i, v in enumerate(vals) if v < 0}
    for i, v in enumerate(vals):
        if not v:
            tight[i] |= bit
    combos: dict[int, int] = {}     # the new ray of (p, n), or -1
    stride = len(table)             # key of (p, n): p * stride + n
    out = []
    for rays in cones:
        if N.isdisjoint(rays):
            if P.isdisjoint(rays):
                raise AssertionError("hyperplane vanishes on a full-dimensional cell")
            out.append(rays)
            continue
        if P.isdisjoint(rays):
            if not wall:
                out.append(rays)
            continue
        # by value: negative rays[:i], zero rays[i:j], positive rays[j:]
        rays = sorted(rays, key=vals.__getitem__)
        i = bisect_left(rays, 0, key=vals.__getitem__)
        j = bisect_right(rays, 0, lo=i, key=vals.__getitem__)
        neg = rays[:i]
        new_rays = []
        for p in rays[j:]:
            base = p * stride
            for n in neg:
                r = combos.get(base + n)
                if r is None:
                    T = tight[p] & tight[n]
                    r = combos[base + n] = (len(table) if T.bit_count() >= need
                                            and _adjacent(T, tight, rays) else -1)
                    if r >= 0:
                        # p and n lie on one closed side of every earlier
                        # constraint, so their positive combination is
                        # tight exactly where both are
                        hp, hn = vals[p], vals[n]
                        table.append(_primitive(tuple(
                            hp * a - hn * b for a, b in zip(table[n], table[p]))))
                        tight.append(T | bit)
                if r >= 0:
                    new_rays.append(r)
        out.append(rays[i:] + new_rays)
        if not wall:
            out.append(rays[:j] + new_rays)
    return out


def _insert(table, tight, cones, L, h, k, wall, d):
    """Insert constraint number k, h, into the cones on a slice of
    dimension d; returns the new cones and lineality basis."""
    hL = [_dot(h, g) for g in L]
    if any(hL):
        return _insert_case1(table, tight, cones, L, hL, h, k, wall)
    return _insert_case2(table, tight, cones, h, k, wall, d - len(L) - 2), L


def _cuts(h, rays, L) -> bool:
    """Whether h may cut the chamber the walls bound, with these rays and
    lineality basis L.  It cannot when it vanishes on L and its values on
    the rays have one sign, not all zero: then every cell inside lies on
    one closed side of h, and h is zero only on a face of the chamber.  A
    facet of a cell in that face is a facet of the chamber too, and a wall
    already bounds it, so the tight bits h would add change no adjacency
    test."""
    if any(_dot(h, g) for g in L):
        return True
    vals = [_dot(h, v) for v in rays]
    return not (any(vals) and (min(vals) >= 0 or max(vals) <= 0))


def enumerate_cells(hyperplanes, slice_basis, restrict=()):
    """All full-dimensional cells of the arrangement on the slice.

    hyperplanes: integer normal vectors, each nonzero on the slice and
        pairwise non-proportional.
    slice_basis: integer basis of the slice (kernel of torus constraints).
    restrict: integer normals of walls; only the region where all of them
        are >= 0 is enumerated.  Used for symmetry-reduced enumeration.
        They are inserted first, and a hyperplane that does not cut that
        region (_cuts) is then left out.

    Returns a CellComplex; the lineality basis spans the subspace common to
    every cell (the slice intersected with all hyperplane kernels).
    """
    L = [tuple(g) for g in slice_basis]
    d = len(L)
    table: list[tuple[int, ...]] = []
    tight: list[int] = []           # tight-set bitmask of each table ray
    cones = [[]]                    # each cone's table indices
    for k, h in enumerate(restrict):
        cones, L = _insert(table, tight, cones, L, tuple(h), k, True, d)
    chamber = [table[i] for i in set().union(*cones)]
    rows = [h for h in map(tuple, hyperplanes) if _cuts(h, chamber, L)]
    for k, h in enumerate(rows, len(restrict)):
        cones, L = _insert(table, tight, cones, L, h, k, False, d)

    live = set().union(*cones)
    return CellComplex(rays=[v for i, v in enumerate(table) if i in live],
                       lineality=list(L), _table=table, _cones=cones)
