"""Incremental cell enumeration for hyperplane arrangements on a linear slice.

The arrangement lives on the kernel of the torus constraints (the "slice").
Cells are enumerated by inserting hyperplanes one at a time into a list of
polyhedral cones, splitting cones via the double description method.  All
cones at a given stage share the same lineality space, namely the slice
intersected with the kernels of every constraint inserted so far; the code
maintains that space explicitly instead of assuming pointedness.

Rays are shared between sibling cones.  Each ray caches its value under
every inserted constraint plus a bitmask of the constraints it is tight on,
which makes the combinatorial adjacency test a few integer AND operations.

All vectors here are integer tuples in ambient coordinates; normal vectors
of hyperplanes are integer tuples as well.  No division ever happens except
exact gcd normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def _primitive(vec):
    g = math.gcd(*vec)
    if g <= 1:
        return tuple(vec)
    return tuple(v // g for v in vec)


class _Ray:
    __slots__ = ("vec", "vals", "zmask")

    def __init__(self, vec, vals, zmask):
        self.vec = vec
        self.vals = vals
        self.zmask = zmask

    def append_val(self, k: int, v: int):
        self.vals.append(v)
        if v == 0:
            self.zmask |= 1 << k


@dataclass
class Cell:
    """A full-dimensional cell, given by its extreme rays."""

    rays: tuple[tuple[int, ...], ...]  # integer ambient vectors


@dataclass
class CellComplex:
    cells: list[Cell]
    lineality: list[tuple[int, ...]]   # basis of the common lineality space


def _adjacent(p: _Ray, n: _Ray, rays) -> bool:
    T = p.zmask & n.zmask
    for r in rays:
        if r is p or r is n:
            continue
        if r.zmask & T == T:
            return False
    return True


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


def _insert_case1(cones, L, hL, h, k, wall):
    """Insert constraint h that is nonzero on the lineality space.

    Every cone meets both open sides, so every cone splits in two.  Rays
    are projected into ker h along a lineality vector w with h(w) > 0; the
    vector w itself (resp. -w) becomes the one new ray of the plus (resp.
    minus) side.  A ``wall`` keeps only its plus side.
    """
    j = next(i for i, v in enumerate(hL) if v != 0)
    w = L[j] if hL[j] > 0 else tuple(-x for x in L[j])
    hw = abs(hL[j])
    new_L = _split_lineality(L, hL, j)

    zeros_mask = (1 << k) - 1
    w_ray = _Ray(w, [0] * k + [hw], zeros_mask)
    nw_ray = _Ray(tuple(-x for x in w), [0] * k + [-hw], zeros_mask)

    adjusted: dict[int, _Ray] = {}

    def adjust(r: _Ray) -> _Ray:
        got = adjusted.get(id(r))
        if got is not None:
            return got
        hr = _dot(h, r.vec)
        if hr == 0:
            r.append_val(k, 0)
            new = r
        else:
            raw = tuple(hw * a - hr * b for a, b in zip(r.vec, w))
            vec = _primitive(raw)
            scale = raw[0] // vec[0] if vec[0] else next(
                a // b for a, b in zip(raw, vec) if b)
            vals = [hw * v // scale for v in r.vals]
            vals.append(0)
            zmask = 0
            for i, v in enumerate(vals):
                if v == 0:
                    zmask |= 1 << i
            new = _Ray(vec, vals, zmask)
        adjusted[id(r)] = new
        return new

    out = []
    for cone in cones:
        proj = [adjust(r) for r in cone]
        out.append(proj + [w_ray])
        if not wall:
            out.append(proj + [nw_ray])
    return out, new_L


def _insert_case2(cones, h, k, wall):
    """Insert constraint h vanishing on the lineality space: classic DD split.

    A ``wall`` keeps only its plus side.
    """
    valued: set[int] = set()
    combos: dict[tuple[int, int], _Ray] = {}
    out = []
    for cone in cones:
        pos, neg, zero = [], [], []
        for r in cone:
            if id(r) not in valued:
                r.append_val(k, _dot(h, r.vec))
                valued.add(id(r))
            v = r.vals[k]
            if v > 0:
                pos.append(r)
            elif v < 0:
                neg.append(r)
            else:
                zero.append(r)
        if not pos and not neg:
            raise AssertionError("hyperplane vanishes on a full-dimensional cell")
        if not neg:
            out.append(cone)
            continue
        if not pos:
            if not wall:
                out.append(cone)
            continue
        new_rays = []
        for p in pos:
            for n in neg:
                if not _adjacent(p, n, cone):
                    continue
                key = (id(p), id(n))
                ray = combos.get(key)
                if ray is None:
                    hp, hn = p.vals[k], n.vals[k]
                    raw = tuple(hp * a - hn * b for a, b in zip(n.vec, p.vec))
                    vec = _primitive(raw)
                    scale = next(a // b for a, b in zip(raw, vec) if b)
                    vals = [(hp * nv - hn * pv) // scale
                            for pv, nv in zip(p.vals, n.vals)]
                    zmask = 0
                    for i, v in enumerate(vals):
                        if v == 0:
                            zmask |= 1 << i
                    ray = _Ray(vec, vals, zmask)
                    combos[key] = ray
                new_rays.append(ray)
        out.append(pos + zero + new_rays)
        if not wall:
            out.append(neg + zero + new_rays)
    return out


def enumerate_cells(hyperplanes, slice_basis, restrict=()):
    """All full-dimensional cells of the arrangement on the slice.

    hyperplanes: integer normal vectors, each nonzero on the slice and
        pairwise non-proportional.
    slice_basis: integer basis of the slice (kernel of torus constraints).
    restrict: integer normals of walls; only the region where all of them
        are >= 0 is enumerated.  Used for symmetry-reduced enumeration.

    Returns a CellComplex; the lineality basis spans the subspace common to
    every cell (the slice intersected with all hyperplane kernels).
    """
    L = [tuple(g) for g in slice_basis]
    cones = [[]]        # each cone is the list of its rays
    inserts = ([(tuple(h), True) for h in restrict]
               + [(tuple(h), False) for h in hyperplanes])
    for k, (h, wall) in enumerate(inserts):
        hL = [_dot(h, g) for g in L]
        if any(hL):
            cones, L = _insert_case1(cones, L, hL, h, k, wall)
        else:
            cones = _insert_case2(cones, h, k, wall)

    cells = [Cell(rays=tuple(r.vec for r in cone)) for cone in cones]
    return CellComplex(cells=cells, lineality=list(L))
