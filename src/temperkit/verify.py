"""Global nonnegativity decision for homogeneous piecewise-linear functions.

A PLFunction sum c*|row.Y| + ell(Y) is concave on each full-dimensional
cell of the arrangement of its hyperplanes with c > 0: there the terms with
c > 0 are linear and those with c < 0 are concave everywhere.  Being also
positively homogeneous, it is superadditive on the cell, so it is
nonnegative there exactly when it is nonnegative on the cell's extreme rays
and on the common lineality space.  Enumerating the cells and checking ray
values therefore decides global nonnegativity exactly, yielding either a
replayable certificate (the rays and their values) or an explicit
direction where the function is negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .cones import enumerate_cells
from .errors import SymmetryError
from .model import (PLFunction, SymmetryBlock, _canonical_terms,
                    _check_symmetry_coords, _dot, evaluate_pl)


@dataclass(frozen=True)
class NonnegCertificate:
    """Proof that f >= 0: its value at every listed ray is >= 0.

    The rays are the extreme rays of the cells of the arrangement of f's
    hyperplanes with a positive coefficient, followed by the +- generators
    of their common lineality space.  f is concave on each cell, so at every
    point the rays cover it is at least a nonnegative combination of ray
    values.
    ``symmetry_reduced`` means the rays cover one fundamental domain of the
    declared symmetry only; when it is false they cover the whole slice.
    ``chamber_count`` counts the cells enumerated; it is not part of the proof.
    """

    rays: tuple[tuple[int, ...], ...]       # ambient coords
    ray_values: tuple[Fraction, ...]        # f at each ray, all >= 0
    symmetry_reduced: bool = False
    chamber_count: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Witness:
    direction: tuple                        # exact rationals, ambient coords
    value: Fraction


def _dominant_restrict(symmetry: Sequence[SymmetryBlock], ambient_dim: int):
    """Inequality normals cutting out one fundamental domain per symmetry block."""
    normals = []
    for block in symmetry:
        coords = block.coords
        for a, b in zip(coords, coords[1:]):
            v = [0] * ambient_dim
            v[a], v[b] = 1, -1
            normals.append(tuple(v))
        if block.signed and coords:
            v = [0] * ambient_dim
            v[coords[-1]] = 1
            normals.append(tuple(v))
    return normals


def _restricted(f: PLFunction, vectors):
    """f on sum_j y_j v_j, for ``vectors`` v_j in the slice, in canonical
    form: (linear, terms) with f.den*f = linear.y + sum c*|row.y|."""
    return ([_dot(f.linear, v) for v in vectors],
            _canonical_terms((c, [_dot(row, v) for v in vectors])
                             for c, row in f.terms))


def _check_symmetry(f: PLFunction, symmetry: Sequence[SymmetryBlock],
                    restricted) -> None:
    """Verify f is invariant under the generators of the symmetry group.

    ``restricted`` is _restricted(f, slice basis).  The generators of a
    block are the transpositions of its adjacent coordinates and, when it
    is signed, the sign flip of its last coordinate.  Each generator s maps
    the slice basis b_j to s(b_j).  As s is invertible, it preserves the
    slice exactly when every constraint row vanishes on each s(b_j); then
    f o s = f exactly when f restricted to the images s(b_j) equals f
    restricted to the basis (see _canonical_terms).
    Raises SymmetryError naming the block, for bad coords or a failing generator.
    """
    space = f.space
    _check_symmetry_coords(symmetry, space.ambient_dim)
    basis = space.slice_basis()
    for i, block in enumerate(symmetry):
        c = block.coords
        # (a, b, s) maps Y to Y' with Y'[a] = s*Y[b] and Y'[b] = s*Y[a]
        generators = [(a, b, 1) for a, b in zip(c, c[1:])]
        if block.signed and c:
            generators.append((c[-1], c[-1], -1))
        for a, b, s in generators:
            images = []
            for v in basis:
                w = list(v)
                w[a], w[b] = s * v[b], s * v[a]
                images.append(w)
            name = (f"the swap of coordinates {a} and {b}" if s > 0
                    else f"the sign flip of coordinate {a}")
            where = f"symmetry[{i}] (coords {list(c)})"
            if any(_dot(row, w) for row in space.rows for w in images):
                raise SymmetryError(f"{where}: {name} does not preserve "
                                    "the torus slice")
            if _restricted(f, images) != restricted:
                raise SymmetryError(f"{where}: the function is not invariant "
                                    f"under {name}")


def is_nonnegative(f: PLFunction, symmetry: Sequence[SymmetryBlock] = ()):
    """Decide f >= 0 on the whole torus slice, exactly.

    Returns a NonnegCertificate or a Witness.  ``symmetry`` restricts the
    enumeration to one fundamental domain after verifying that f really is
    invariant under the declared group; it changes only the certificate
    size, never the verdict.  A purely linear f is decided on the whole
    slice: its +- slice-basis rays show whether it vanishes.

    The cells are enumerated in slice coordinates y, with f.den*f =
    linear.y + sum c*|row.y|, and cut by the walls and the rows with c > 0
    only; the rays are lifted to primitive ambient vectors at the end.
    """
    space = f.space
    basis = space.slice_basis()
    linear, terms = _restricted(f, basis)
    walls: Sequence = ()
    if symmetry:
        _check_symmetry(f, symmetry, (linear, terms))
        if terms:
            # a wall that vanishes on the slice cuts nothing off: the
            # generator it belongs to fixes every point of the slice
            walls = [w for w in ([_dot(n, v) for v in basis] for n in
                                 _dominant_restrict(symmetry, space.ambient_dim))
                     if any(w)]
    positive = [(c, row) for c, row in terms if c > 0]
    negative = [(c, row) for c, row in terms if c < 0]
    d = len(basis)
    complex_ = enumerate_cells([row for _, row in positive],
                               [tuple(int(i == j) for j in range(d)) for i in range(d)],
                               restrict=walls)
    columns = list(zip(*basis))
    skip = len(walls)

    def lifted(y, positive_vals):
        """The primitive ambient vector along y and f's value there, given
        the values of the positive rows at y."""
        Y = [_dot(col, y) for col in columns]
        g = math.gcd(*Y)
        total = (_dot(linear, y)
                 + sum(c * abs(v) for (c, _), v in zip(positive, positive_vals))
                 + sum(c * abs(_dot(row, y)) for c, row in negative))
        return tuple(x // g for x in Y), Fraction(total, f.den * g)

    values = complex_.values
    evaluated = [lifted(y, values[y][skip:])
                 for y in dict.fromkeys(y for cell in complex_.cells for y in cell.rays)]
    # every inserted row vanishes on the lineality space, so f is concave
    # there too; its +- generators follow the cell rays so the certificate
    # is self-contained
    for y in complex_.lineality:
        evaluated += [lifted(y, ()), lifted(tuple(-x for x in y), ())]

    worst = min(((val, vec) for vec, val in evaluated if val < 0), default=None)
    if worst is not None:
        return Witness(direction=worst[1], value=worst[0])
    return NonnegCertificate(rays=tuple(vec for vec, _ in evaluated),
                             ray_values=tuple(val for _, val in evaluated),
                             symmetry_reduced=bool(walls),
                             chamber_count=len(complex_.cells))


_INT64_BOUND = 2 ** 62


def grid_oracle(f: PLFunction, resolution: int) -> Optional[Witness]:
    """Brute-force search for a negative value on an integer grid.

    Evaluates f at every integer point of the closed ball of the given
    l-infinity radius in slice coordinates.  Exact (integer arithmetic
    after clearing denominators); returns the most negative point found, or
    None.  Never authoritative for the nonnegative answer.
    """
    import numpy as np
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    space = f.space
    basis = space.slice_basis()
    d = len(basis)
    if d == 0:
        return None
    Lrow, terms = _restricted(f, basis)
    A = [row for _, row in terms]
    C = [c for c, _ in terms]

    max_abs = 0
    for row, c in zip(A, C):
        max_abs += abs(c) * sum(abs(x) for x in row) * resolution
    max_abs += sum(abs(x) for x in Lrow) * resolution
    # int64 sums are exact below the bound; past it numpy sums Python ints
    dtype = np.int64 if max_abs < _INT64_BOUND else object
    coords = np.array(np.meshgrid(*([np.arange(-resolution, resolution + 1)] * d),
                                  indexing="ij")).reshape(d, -1).T.astype(dtype)
    vals = coords @ np.array(Lrow, dtype=dtype)
    if A:
        vals = vals + np.abs(coords @ np.array(A, dtype=dtype).T) \
            @ np.array(C, dtype=dtype)
    i = int(np.argmin(vals))
    if vals[i] >= 0:
        return None
    direction = space.lift(tuple(int(x) for x in coords[i]))
    return Witness(direction=direction, value=evaluate_pl(f, direction))
