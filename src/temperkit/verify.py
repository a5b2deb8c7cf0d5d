"""Global nonnegativity decision for homogeneous piecewise-linear functions.

A PLFunction is linear on each full-dimensional cell of the arrangement of
its absolute-value hyperplanes, so it is nonnegative on a cell exactly when
it is nonnegative on the cell's extreme rays and on the common lineality
space.  Enumerating the cells and checking ray values therefore decides
global nonnegativity exactly, yielding either a replayable certificate (the
rays and their values) or an explicit direction where the function is
negative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .cones import Cell, CellComplex, enumerate_cells
from .errors import SymmetryError
from .model import (LinearForm, PLFunction, SymmetryBlock,
                    _canonical_terms, _check_symmetry_coords, _dot, evaluate_pl)


@dataclass(frozen=True)
class NonnegCertificate:
    """Proof that f >= 0: its value at every listed ray is >= 0.

    The rays are the extreme rays of the cells of f's arrangement, followed
    by the +- generators of their common lineality space, so f is a
    nonnegative combination of ray values at every point they cover.
    ``symmetry_reduced`` means the rays cover one fundamental domain of the
    declared symmetry only; when it is false they cover the whole slice.
    ``chamber_count`` counts the cells enumerated; it is not part of the proof.
    """

    hyperplanes: tuple[LinearForm, ...]
    rays: tuple[tuple[int, ...], ...]       # ambient coords
    ray_values: tuple[Fraction, ...]        # f at each ray, all >= 0
    symmetry_reduced: bool = False
    chamber_count: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Witness:
    direction: tuple                        # exact rationals, ambient coords
    value: Fraction


def distinct_hyperplanes(f: PLFunction) -> list[LinearForm]:
    """The rows of f's canonical abs terms: primitive, sign-normalized,
    distinct, sorted, each with a nonzero net coefficient."""
    return [LinearForm(row) for _, row in f.terms]


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


def _check_symmetry(f: PLFunction, symmetry: Sequence[SymmetryBlock]) -> None:
    """Verify f is invariant under the generators of the symmetry group.

    The generators of a block are the transpositions of its adjacent
    coordinates and, when it is signed, the sign flip of its last
    coordinate.  Each generator s maps the slice basis b_j to s(b_j).  As s
    is invertible, it preserves the slice exactly when every constraint row
    vanishes on each s(b_j); then f o s = f exactly when f restricted to the
    images s(b_j) equals f restricted to the basis (see _canonical_terms).
    Raises SymmetryError naming the block, for bad coords or a failing generator.
    """
    space = f.space
    _check_symmetry_coords(symmetry, space.ambient_dim)
    basis = space.slice_basis()
    expected = _restricted(f, basis)
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
            if _restricted(f, images) != expected:
                raise SymmetryError(f"{where}: the function is not invariant "
                                    f"under {name}")


def is_nonnegative(f: PLFunction, symmetry: Sequence[SymmetryBlock] = ()):
    """Decide f >= 0 on the whole torus slice, exactly.

    Returns a NonnegCertificate or a Witness.  ``symmetry`` restricts the
    enumeration to one fundamental domain after verifying that f really is
    invariant under the declared group; it changes only the certificate
    size, never the verdict.  A purely linear f is decided on the whole
    slice: its +- slice-basis rays show whether it vanishes.
    """
    space = f.space
    restrict: Sequence = ()
    if symmetry:
        _check_symmetry(f, symmetry)
        restrict = _dominant_restrict(symmetry, space.ambient_dim)
    if f.terms:
        complex_ = enumerate_cells([row for _, row in f.terms],
                                   space.slice_basis(), restrict=restrict)
    else:
        # f is linear: the whole slice is one cell without rays, and f >= 0
        # exactly when f = 0, which its +- slice-basis values show
        complex_ = CellComplex(cells=[Cell(rays=())],
                               lineality=list(space.slice_basis()))
        restrict = ()
    # f restricted to the lineality space is linear; its +- generators
    # follow the cell rays so the certificate is self-contained
    rays = list(dict.fromkeys(vec for cell in complex_.cells for vec in cell.rays))
    for g in complex_.lineality:
        rays += [g, tuple(-x for x in g)]
    ray_values = [evaluate_pl(f, r) for r in rays]

    worst = None
    for vec, val in zip(rays, ray_values):
        if val < 0 and (worst is None or (val, vec) < worst):
            worst = (val, vec)
    if worst is not None:
        return Witness(direction=worst[1], value=worst[0])
    return NonnegCertificate(hyperplanes=tuple(distinct_hyperplanes(f)),
                             rays=tuple(rays), ray_values=tuple(ray_values),
                             symmetry_reduced=bool(restrict),
                             chamber_count=len(complex_.cells))


_INT64_BOUND = 2 ** 62


def grid_oracle(f: PLFunction, resolution: int) -> Optional[Witness]:
    """Brute-force search for a negative value on an integer grid.

    Evaluates f at every integer point of the closed ball of the given
    l-infinity radius in slice coordinates.  Exact (integer arithmetic
    after clearing denominators); returns the most negative point found, or
    None.  Never authoritative for the nonnegative answer.
    """
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
    coords = np.array(np.meshgrid(*([np.arange(-resolution, resolution + 1)] * d),
                                  indexing="ij")).reshape(d, -1).T
    if max_abs < _INT64_BOUND:
        coords64 = coords.astype(np.int64)
        vals = coords64 @ np.array(Lrow, dtype=np.int64)
        if A:
            vals = vals + np.abs(coords64 @ np.array(A, dtype=np.int64).T) \
                @ np.array(C, dtype=np.int64)
        i = int(np.argmin(vals))
        if vals[i] >= 0:
            return None
        best = tuple(int(x) for x in coords[i])
    else:
        best, best_val = None, 0
        for pt in coords:
            v = sum(l * int(x) for l, x in zip(Lrow, pt))
            for row, c in zip(A, C):
                v += c * abs(sum(a * int(x) for a, x in zip(row, pt)))
            if v < best_val:
                best, best_val = tuple(int(x) for x in pt), v
        if best is None:
            return None
    direction = space.lift(best)
    return Witness(direction=direction, value=evaluate_pl(f, direction))
