"""Global nonnegativity decision for homogeneous piecewise-linear functions.

A PLFunction is linear on each full-dimensional cell of the arrangement of
its absolute-value hyperplanes, so it is nonnegative on a cell exactly when
it is nonnegative on the cell's extreme rays and on the common lineality
space.  Enumerating the cells and checking ray values therefore decides
global nonnegativity exactly, yielding either a replayable certificate (all
ray values) or an explicit direction where the function is negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .cones import enumerate_cells
from .errors import SymmetryError
from .model import (LinearForm, PLFunction, SymmetryBlock, TorusSpace,
                    _canonical_terms, _check_symmetry_coords, _dot, _integer_row,
                    evaluate_pl)


@dataclass(frozen=True)
class Chamber:
    """A maximal cone on which the function is linear."""

    sign_vector: tuple[int, ...]           # +1/-1 per hyperplane
    ray_indices: tuple[int, ...]           # indices into the shared ray table


@dataclass(frozen=True)
class NonnegCertificate:
    hyperplanes: tuple[LinearForm, ...]
    rays: tuple[tuple[int, ...], ...]       # shared ray table, ambient coords
    ray_values: tuple[Fraction, ...]        # f at each ray, all >= 0
    chambers: tuple[Chamber, ...]
    lineality: tuple[tuple[int, ...], ...] = ()
    symmetry_reduced: bool = False


@dataclass(frozen=True)
class Witness:
    direction: tuple                        # exact rationals, ambient coords
    value: Fraction


def distinct_hyperplanes(f: PLFunction) -> list[LinearForm]:
    """The rows of f's canonical abs terms: primitive, sign-normalized,
    distinct, sorted, each with a nonzero net coefficient."""
    return [LinearForm(row) for _, row in f.terms]


def enumerate_chambers(hyperplanes: Sequence[LinearForm], space: TorusSpace,
                       restrict: Sequence[Sequence[int]] = ()):
    """Full-dimensional cells of the arrangement on the torus slice.

    Returns (chambers, ray_table, lineality_basis), with integer rays and
    lineality generators.
    """
    normals = [_integer_row(h)[0] for h in hyperplanes]
    complex_ = enumerate_cells(normals, space.slice_basis(),
                               restrict=tuple(restrict))
    ray_index: dict[tuple[int, ...], int] = {}
    chambers = [Chamber(sign_vector=cell.signs,
                        ray_indices=tuple(ray_index.setdefault(vec, len(ray_index))
                                          for vec in cell.rays))
                for cell in complex_.cells]
    return chambers, tuple(ray_index), tuple(complex_.lineality)


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
    size, never the verdict.
    """
    space = f.space
    restrict: Sequence = ()
    if symmetry:
        _check_symmetry(f, symmetry)
        restrict = _dominant_restrict(symmetry, space.ambient_dim)
    hyperplanes = distinct_hyperplanes(f)
    if not hyperplanes:
        # purely linear and homogeneous: nonnegative iff identically zero
        for g in space.slice_basis():
            v = _dot(f.linear, g)
            if v:
                d = g if v < 0 else tuple(-x for x in g)
                return Witness(direction=d, value=evaluate_pl(f, d))
        return NonnegCertificate(hyperplanes=(), rays=(), ray_values=(),
                                 chambers=(Chamber((), ()),))
    chambers, ray_table, lineality = enumerate_chambers(
        hyperplanes, space, restrict=restrict)
    # f restricted to the lineality space is linear; fold its +- generators
    # into the ray table so the certificate is self-contained
    ray_table = list(ray_table)
    for g in lineality:
        ray_table += [g, tuple(-x for x in g)]
    ray_values = [evaluate_pl(f, r) for r in ray_table]

    worst = None
    for vec, val in zip(ray_table, ray_values):
        if val < 0 and (worst is None or (val, vec) < worst):
            worst = (val, vec)
    if worst is not None:
        return Witness(direction=worst[1], value=worst[0])
    return NonnegCertificate(hyperplanes=tuple(hyperplanes),
                             rays=tuple(ray_table),
                             ray_values=tuple(ray_values),
                             chambers=tuple(chambers),
                             lineality=lineality,
                             symmetry_reduced=bool(symmetry))


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
