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
from fractions import Fraction
from typing import Optional

from .cones import enumerate_cells
from .errors import SpaceMismatchError
from .linalg import solve
from .model import (PLFunction, PairSpec, Record, _canonical_terms, _column_sums, _dot,
                    _lex_positive, _primitive, evaluate_at)


class NonnegCertificate(Record):
    """Proof that f >= 0: its value at every listed ray is >= 0.

    The rays are the extreme rays of the cells of the arrangement of f's
    hyperplanes with a positive coefficient, each once and sorted as
    primitive ambient vectors, followed by the +- generators of their
    common lineality space.  f is concave on each cell, so at every
    point the rays cover it is at least a nonnegative combination of ray
    values.
    ``symmetry_reduced`` means the rays cover one chamber of a reflection
    group that f is invariant under, so f >= 0 there gives f >= 0 on
    every orbit; when it is false they cover the whole slice.
    ``chamber_count`` counts the cells enumerated; it is not part of the
    proof, so equality and hashing leave it out.
    """

    __slots__ = _fields = ("rays", "ray_values", "symmetry_reduced", "chamber_count")

    def __init__(self, rays: tuple[tuple[int, ...], ...],
                 ray_values: tuple[Fraction, ...], symmetry_reduced: bool = False,
                 chamber_count: int = 0):
        # rays in ambient coords, ray_values f at each ray, all >= 0
        self._set(rays, ray_values, symmetry_reduced, chamber_count)

    def _key(self) -> tuple:
        return self.rays, self.ray_values, self.symmetry_reduced


class Witness(Record):
    """A direction, in exact rational ambient coords, where f is negative,
    and f's value there."""

    __slots__ = _fields = ("direction", "value")

    def __init__(self, direction: tuple, value: Fraction):
        self._set(direction, value)


def _restricted(f: PLFunction, basis):
    """(columns, linear, terms): f on the slice basis in canonical form,
    f.den*f = linear.y + sum c*|row.y|, and per basis vector its free
    column c and its entry s there.  A row reduced modulo the constraints,
    as all stored rows are, is zero at the pivots: its value is row[c] * s."""
    free = [c for c in range(f.space.ambient_dim) if c not in f.space._pivots]
    columns = [(c, v[c]) for c, v in zip(free, basis)]
    return columns, [f.linear[c] * s for c, s in columns], _canonical_terms(
        (c, [row[j] * s for j, s in columns]) for c, row in f.terms)


def _root(R, L):
    """The root (R, L, R.L): a reduced weight row R and L = s*B^-1 R lifted,
    s > 0 one integer shared by every root that makes each L integral,
    both signed so L is lexicographically positive."""
    if not _lex_positive(L):
        R, L = [-x for x in R], [-x for x in L]
    return tuple(R), L, _dot(R, L)


def _invariant(a, f: PLFunction, coeffs, by_column) -> bool:
    """Whether f o s_a = f; ``coeffs`` maps each row of f to its c, and
    ``by_column`` holds the rows' columns.  s_a maps distinct rows to
    distinct directions, a row to (k*row - 2*(row.L)*R) / k."""
    R, L, k = a
    xs = [0] * len(f.terms)
    for column, v in zip(by_column, L):
        if v:
            xs = [x + v * y for x, y in zip(xs, column)]
    for (c, row), x in zip(f.terms, xs):
        if x:
            image, g = _primitive([k * p - 2 * x * q for p, q in zip(row, R)])
            if coeffs.get(image, 0) * k != c * abs(g):
                return False
    return not _dot(f.linear, L)


def _chamber_walls(f: PLFunction, columns, lift, pair: PairSpec) -> list:
    """The walls, in slice coordinates, of one chamber of a finite
    reflection group that f is invariant under, from the weights of
    ``pair``; [] for the whole slice.

    B = sum m mu(x)mu over the weights mu of h and g/h must be positive
    definite.  With every m > 0, B is positive semidefinite, so it is
    positive definite exactly when it is nonsingular, when linalg.solve
    accepts it.  Each root a of h gives the reflection s_a(y) = y -
    2 a(y) t / a(t), t = B^-1 a, kept when f o s_a = f; one solve gives
    every coroot t at one scale.  A kept root is positive when its lifted
    coroot is lexicographically positive, and simple when s_a keeps every
    other kept root positive.  The simple roots are the walls when every
    pair passes the angle test: (a, b)* = R_a.L_b <= 0 and 4(a, b)*^2 in
    {0, 1, 2, 3} (a, a)*(b, b)*.  Obtuse roots in one half-space are
    linearly independent, and with B^-1 positive definite the test makes
    their reflections generate a finite group with this chamber as a
    fundamental domain (Humphreys 1990, 1.3, 5.13 and 6.4); it meets every
    orbit.  Otherwise the whole slice is the domain.
    """
    d = len(columns)
    h, g = pair.h_module, pair.g_module
    den = math.lcm(h.den, g.den)
    B = [[0] * d for _ in range(d)]
    for M in (h, g):
        for row, m in M.rows:
            w = [(j, row[c] * s * (den // M.den)) for j, (c, s) in enumerate(columns)
                 if row[c]]
            for j, x in w:
                for k, y in w:
                    B[j][k] += m * x * y
    roots = dict.fromkeys(_primitive(row)[0] for row, _ in h.rows if any(row))
    solved = roots and solve(B, [[R[c] * s for c, s in columns] for R in roots])
    if not solved:
        return []
    coeffs = {row: c for c, row in f.terms}
    by_column = list(zip(*coeffs))
    kept = [a for a in (_root(R, [_dot(col, t) for col in lift])
                        for R, t in zip(roots, solved[0]))
            if _invariant(a, f, coeffs, by_column)]
    # s_a keeps every other kept root b positive: k s_a(b) = k b - 2x a
    simple = [a for a in kept if all(
        b is a or not x or _lex_positive(a[2] * p - 2 * x * q for p, q in zip(b[1], a[1]))
        for b, x in ((b, _dot(b[0], a[1])) for b in kept))]
    for i, (R, _, k) in enumerate(simple):
        for _, L, j in simple[:i]:
            x = _dot(R, L)
            if x > 0 or 4 * x * x not in (0, k * j, 2 * k * j, 3 * k * j):
                return []
    simple.sort(key=lambda a: _primitive(a[1])[0], reverse=True)
    return [[a[0][c] * s for c, s in columns] for a in simple]


def is_nonnegative(f: PLFunction, pair: Optional[PairSpec] = None):
    """Decide f >= 0 on the whole torus slice, exactly.

    Returns a NonnegCertificate or a Witness.  With a ``pair``, the
    enumeration covers one chamber of a finite reflection group of f that
    its weights give (_chamber_walls), which changes only the certificate size.
    A purely linear f is decided on the whole slice: its +- slice-basis
    rays show whether it vanishes.

    The cells are enumerated in slice coordinates y, with f.den*f =
    linear.y + sum c*|row.y|, and cut by the walls and the rows with c > 0
    only; a row that does not cut the chamber cuts no cell and is left
    out.  The enumeration's distinct rays, and the +- generators of the
    lineality space, are lifted to primitive ambient vectors a column at a
    time and valued together by evaluate_at; the cell rays are listed in
    sorted order, so the certificate does not depend on the order of
    insertion.
    """
    if pair is not None and pair.space != f.space:
        raise SpaceMismatchError("the pair lives on another torus space")
    basis = f.space.slice_basis()
    lift = list(zip(*basis))
    columns, _, terms = _restricted(f, basis)
    walls = _chamber_walls(f, columns, lift, pair) if terms and pair is not None else []
    d = len(basis)
    complex_ = enumerate_cells([row for c, row in terms if c > 0],
                               [tuple(int(i == j) for j in range(d)) for i in range(d)],
                               restrict=walls)
    ys = list(complex_.rays)
    # every inserted row vanishes on the lineality space, so f is concave
    # there too; its +- generators follow the cell rays so the certificate
    # is self-contained
    for y in complex_.lineality:
        ys += [y, tuple(-x for x in y)]
    slice_columns = list(zip(*ys))
    zero = [0] * len(ys)
    rays = [Y if (g := math.gcd(*Y)) == 1 else tuple(x // g for x in Y)
            for Y in zip(*(_column_sums(row, slice_columns, zero) for row in lift))]
    cell_rays = len(complex_.rays)
    rays[:cell_rays] = sorted(rays[:cell_rays])
    values = evaluate_at(f, rays)
    worst = min(((val, vec) for vec, val in zip(rays, values) if val < 0), default=None)
    if worst is not None:
        return Witness(direction=worst[1], value=worst[0])
    return NonnegCertificate(rays=tuple(rays), ray_values=tuple(values),
                             symmetry_reduced=bool(walls),
                             chamber_count=complex_.count)

