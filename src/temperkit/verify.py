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
from itertools import compress
from operator import itemgetter, mul, sub
from typing import Optional

from .cones import enumerate_cells
from .errors import SpaceMismatchError
from .linalg import solve
from .model import (PLFunction, PairSpec, Record, _combine_columns, _lex_positive,
                    _pl_totals, _primitive)


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


def _nonzero(row) -> list:
    """The nonzero entries (j, row[j]) of a row."""
    return [(j, x) for j, x in enumerate(row) if x]


def _apply(columns, t, size: int) -> list:
    """M.t for the matrix M with ``size`` rows given column by column, each
    column j by its nonzero entries (i, M[i][j])."""
    out = [0] * size
    for v, column in zip(t, columns):
        if v:
            for i, y in column:
                out[i] += v * y
    return out


def _preserves(R, t, k: int, linear, terms, by_column, coeffs) -> bool:
    """Whether f o s = f for the reflection s in the slice root R, given by
    its nonzero entries, with coroot t and k = R.t > 0; ``coeffs`` maps
    each row of f's ``terms`` to its c, and ``by_column`` holds the rows
    column by column, as _apply takes them.  s keeps the linear part when
    it vanishes at t, and maps distinct rows to distinct directions, a row
    h with x = h.t != 0 to (k*h - 2*x*R) / k, which over gcd(k, 2x) is a
    multiple of h adjusted on R's support."""
    if sum(map(mul, linear, t)):
        return False
    xs = _apply(by_column, t, len(terms))
    matched = set()     # checked images: s maps each back to its preimage
    for (c, row), x in compress(zip(terms, xs), xs):
        if row in matched:
            continue
        g = math.gcd(k, 2 * x)
        m, x = k // g, 2 * x // g
        image = list(row) if m == 1 else [m * y for y in row]
        for j, y in R:
            image[j] -= x * y
        image, g = _primitive(image)
        if coeffs.get(image, 0) * m != c * abs(g):
            return False
        matched.add(image)
    return True


def _chamber_walls(free, vectors, linear, terms, pair: PairSpec) -> list:
    """The walls, in free-column coordinates, of one chamber of a finite
    reflection group that f is invariant under, from the weights of
    ``pair``; [] for the whole slice.  ``free`` and ``vectors`` are
    TorusSpace.slice_view, and f.den*f = linear.y + sum c*|row.y|.

    B = sum m mu(x)mu over the weights mu of h and g/h must be positive
    definite.  With every m > 0, B is positive semidefinite, so it is
    positive definite exactly when it is nonsingular, when linalg.solve
    accepts it.  Each root a of h, its stored row at the free columns made
    primitive, gives the reflection s_a(y) = y - 2 a(y) t / a(t), t =
    B^-1 a, kept when f o s_a = f; one solve gives s*B^-1 for one s > 0,
    and each coroot t, at that scale, is the sum of its root's few nonzero
    entries times their columns.  Every test below is homogeneous in s.  A
    kept root is positive when its coroot, lifted to ambient coordinates
    as L by the view, is lexicographically positive, and simple when s_a
    keeps every other kept root b positive: k_a L_b - 2x L_a with x =
    (b, a)* = a.t_b, a sum of positive vectors unless x > 0.  The simple
    roots are the walls when every pair passes the angle test:
    (a, b)* <= 0 and 4(a, b)*^2 in {0, 1, 2, 3} (a, a)*(b, b)*.  Obtuse
    roots in one half-space are linearly independent, and with B^-1
    positive definite the test makes their reflections generate a finite
    group with this chamber as a fundamental domain (Humphreys 1990, 1.3,
    5.13 and 6.4); it meets every orbit.  Otherwise the whole slice is the
    domain.
    """
    d = len(free)
    h, g = pair.h_module, pair.g_module
    den = math.lcm(h.den, g.den)
    B = [[0] * d for _ in range(d)]
    roots = {}      # each root of h once, on the slice, up to sign
    for M in (h, g):
        scale = (den // M.den) ** 2
        for row, m in M.rows:
            w = [(j, row[c]) for j, c in enumerate(free) if row[c]]
            if w and M is h:
                e = math.gcd(*row) if w[0][1] > 0 else -math.gcd(*row)
                roots[tuple([(j, x // e) for j, x in w])] = None
            for j, x in w:
                for k, y in w:
                    B[j][k] += m * scale * x * y
    solved = roots and solve(B, [[int(i == j) for i in range(d)] for j in range(d)])
    if not solved:
        return []
    X = solved[0]
    coeffs = {row: c for c, row in terms}
    by_column = [_nonzero(column) for column in zip(*(row for _, row in terms))]
    lift = [_nonzero(v) for v in vectors]
    kept = []
    for R in roots:
        t = _combine_columns(R, X)
        k = sum(x * t[j] for j, x in R)
        if _preserves(R, t, k, linear, terms, by_column, coeffs):
            L = _apply(lift, t, pair.space.ambient_dim)
            if not _lex_positive(L):
                R, t, L = [(j, -x) for j, x in R], [-x for x in t], [-x for x in L]
            kept.append((R, t, L, k))
    # s_a keeps every other kept root b positive: k s_a(b) = k b - 2x a,
    # with x = (b, a)* = R_a.t_b for every b at once; only x > 0 can fail
    by_coordinate = list(zip(*(t for _, t, _, _ in kept)))
    simple = [a for a in kept if all(
        b is a or _lex_positive(map(sub, map(a[3].__mul__, b[2]), map((2 * x).__mul__, a[2])))
        for b, x in zip(kept, _combine_columns(a[0], by_coordinate)) if x > 0)]
    for i, (R, _, _, k) in enumerate(simple):
        for _, t, _, j in simple[:i]:
            x = sum(y * t[c] for c, y in R)
            if x > 0 or 4 * x * x not in (0, k * j, 2 * k * j, 3 * k * j):
                return []
    simple.sort(key=lambda a: _primitive(a[2])[0], reverse=True)
    return [[dict(R).get(j, 0) for j in range(d)] for R, *_ in simple]


def is_nonnegative(f: PLFunction, pair: Optional[PairSpec] = None):
    """Decide f >= 0 on the whole torus slice, exactly.

    Returns a NonnegCertificate or a Witness.  With a ``pair``, the
    enumeration covers one chamber of a finite reflection group of f that
    its weights give (_chamber_walls), which changes only the certificate size.
    A purely linear f is decided on the whole slice: its +- slice-basis
    rays show whether it vanishes.

    The cells are enumerated in the free-column coordinates y of
    TorusSpace.slice_view, where f's stored rows, zero at the pivots, read
    at the free columns are f in canonical form: f.den*f = linear.y + sum
    c*|row.y|.  They are cut by the walls and the rows with c > 0 only; a
    row that does not cut the chamber cuts no cell and is left out.  The
    enumeration's distinct rays, and the +- generators of the lineality
    space, are valued there a column at a time by the pass evaluate_at
    makes on ambient points (_pl_totals), and lifted by the view to
    _scale*Y, made primitive by its content g: f there is
    total*_scale/(f.den*g).  The cell rays are listed in sorted order, so
    the certificate does not depend on the order of insertion.
    """
    if pair is not None and pair.space != f.space:
        raise SpaceMismatchError("the pair lives on another torus space")
    free, vectors = f.space.slice_view()
    linear = [f.linear[c] for c in free]
    terms = [(c, tuple([row[j] for j in free])) for c, row in f.terms]
    walls = (_chamber_walls(free, vectors, linear, terms, pair)
             if terms and pair is not None else [])
    d = len(free)
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
    total = _pl_totals(linear, terms, slice_columns, zero)
    points = []
    for Y, t in zip(zip(*(_combine_columns(enumerate(row), slice_columns, zero)
                          for row in zip(*vectors))), total):
        g = math.gcd(*Y)
        points.append((Y if g == 1 else tuple(x // g for x in Y),
                       Fraction(t * f.space._scale, f.den * g)))
    cell_rays = len(complex_.rays)
    points[:cell_rays] = sorted(points[:cell_rays], key=itemgetter(0))
    worst = min(((val, vec) for vec, val in points if val < 0), default=None)
    if worst is not None:
        return Witness(direction=worst[1], value=worst[0])
    return NonnegCertificate(rays=tuple(vec for vec, _ in points),
                             ray_values=tuple(val for _, val in points),
                             symmetry_reduced=bool(walls),
                             chamber_count=complex_.count)
