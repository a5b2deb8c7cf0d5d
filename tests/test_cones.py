"""Cell counts of enumerate_cells against closed forms that do not depend on
the enumeration: the braid arrangement, generic arrangements and a Weyl
chamber; and its rays against a brute force over the flats."""

import itertools
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from temperkit.cones import enumerate_cells


def _unit(i, n):
    return tuple(int(k == i) for k in range(n))


def _root(i, j, n):
    return tuple((k == i) - (k == j) for k in range(n))


def _trace_zero_basis(n):
    return [_root(i, i + 1, n) for i in range(n - 1)]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_braid_arrangement_has_n_factorial_cells(n):
    # x_i = x_j for i < j cuts the trace-zero slice of Q^n into the n!
    # orderings of the coordinates
    roots = [_root(i, j, n) for i, j in itertools.combinations(range(n), 2)]
    cells = enumerate_cells(roots, _trace_zero_basis(n)).cells
    assert len(cells) == math.factorial(n)


@pytest.mark.parametrize("d, m", [(1, 3), (2, 2), (2, 4), (2, 6), (3, 3), (3, 6)])
def test_generic_arrangement_cell_count(d, m):
    # m affine hyperplanes 1 + t x_1 + ... + t^d x_d = 0, t = 1..m, are in
    # general position in Q^d (Vandermonde), so they cut it into
    # sum_{i <= d} C(m, i) regions.
    # Homogenized by x_0, each region is one cell of the half-space x_0 >= 0.
    normals = [tuple(t ** k for k in range(d + 1)) for t in range(1, m + 1)]
    basis = [_unit(i, d + 1) for i in range(d + 1)]
    cells = enumerate_cells(normals, basis, restrict=[_unit(0, d + 1)]).cells
    assert len(cells) == sum(math.comb(m, i) for i in range(d + 1))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_braid_arrangement_cut_by_its_simple_roots_is_one_cell(n):
    # the walls x_i >= x_(i+1) bound one Weyl chamber, which no root crosses
    roots = [_root(i, j, n) for i, j in itertools.combinations(range(n), 2)]
    simple = [_root(i, i + 1, n) for i in range(n - 1)]
    complex_ = enumerate_cells(roots, _trace_zero_basis(n), restrict=simple)
    assert len(complex_.cells) == 1
    (cell,) = complex_.cells
    assert len(cell.rays) == n - 1


def _det(rows):
    if not rows:
        return 1
    return sum((-1) ** j * x * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, x in enumerate(rows[0]) if x)


def _line(normals, d):
    """The primitive direction of the common kernel of d - 1 normals in
    Q^d (their generalized cross product), or None when they are
    dependent."""
    v = [(-1) ** j * _det([n[:j] + n[j + 1:] for n in normals]) for j in range(d)]
    g = math.gcd(*v)
    return tuple(x // g for x in v) if g else None


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _key(v):
    """v up to a nonzero scalar."""
    g = math.gcd(*v)
    v = [x // g for x in v]
    return tuple(v) if next(x for x in v if x) > 0 else tuple(-x for x in v)


@st.composite
def walled_arrangements(draw):
    """(d, rows, walls): 0-2 independent walls and 1-7 pairwise
    non-proportional rows in Q^d, d = 2..4.  Some rows are parallel to a
    wall, and some are nonnegative combinations of the walls, which do not
    cut the walled region."""
    d = draw(st.integers(2, 4))
    vec = st.tuples(*[st.integers(-2, 2)] * d).filter(any)
    walls = draw(st.lists(vec, max_size=2, unique_by=_key))
    special = [tuple(c * x for x in w) for w in walls for c in (2, -1)]
    if len(walls) == 2:
        special.append(tuple(a + 2 * b for a, b in zip(*walls)))
    pool = st.one_of(vec, st.sampled_from(special)) if special else vec
    rows = draw(st.lists(pool, min_size=1, max_size=7, unique_by=_key))
    return d, rows, walls


@settings(max_examples=300, deadline=None)
@given(walled_arrangements())
def test_rays_are_the_lines_of_the_flats_in_the_region(arrangement):
    # the cells of the rows inside the walled region are the cells of rows
    # and walls together that lie in it, so with normals that span, their
    # rays are the lines where d - 1 independent normals meet, taken in
    # the region
    d, rows, walls = arrangement
    normals = rows + walls
    lines = set(filter(None, (_line(sub, d)
                              for sub in itertools.combinations(normals, d - 1))))
    assume(any(_dot(n, v) for v in lines for n in normals))
    expected = {s for v in lines for s in (v, tuple(-x for x in v))
                if all(_dot(w, s) >= 0 for w in walls)}
    complex_ = enumerate_cells(rows, [_unit(i, d) for i in range(d)], restrict=walls)
    assert complex_.lineality == []
    assert len(set(complex_.rays)) == len(complex_.rays)
    assert set(complex_.rays) == expected
    assert {r for cell in complex_.cells for r in cell.rays} == expected
    assert complex_.count == len(complex_.cells)


def test_dependent_walls_are_refused():
    # walls are inserted through the lineality split, so each must be
    # nonzero on the slice the walls before it cut
    with pytest.raises(ValueError, match="linearly independent"):
        enumerate_cells([(1, -1)], [(1, 0), (0, 1)], restrict=[(1, 0), (2, 0)])
