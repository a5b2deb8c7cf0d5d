"""Cell counts of enumerate_cells against closed forms that do not depend on
the enumeration: the braid arrangement, generic arrangements and a Weyl
chamber."""

import itertools
import math

import pytest

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
