"""linalg's integer elimination against the Fraction reference, and the
matrix-mode reductions built on it against linalg's dense rref."""

import math
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from temperkit.linalg import rref, solve
from temperkit.matrices import in_span, reduce_components

from reference import fraction_det, mat_inv
from reference import rref as fraction_rref

entry = st.integers(-4, 4)


@st.composite
def integer_rows(draw):
    """Integer rows of one length, with more rows than columns allowed and
    integer combinations of other rows and zero rows mixed in."""
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=8))
    for _ in range(draw(st.integers(0, 3))):
        if rows and draw(st.booleans()):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            k, m = draw(entry), draw(entry)
            new = [k * x + m * y for x, y in zip(a, b)]
        else:
            new = [0] * ncols
        rows.insert(draw(st.integers(0, len(rows))), new)
    return rows


@settings(max_examples=300, deadline=None)
@given(integer_rows())
def test_rref_rows_are_primitive_multiples_of_the_reference(rows):
    got, pivots = rref(rows)
    want, want_pivots = fraction_rref([[Fraction(x) for x in row] for row in rows])
    assert pivots == want_pivots
    assert len(got) == len(want)
    for row, ref, c in zip(got, want, pivots):
        assert all(type(x) is int for x in row)
        assert math.gcd(*row) == 1 and row[c] > 0
        assert row == [row[c] * x for x in ref]


@settings(max_examples=200, deadline=None)
@given(integer_rows(), st.sampled_from(["span", "any", "off_pivots", "on_pivots"]),
       st.data())
def test_in_span_is_the_reference_rank_test(rows, kind, data):
    # a vector off every pivot is in the span only when it is zero; one on
    # pivots alone is reduced without touching any other column
    ncols = len(rows[0]) if rows else 3
    reduced, pivots = rref(rows)
    if rows and kind == "span":
        vec = [sum(data.draw(entry) * row[j] for row in rows) for j in range(ncols)]
    else:
        vec = data.draw(st.lists(entry, min_size=ncols, max_size=ncols))
        if kind != "any":
            vec = [x if (j in pivots) == (kind == "on_pivots") else 0
                   for j, x in enumerate(vec)]
    by_pivot = {c: [(j, x) for j, x in enumerate(row) if x]
                for row, c in zip(reduced, pivots)}
    rank = len(fraction_rref([[Fraction(x) for x in row] for row in rows])[0])
    grown = len(fraction_rref([[Fraction(x) for x in row] for row in rows + [vec]])[0])
    assert in_span(by_pivot, {j: x for j, x in enumerate(vec) if x}) == (grown == rank)


def test_solve_matches_fraction_inverse():
    # X[k] = s A^-1 c_k with one integer s > 0, for random integer matrices
    # and for the Gram matrices _chamber_walls solves; None exactly when
    # det A = 0
    rng = random.Random(3)
    singular = 0
    for trial in range(300):
        d = rng.randint(1, 5)
        if trial % 3 == 0:
            ws = [[rng.randint(-3, 3) for _ in range(d)]
                  for _ in range(rng.randint(d - 1, d + 3))]
            A = [[sum(w[i] * w[j] for w in ws) for j in range(d)] for i in range(d)]
        else:
            A = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
            if trial % 3 == 1 and d > 1:
                A[-1] = [2 * x - y for x, y in zip(A[0], A[1])]
        columns = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(rng.randint(0, 3))]
        got = solve(A, columns)
        if not fraction_det(A):
            assert got is None
            singular += 1
            continue
        X, s = got
        assert type(s) is int and s > 0
        inverse = mat_inv([[Fraction(x) for x in row] for row in A])
        assert X == [[s * sum(a * b for a, b in zip(row, c)) for row in inverse]
                     for c in columns]
    assert 50 < singular < 250


def test_reduce_components_is_the_dense_rref():
    # reduce_components, one rref per connected component of the support,
    # against linalg.rref of the dense n*n-column flattening: the same
    # {pivot: row} and rank, on random sparse integer bases with a zero
    # matrix, a repeated matrix, integer combinations of others, and two
    # components joined through one shared entry, in shuffled order
    rng = random.Random(28)
    seen = {"negative_lead": 0, "joined": 0, "dependent": 0}

    def sparse(n, k, rows=None, cols=None):
        rows, cols = rows or range(n), cols or range(n)
        return {(rng.choice(rows), rng.choice(cols)): rng.choice([-3, -2, -1, 1, 2, 3])
                for _ in range(k)}

    for trial in range(400):
        n = rng.randint(2, 5)
        kind = trial % 4
        if kind == 3:
            h = rng.randint(1, n - 1)
            left = [sparse(n, rng.randint(1, 3), range(h), range(h)) for _ in range(2)]
            right = [sparse(n, rng.randint(1, 3), range(h, n), range(h, n)) for _ in range(2)]
            right[0][rng.choice(list(left[0]))] = rng.choice([-1, 2])
            mats = left + right
            seen["joined"] += 1
        else:
            mats = [sparse(n, rng.randint(1, 3)) for _ in range(rng.randint(1, 6))]
        if kind == 0:
            mats.append({})
        elif kind == 1:
            mats.append(dict(rng.choice(mats)))
        elif kind == 2:
            a, b = rng.choice(mats), rng.choice(mats)
            k, m = rng.choice([-2, -1, 1, 3]), rng.choice([-1, 1, 2])
            mats.append({c: x for c in {*a, *b}
                         if (x := k * a.get(c, 0) + m * b.get(c, 0))})
        rng.shuffle(mats)
        seen["negative_lead"] += any(M[min(M)] < 0 for M in mats if M)
        rows, pivots = rref([[M.get(divmod(j, n), 0) for j in range(n * n)] for M in mats])
        seen["dependent"] += len(rows) < len(mats)
        want = {divmod(c, n): [(divmod(j, n), x) for j, x in enumerate(row) if x]
                for row, c in zip(rows, pivots)}
        got = reduce_components(mats)
        assert got == want
        assert len(got) == len(rows)
    assert min(seen.values()) >= 100, seen
