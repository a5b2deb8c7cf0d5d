import itertools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from temperkit import verify
from temperkit.check import FAMILIES, check
from temperkit.cones import enumerate_cells
from temperkit.errors import SpaceMismatchError
from temperkit.families import build_classical_in_sl, build_product_in_sp, build_so_pair
from temperkit.generators import (TABLE1_PATTERNS, TABLE2_PATTERNS,
                                  build_product_in_sl, build_sl_block,
                                  matrix_input_for_block_pattern, realify)
from temperkit.linalg import solve
from temperkit.matrices import example_sp21_input, extract_weights
from temperkit.model import (PLFunction, PairSpec, TorusSpace, WeightModule,
                             deficit, evaluate_pl)
from temperkit.verify import NonnegCertificate, Witness, _chamber_walls, is_nonnegative

from reference import dense_chamber_walls, fraction_det, grid_oracle, mat_inv, rref

F = Fraction


def lf(*coeffs):
    """A linear form as a tuple of exact rationals."""
    return tuple(F(c) for c in coeffs)


def dot(form, Y) -> Fraction:
    """form(Y) in plain Fraction arithmetic, independent of evaluate_pl."""
    return sum((F(c) * F(y) for c, y in zip(form, Y)), F(0))


def deficit_reference(spec, Y) -> Fraction:
    """rho_{g/h} + 2 rho_V - rho_h at Y in plain Fraction arithmetic, summed
    over the modules' weights: (1/2) sum m|mu(Y)| per module."""
    def rho(M):
        return sum((m * abs(dot(mu, Y)) for mu, m in M.weights), F(0)) / 2
    v = 2 * rho(spec.v_module) if spec.v_module is not None else 0
    return rho(spec.g_module) + v - rho(spec.h_module)


def pl(space, terms, linear=None):
    return PLFunction(space, [(F(c), f) for c, f in terms], linear)


class TestKnownCases:
    def test_triangle_inequality_certificate(self):
        s = TorusSpace(2)
        f = pl(s, [(1, lf(1, 0)), (1, lf(0, 1)), (-1, lf(1, 1))])
        cert = is_nonnegative(f)
        assert isinstance(cert, NonnegCertificate)
        assert all(v >= 0 for v in cert.ray_values)

    def test_witness_direction_deterministic(self):
        s = TorusSpace(2)
        f = pl(s, [(1, lf(0, 1)), (-1, lf(1, 0))])  # |y| - |x|
        w = is_nonnegative(f)
        assert isinstance(w, Witness)
        assert w.direction == (F(-1), F(0))
        assert w.value == F(-1)
        # re-running gives the identical witness
        assert is_nonnegative(f) == w

    def test_zero_dimensional_space(self):
        s = TorusSpace(1, [lf(1)])
        f = pl(s, [(1, lf(1))])
        cert = is_nonnegative(f)
        assert isinstance(cert, NonnegCertificate)

    def test_pure_linear_nonzero_is_witness(self):
        s = TorusSpace(2)
        f = pl(s, [], lf(1, 0))
        w = is_nonnegative(f)
        assert isinstance(w, Witness)
        assert w.value < 0

    def test_pure_linear_zero_on_slice(self):
        s = TorusSpace(2, [lf(1, -1)])
        f = pl(s, [], lf(1, -1))
        assert isinstance(is_nonnegative(f), NonnegCertificate)

    def test_witness_replay(self):
        s = TorusSpace(3, [lf(1, 1, 1)])
        f = pl(s, [(1, lf(1, 0, 0)), (-2, lf(0, 1, 0))])
        w = is_nonnegative(f)
        assert isinstance(w, Witness)
        assert evaluate_pl(f, w.direction) == w.value < 0

    def test_lifted_rays_primitive(self):
        # the slice basis of 2x + y + z = 0 is (-1, 2, 0), (-1, 0, 2), so the
        # slice ray (1, 1) lifts to (-2, 2, 2); the certificate lists its
        # primitive vector (-1, 1, 1) with f's value there
        s = TorusSpace(3, [lf(2, 1, 1)])
        f = pl(s, [(1, lf(0, 1, -1)), (1, lf(1, 0, 0)), (F(-1, 4), lf(0, 1, 1))])
        cert = is_nonnegative(f)
        assert isinstance(cert, NonnegCertificate)
        assert (-1, 1, 1) in cert.rays
        for ray, value in zip(cert.rays, cert.ray_values):
            assert math.gcd(*ray) == 1
            assert evaluate_pl(f, ray) == value
        # |y - z| - |x| is -1 there
        w = is_nonnegative(pl(s, [(1, lf(0, 1, -1)), (-1, lf(1, 0, 0))]))
        assert w == Witness(direction=(-1, 1, 1), value=F(-1))


def cells(normals, space, restrict=()):
    """The cell complex of the integer hyperplane normals on the slice."""
    return enumerate_cells(normals, space.slice_basis(), restrict=restrict)


class TestChambers:
    def test_coordinate_arrangement_counts(self):
        complex_ = cells([(1, 0), (0, 1)], TorusSpace(2))
        assert len(complex_.cells) == 4
        assert complex_.lineality == []

    def test_braid_arrangement(self):
        # x=y, y=z, x=z in the trace-zero plane: 6 chambers
        s = TorusSpace(3, [lf(1, 1, 1)])
        complex_ = cells([(1, -1, 0), (0, 1, -1), (1, 0, -1)], s)
        assert len(complex_.cells) == 6
        assert len({ray for cell in complex_.cells for ray in cell.rays}) == 6

    def test_lineality_detected(self):
        complex_ = cells([(1, 0, 0)], TorusSpace(3))
        assert len(complex_.cells) == 2
        assert len(complex_.lineality) == 2

    def test_chamber_linearization_matches_function(self):
        # what makes a ray certificate sound: only the hyperplanes with a
        # positive coefficient cut cells, so f is concave on each cell and,
        # at a positive combination of the cell's rays, at least that
        # combination of the ray values listed in the certificate
        rng = random.Random(7)
        s = TorusSpace(3, [lf(1, 1, 1)])
        strict = 0
        for terms in LINEARIZATION_CASES:
            f = pl(s, terms)
            cert = is_nonnegative(f)
            assert isinstance(cert, NonnegCertificate)
            value_of = dict(zip(cert.rays, cert.ray_values))
            complex_ = cells([row for c, row in f.terms if c > 0], s)
            assert len(complex_.cells) == cert.chamber_count
            assert all(cell.rays for cell in complex_.cells)
            for cell in complex_.cells:
                weights, pt = interior_point(rng, cell)
                for c, row in f.terms:
                    assert c < 0 or dot(row, pt) != 0
                value = evaluate_pl(f, pt)
                lower = sum(w * value_of[ray] for w, ray in zip(weights, cell.rays))
                assert value >= lower
                strict += value > lower
        # a negative hyperplane crosses some cell, so the bound is not vacuous
        assert strict

    def test_full_arrangement_linearizes_function(self):
        # on a cell of every hyperplane of f no abs term changes sign, so f
        # is linear there: its value at a positive combination of the
        # cell's rays is that combination of the ray values
        rng = random.Random(8)
        s = TorusSpace(3, [lf(1, 1, 1)])
        for terms in LINEARIZATION_CASES:
            f = pl(s, terms)
            complex_ = cells([row for _, row in f.terms], s)
            assert len(complex_.cells) == 6
            for cell in complex_.cells:
                weights, pt = interior_point(rng, cell)
                for _, row in f.terms:
                    assert dot(row, pt) != 0
                value = evaluate_pl(f, pt)
                assert value == sum(w * evaluate_pl(f, ray)
                                    for w, ray in zip(weights, cell.rays))
                assert value == sum((c * abs(dot(row, pt)) for c, row in f.terms),
                                    F(0)) / f.den


    @pytest.mark.parametrize("table, name, sizes, chambers, rays", [
        (TABLE2_PATTERNS, "H10", (3, 3, 3), 312, 92),
        (TABLE2_PATTERNS, "H10", (4, 3, 3), 1288, 339),
        (TABLE1_PATTERNS, "H4", (5, 6), 378, 155),
        (TABLE2_PATTERNS, "H11", (3, 4, 3), 517, 240),
    ], ids=["H10(3,3,3)", "H10(4,3,3)", "H4(5,6)", "H11(3,4,3)"])
    def test_named_points(self, table, name, sizes, chambers, rays):
        # no lineality here, so every listed ray is a cell ray, in sorted
        # order of the primitive ambient vectors
        cert = check(build_sl_block(table[name](*sizes))).evidence
        assert (cert.chamber_count, len(cert.rays)) == (chambers, rays)
        assert list(cert.rays) == sorted(set(cert.rays))


LINEARIZATION_CASES = [
    [(2, lf(1, -1, 0)), (-1, lf(0, 1, -1)), (3, lf(1, 0, -1))],
    # non-primitive and rational forms, two of them on one hyperplane:
    # 2|x-y| + (1/2)|y-z| + 4|y-z| - |x-z| >= 0
    [(1, lf(2, -2, 0)), (F(1, 3), lf(0, "3/2", "-3/2")),
     (-1, lf(1, 0, -1)), (1, lf(0, 4, -4))],
]


def interior_point(rng, cell):
    """Random positive weights on the cell's rays and their combination."""
    weights = [rng.randint(1, 5) for _ in cell.rays]
    pt = [F(0)] * len(cell.rays[0])
    for w, ray in zip(weights, cell.rays):
        for k, x in enumerate(ray):
            pt[k] += w * x
    return weights, pt


def module(space, *forms):
    """The weight module of the given integer forms, multiplicity 1 each."""
    return WeightModule(space, [(form, 1) for form in forms])


def units(space):
    """The coordinate weights e_a, whose form is the standard inner product."""
    n = space.ambient_dim
    return module(space, *(tuple(int(i == a) for i in range(n)) for a in range(n)))


def candidates(space, roots, form=None):
    """A pair whose h holds the candidate roots and whose g/h holds the
    weights of ``form`` (by default the units).  Its form B also counts
    the roots; that moves no candidate's coroot B^-1 a when the roots are
    closed under their reflections, or when a lone root a adds a (x) a."""
    return PairSpec(g_module=form or units(space), h_module=module(space, *roots))


def walls_of(f, pair):
    """The walls _chamber_walls derives for f from the pair, in free-column
    coordinates."""
    free, vectors = f.space.slice_view()
    return _chamber_walls(free, vectors, [f.linear[c] for c in free],
                          [(c, tuple(row[j] for j in free)) for c, row in f.terms], pair)


def dense_walls_of(f, pair):
    """The walls of dense_chamber_walls for f and the pair, in free-column
    coordinates: its columns are the free columns, each with entry 1, and
    its lift the rows of the slice view's vectors."""
    free, vectors = f.space.slice_view()
    return dense_chamber_walls(f, [(c, 1) for c in free], list(zip(*vectors)), pair)


def root_system(coords, n, signed):
    """Every root of the group of a block: e_a - e_b for a != b and, if it
    is signed, +-e_a +- e_b and +-e_a."""
    roots = [tuple((i == a) - (i == b) for i in range(n))
             for a, b in itertools.permutations(coords, 2)]
    if signed:
        roots += [tuple(s * ((i == a) + (i == b)) for i in range(n))
                  for a, b in itertools.combinations(coords, 2) for s in (1, -1)]
        roots += [tuple(s * (i == a) for i in range(n))
                  for a in coords for s in (1, -1)]
    return roots


class TestReductions:
    def _example(self):
        s = TorusSpace(3, [lf(1, 1, 1)])
        # symmetric under permuting all three coordinates
        return pl(s, [(1, lf(1, -1, 0)), (1, lf(0, 1, -1)), (1, lf(1, 0, -1)),
                      (-1, lf(2, -1, -1)), (-1, lf(-1, 2, -1)), (-1, lf(-1, -1, 2))])

    def test_symmetry_same_verdict_smaller_certificate(self):
        f = self._example()
        pair = candidates(f.space, root_system((0, 1, 2), 3, False))
        assert isinstance(is_nonnegative(f), Witness)
        assert isinstance(is_nonnegative(f, pair), Witness)
        # with every coefficient made positive it is nonnegative
        g = PLFunction(f.space, [(F(abs(c), f.den), row) for c, row in f.terms])
        full, reduced = is_nonnegative(g), is_nonnegative(g, pair)
        assert isinstance(full, NonnegCertificate)
        assert isinstance(reduced, NonnegCertificate)
        assert reduced.symmetry_reduced and not full.symmetry_reduced
        assert len(reduced.rays) < len(full.rays)
        assert reduced.chamber_count < full.chamber_count

    def test_symmetry_claim_verified(self):
        # not symmetric in (x, y): the candidate is dropped, not trusted
        s = TorusSpace(2)
        f = pl(s, [(1, lf(1, 0)), (2, lf(0, 1))])
        pair = candidates(s, [(1, -1), (-1, 1)])
        assert walls_of(f, pair) == []
        assert is_nonnegative(f, pair) == is_nonnegative(f)

    def test_roots_not_closed_under_their_reflections(self):
        # the kept roots e1 - e2 and e1 - e3 are not closed: their
        # reflections give e2 - e3, a weight of g/h, which makes the form
        # S3-invariant.  s_{e1-e3} sends e1 - e2 to e3 - e2, whose coroot is
        # lexicographically negative, so only e1 - e2 is simple; the domain
        # is its half-plane, [-2, -1] on the slice basis (-1, 1, 0),
        # (-1, 0, 1), where the closure gave the chamber of e1 - e2, e2 - e3
        f = self._example()
        f = PLFunction(f.space, [(F(abs(c), f.den), row) for c, row in f.terms])
        s = f.space
        pair = PairSpec(g_module=module(s, (0, 1, -1)),
                        h_module=module(s, (1, -1, 0), (1, 0, -1)))
        assert walls_of(f, pair) == [[-2, -1]]
        reduced = is_nonnegative(f, pair)
        assert isinstance(reduced, NonnegCertificate) and reduced.symmetry_reduced
        assert len(reduced.rays) == 7
        assert isinstance(is_nonnegative(f), NonnegCertificate)

    def test_simple_roots_failing_the_angle_test_give_the_whole_slice(self):
        # |z| is invariant under both reflections, which fix z, and both
        # roots are simple; under B^-1 their lex-positive forms meet at an
        # acute angle, so no finite group is proved and the slice is whole
        s = TorusSpace(3)
        f = pl(s, [(1, lf(0, 0, 1))])
        pair = candidates(s, [(2, 1, 0), (-1, 1, 0)])
        assert walls_of(f, pair) == []
        result = is_nonnegative(f, pair)
        assert result == is_nonnegative(f) and not result.symmetry_reduced


def reference_form(f, pair):
    """(on_slice, flat, B^-1): the map of an ambient row to its values at
    the slice points of the free-column coordinates (the slice view's
    vectors over _scale), f rebuilt there as a new PLFunction, and the
    inverse, by mat_inv, of B from plain sums over the weights of the pair
    in those coordinates."""
    free, vectors = f.space.slice_view()
    d = len(free)

    def on_slice(row):
        return [F(sum(map(operator.mul, row, v)), f.space._scale) for v in vectors]

    B = [[F(0)] * d for _ in range(d)]
    for M in (pair.h_module, pair.g_module):
        for weight, m in M.weights:
            w = [(i, x) for i, x in enumerate(on_slice(weight)) if x]
            for i, x in w:
                for j, y in w:
                    B[i][j] += m * x * y
    flat = PLFunction(TorusSpace(d), [(F(c, f.den), on_slice(row)) for c, row in f.terms],
                      on_slice([F(x, f.den) for x in f.linear]))
    return on_slice, flat, mat_inv(B)


def reference_invariant(f, root, pair) -> bool:
    """Reference for the candidate check on an ambient ``root``."""
    on_slice, flat, inverse = reference_form(f, pair)
    return invariant_on_slice(flat, on_slice(root), inverse)


def invariant_on_slice(flat, r, inverse) -> bool:
    """Whether f o S = f, for f rebuilt on the slice basis as ``flat`` and
    the reflection in the slice covector r built as a rational matrix S =
    I - 2 t r^T / r(t), t = B^-1 r; f o S rebuilt as a new PLFunction and
    compared with f."""
    t = [sum(x * y for x, y in zip(row, r)) for row in inverse]
    k = sum(x * y for x, y in zip(r, t))

    def compose(row):
        x = sum(a * b for a, b in zip(row, t))
        return [a - 2 * x * b / k for a, b in zip(row, r)]

    after = PLFunction(flat.space, [(F(c, flat.den), compose(row)) for c, row in flat.terms],
                       compose([F(x, flat.den) for x in flat.linear]))
    return flat == after


def leading_minors_positive(B) -> bool:
    """Whether every leading principal minor of B is positive: elimination
    without row swaps, whose k-th pivot is the k-th minor over the one
    before it."""
    M = [[F(x) for x in row] for row in B]
    for k in range(len(M)):
        if M[k][k] <= 0:
            return False
        for i in range(k + 1, len(M)):
            r = M[i][k] / M[k][k]
            M[i] = [x - r * y for x, y in zip(M[i], M[k])]
    return True


SCAN_MIX = {"table1": {"pmax": 5, "qmax": 5}, "table2": {"max": 3},
            "example51": {"total": 6, "rank": 4}, "example52-sl": {"n": 8},
            "example52-sp": {"n": 4}, "example52-so": {"total": 6}}


def test_chamber_form_is_positive_definite_when_solve_accepts_it(monkeypatch):
    # B = sum m mu(x)mu with every m > 0 is positive semidefinite, so it is
    # positive definite exactly when it is nonsingular and _chamber_walls
    # reads no pivot signs: over the scan-mix specs, every B that solve
    # accepts has positive leading minors (Sylvester), and every B it
    # rejects is singular
    forms, calls = {}, []

    def recording(A, columns):
        out = solve(A, columns)
        forms[tuple(map(tuple, A))] = out is not None
        calls.append(A)
        return out

    monkeypatch.setattr(verify, "solve", recording)
    for family, kwargs in SCAN_MIX.items():
        for _, spec, _ in FAMILIES[family](**kwargs):
            check(spec)
    assert len(calls) > 400 and len(forms) > 50
    for B, accepted in forms.items():
        if accepted:
            assert leading_minors_positive(B), B
        else:
            assert fraction_det(B) == 0, B


def accepts(f, root, form) -> bool:
    """Whether the candidate root alone is kept, for the form of the
    weights of ``form``: a lone kept root is its only simple root and its
    only wall.  Checked against the reference on the same pair."""
    pair = candidates(f.space, [root], form)
    kept = bool(walls_of(f, pair))
    assert kept == reference_invariant(f, root, pair), (root, f)
    return kept


def symmetry_family_specs():
    specs = [build_sl_block(TABLE1_PATTERNS[name](p, q))
             for name in TABLE1_PATTERNS for p, q in ((2, 3), (3, 1))]
    specs += [build_sl_block(TABLE2_PATTERNS[name](2, 1, 2))
              for name in TABLE2_PATTERNS]
    specs += [build_product_in_sp((2, 1, 2)), build_so_pair(2, 1, 1, 2),
              build_so_pair(3, 1, 2, 2), build_classical_in_sl("so", 3, 2),
              build_classical_in_sl("sp", 3),
              realify(build_product_in_sl((2, 2)))]
    return specs


def killing(spec):
    """The weights of h and g/h together, whose form is the Killing form."""
    return WeightModule(spec.space, spec.h_module.weights + spec.g_module.weights)


def formerly_declared(spec):
    """The generators of the symmetry the family builders used to declare:
    the swaps of adjacent coordinates in each full block of size > 1, and
    the sign flip of each coordinate of a signed block, as roots."""
    meta, n = spec.metadata, spec.space.ambient_dim
    if meta["family"] == "sl_block":
        starts = list(itertools.accumulate([0] + meta["sizes"]))
        blocks = [range(a, b) for a, b, kind in zip(starts, starts[1:],
                                                    meta["diagonal_kind"])
                  if kind == "full"]
        signed = False
    elif meta["family"] == "product_in_sl":
        starts = list(itertools.accumulate([0] + meta["parts"]))
        blocks, signed = [range(a, b) for a, b in zip(starts, starts[1:])], False
    elif meta["family"] == "product_in_sp":
        starts = list(itertools.accumulate([0] + meta["parts"]))
        blocks, signed = [range(a, b) for a, b in zip(starts, starts[1:])], True
    elif meta["family"] == "so_pair":
        p1, q1, _, _ = meta["signature"]
        blocks, signed = [range(min(p1, q1)), range(min(p1, q1), n)], True
    else:
        blocks, signed = [range(n)], True
    roots = [tuple((i == a) - (i == b) for i in range(n))
             for block in blocks for a, b in zip(block, block[1:])]
    if signed:
        roots += [tuple(int(i == a) for i in range(n))
                  for block in blocks for a in block]
    return roots


class TestSymmetryCheck:
    def test_random_blocks_match_reference(self):
        rng = random.Random(5)
        verdicts = []
        for spec in symmetry_family_specs():
            f = deficit(spec)
            n = f.space.ambient_dim
            for _ in range(8):
                root = [0] * n
                for a in rng.sample(range(n), rng.randint(1, min(n, 2))):
                    root[a] = rng.choice((1, -1, 2))
                if any(dot(root, v) for v in f.space.slice_basis()):
                    verdicts.append(accepts(f, tuple(root), killing(spec)))
        # both answers occur, so the comparison is not vacuous
        assert any(verdicts) and not all(verdicts)

    def test_sub_blocks_of_declared_accepted(self):
        # every generator of the symmetry the builders used to declare is
        # still a reflection of the deficit for the Killing form
        for spec in symmetry_family_specs():
            f = deficit(spec)
            for root in formerly_declared(spec):
                if any(dot(root, v) for v in f.space.slice_basis()):
                    assert accepts(f, root, killing(spec)), (spec.metadata, root)

    def test_slice_not_preserved(self):
        # swapping y and z moves the slice x + y = 0 off itself, but the
        # reflection in the root y - z is built on the slice: it swaps the
        # slice coordinates y and z, and |y| + |z| is invariant under it.
        # Its coroot lifts to (-1, 1, -1), so the positive root is z - y
        s = TorusSpace(3, [lf(1, 1, 0)])
        f = pl(s, [(1, lf(0, 1, 0)), (1, lf(0, 0, 1))])
        form = module(s, (0, 1, 0), (0, 0, 1))
        assert accepts(f, (0, 1, -1), form)
        assert walls_of(f, candidates(s, [(0, 1, -1)], form)) == [[-1, 1]]
        g = pl(s, [(1, lf(0, 1, 0)), (2, lf(0, 0, 1))])
        assert not accepts(g, (0, 1, -1), form)

    def test_proportional_abs_forms_merge(self):
        # |2x| + 2|y| - |x + y| is symmetric in (x, y); PLFunction holds
        # |2x| as 2|x|, so the rebuilt comparison accepts it too
        s = TorusSpace(2)
        f = pl(s, [(1, lf(2, 0)), (2, lf(0, 1)), (-1, lf(1, 1))])
        assert accepts(f, (1, -1), units(s))
        # |2x| + |y| = 2|x| + |y| is not
        g = pl(s, [(1, lf(2, 0)), (1, lf(0, 1))])
        assert not accepts(g, (1, -1), units(s))

    def test_linear_part_must_be_invariant(self):
        # 2|x| + 2|y| + 3(x - y): the swap keeps the abs terms but not the
        # linear part, so it is dropped; kept, its chamber x >= y would
        # miss the negative values at (0, 1) and (-1, 0)
        s = TorusSpace(2)
        f = pl(s, [(2, lf(1, 0)), (2, lf(0, 1))], lf(3, -3))
        assert not accepts(f, (1, -1), units(s))
        result = is_nonnegative(f, candidates(s, [(1, -1), (-1, 1)]))
        assert isinstance(result, Witness) and result.value < 0

    def test_invariant_linear_part_is_kept(self):
        # |x| + |y| + (x + y): the swap keeps the linear part, whose value
        # at the coroot (1, -1) sums to 0 from two nonzero products
        s = TorusSpace(2)
        f = pl(s, [(1, lf(1, 0)), (1, lf(0, 1))], lf(1, 1))
        assert accepts(f, (1, -1), units(s))
        assert walls_of(f, candidates(s, [(1, -1)])) == [[1, -1]]

    def test_bad_coords_in_direct_call(self):
        f = pl(TorusSpace(2), [(1, lf(1, 0)), (1, lf(0, 1))])
        with pytest.raises(SpaceMismatchError):
            is_nonnegative(f, candidates(TorusSpace(3), [(1, -1, 0)]))

    def test_signed_block(self):
        s = TorusSpace(2)
        f = pl(s, [(2, lf(1, 0)), (2, lf(0, 1)), (-1, lf(1, -1)), (-1, lf(1, 1))])
        assert accepts(f, (1, -1), units(s)) and accepts(f, (0, 1), units(s))
        # the B2 chamber x >= y >= 0
        b2 = candidates(s, root_system((0, 1), 2, True))
        assert walls_of(f, b2) == [[1, -1], [0, 1]]
        g = pl(s, [(1, lf(1, -1))])
        assert not accepts(g, (0, 1), units(s))


@pytest.mark.parametrize("build", [
    lambda: extract_weights(matrix_input_for_block_pattern(
        TABLE1_PATTERNS["H4"](3, 3))),
    lambda: extract_weights(example_sp21_input()),
], ids=["H4_3_3", "sp21"])
def test_matrix_inputs_get_derived_domain(build):
    # matrix inputs declare nothing; the domain comes from their weights
    spec = build()
    f = deficit(spec)
    assert walls_of(f, spec)
    reduced, full = check(spec), check(spec, use_symmetry=False)
    assert reduced.tempered == full.tempered
    if reduced.tempered:
        assert reduced.evidence.symmetry_reduced
        assert not full.evidence.symmetry_reduced
        assert reduced.evidence.chamber_count < full.evidence.chamber_count
    else:
        assert evaluate_pl(f, reduced.evidence.direction) == reduced.evidence.value < 0


def reference_chamber_problems(f, walls, pair) -> list:
    """What fails, recomputed in Fractions, of the conditions that make the
    walls, in free-column coordinates, cut out a fundamental chamber of a finite
    reflection group that f is invariant under: B is nonsingular (mat_inv
    raises otherwise), the walls are linearly independent (rref), every
    pair is obtuse under B^-1 with 4 cos^2 in {0, 1, 2, 3}, and f o s = f
    for the reflection in every wall."""
    _, flat, inverse = reference_form(f, pair)
    walls = [[F(x) for x in wall] for wall in walls]
    coroots = [[dot(row, a) for row in inverse] for a in walls]
    problems = []
    if len(rref(walls)[0]) < len(walls):
        problems.append("dependent")
    for i, (a, t) in enumerate(zip(walls, coroots)):
        for b, u in zip(walls, coroots[:i]):
            x = dot(a, u)
            if x > 0 or 4 * x * x / (dot(a, t) * dot(b, u)) not in (0, 1, 2, 3):
                problems.append(("angle", a, b))
        if not invariant_on_slice(flat, a, inverse):
            problems.append(("not invariant", a))
    return problems


def test_derived_chambers_meet_the_reference_conditions():
    # every chamber check derives for the scan-mix families and two matrix
    # inputs, replayed without verify's integer code
    specs = [spec for family, kwargs in SCAN_MIX.items()
             for _, spec, _ in FAMILIES[family](**kwargs)]
    specs += [extract_weights(matrix_input_for_block_pattern(TABLE1_PATTERNS["H4"](3, 3))),
              extract_weights(example_sp21_input())]
    chambers = 0
    for spec in specs:
        f = deficit(spec)
        walls = walls_of(f, spec)
        if walls:
            chambers += 1
            assert reference_chamber_problems(f, walls, spec) == [], spec.metadata
    assert chambers > 450


ACCEPTANCE = {"table1": {"pmax": 6, "qmax": 6}, "table2": {"max": 4},
              "example51": {"total": 6, "rank": 4}, "example52-sl": {"n": 8},
              "example52-sp": {"n": 4}, "example52-so": {"total": 6}}


def test_walls_match_the_dense_reference():
    # the slice-coordinate derivation, one solve for every coroot, gives the
    # walls of the dense ambient one on every acceptance spec and on the 61
    # matrix inputs: every table1 pattern with p, q <= 4 but (4, 4), and sp21
    specs = [spec for family, kwargs in ACCEPTANCE.items()
             for _, spec, _ in FAMILIES[family](**kwargs)]
    specs += [extract_weights(matrix_input_for_block_pattern(TABLE1_PATTERNS[name](p, q)))
              for name in TABLE1_PATTERNS
              for p, q in itertools.product(range(1, 5), repeat=2) if (p, q) != (4, 4)]
    specs.append(extract_weights(example_sp21_input()))
    assert len(specs) == 1041 + 61
    chambers = 0
    for spec in specs:
        f = deficit(spec)
        if f.terms:
            walls = walls_of(f, spec)
            chambers += bool(walls)
            assert walls == dense_walls_of(f, spec), spec.metadata
    assert chambers > 900


def test_walls_match_the_dense_reference_on_random_pairs():
    # tori whose slice basis has entries other than 1 at its free columns,
    # rational weights, roots of h that are not closed under their
    # reflections, and f with a linear part or unrelated to the pair: none
    # of these occur at the acceptance specs
    rng = random.Random(11)
    compared = chambers = scaled = 0
    for _ in range(600):
        n = rng.randint(2, 5)
        try:
            space = TorusSpace(n, [[rng.choice([0, 0, 1, -1, 2, 3, -2]) for _ in range(n)]
                                   for _ in range(rng.randint(0, min(2, n - 1)))])
        except ValueError:      # dependent constraints
            continue

        def form():
            return tuple(rng.choice([0, 0, 1, -1, 2, -2, F(1, 2)]) for _ in range(n))

        h = [(form(), rng.randint(1, 2)) for _ in range(rng.randint(1, 5))]
        g = [(form(), rng.randint(1, 3)) for _ in range(rng.randint(1, 6))]
        h += [(tuple(-x for x in w), m) for w, m in h if rng.random() < 0.7]
        g += [(tuple(-x for x in w), m) for w, m in g if rng.random() < 0.5]
        pair = PairSpec(g_module=WeightModule(space, g), h_module=WeightModule(space, h))
        f = deficit(pair) if rng.random() < 0.5 else PLFunction(
            space, [(F(rng.randint(-3, 3)), form()) for _ in range(rng.randint(1, 6))],
            form() if rng.random() < 0.3 else None)
        if f.terms:
            walls = walls_of(f, pair)
            assert walls == dense_walls_of(f, pair)
            compared += 1
            chambers += bool(walls)
            scaled += bool(walls) and space._scale != 1
    assert compared > 500 and chambers > 80 and scaled > 10


@pytest.mark.parametrize("pattern, sizes", [("H12", (1, 3, 3)), ("H7", (2, 2, 1))])
def test_failing_candidate_cuts_nothing(pattern, sizes):
    # the upper blocks give roots of h whose reflections do not leave the
    # deficit invariant: they are dropped, the chamber is the one the
    # passing roots give under the same form, and the verdict is the
    # whole-slice one
    spec = build_sl_block(TABLE2_PATTERNS[pattern](*sizes))
    f = deficit(spec)
    basis = f.space.slice_basis()
    roots = [(w, m) for w, m in spec.h_module.weights if any(dot(w, v) for v in basis)]
    failing = [(w, m) for w, m in roots if not reference_invariant(f, w, spec)]
    passing = [(w, m) for w, m in roots if (w, m) not in failing]
    assert failing and passing
    walls = walls_of(f, spec)
    same_form = PairSpec(h_module=WeightModule(f.space, passing),
                         g_module=WeightModule(f.space, failing + list(
                             spec.g_module.weights)))
    assert walls and walls == walls_of(f, same_form)
    free, _ = f.space.slice_view()
    for w, _ in failing:
        row = [w[c] for c in free]      # w is stored reduced: zero at the pivots
        assert not any(sum(a * b for a, b in zip(row, wall)) ** 2
                       == sum(a * a for a in row) * sum(b * b for b in wall)
                       for wall in walls)
    reduced, full = check(spec), check(spec, use_symmetry=False)
    assert reduced.tempered == full.tempered == (pattern == "H12")
    if reduced.tempered:
        assert reduced.evidence.symmetry_reduced
        assert [evaluate_pl(f, ray) for ray in reduced.evidence.rays] \
            == list(reduced.evidence.ray_values)
    else:
        assert evaluate_pl(f, reduced.evidence.direction) == reduced.evidence.value < 0


def random_pl(rng: random.Random, dim: int, n_terms: int) -> PLFunction:
    s = TorusSpace(dim)
    terms = []
    for _ in range(n_terms):
        form = lf(*[rng.randint(-2, 2) for _ in range(dim)])
        terms.append((rng.randint(-3, 3), form))
    return pl(s, terms)


class TestOracleAgreement:
    def test_random_instances(self):
        rng = random.Random(20250823)
        for _ in range(120):
            f = random_pl(rng, rng.randint(1, 3), rng.randint(1, 5))
            result = is_nonnegative(f)
            probe = grid_oracle(f, resolution=6)
            if isinstance(result, NonnegCertificate):
                assert probe is None
            else:
                assert evaluate_pl(f, result.direction) == result.value < 0

    def test_planted_negative(self):
        rng = random.Random(99)
        for _ in range(40):
            dim = rng.randint(1, 3)
            f = random_pl(rng, dim, rng.randint(0, 4))
            direction = tuple(F(rng.randint(-3, 3)) for _ in range(dim))
            if all(c == 0 for c in direction):
                direction = (F(1),) + direction[1:]
            # plant a term making f negative along `direction`
            val = evaluate_pl(f, direction)
            beta = lf(*direction)
            drop = F(val + 1) / dot(beta, direction)
            f = f + pl(f.space, [(-drop, beta)])
            assert evaluate_pl(f, direction) == F(-1)
            w = is_nonnegative(f)
            assert isinstance(w, Witness)
            assert w.value < 0
            assert evaluate_pl(f, w.direction) == w.value


class TestGridOracle:
    def test_finds_most_negative(self):
        s = TorusSpace(2)
        f = pl(s, [(1, lf(0, 1)), (-1, lf(1, 0))])
        w = grid_oracle(f, resolution=3)
        assert w is not None
        assert w.value == F(-3)

    def test_none_on_nonnegative(self):
        s = TorusSpace(2)
        f = pl(s, [(1, lf(1, 0)), (1, lf(0, 1)), (-1, lf(1, 1))])
        assert grid_oracle(f, resolution=5) is None

    def test_resolution_validation(self):
        s = TorusSpace(1)
        with pytest.raises(ValueError):
            grid_oracle(pl(s, [(1, lf(1))]), resolution=0)

    def test_rational_abs_forms_scaled(self):
        # |y/2| - (1/3)|y| = |y|/6 >= 0; truncating the form y/2 to an
        # integer row once reported a "witness" of value 1/2 here
        f = pl(TorusSpace(1), [(1, lf(F(1, 2))), (F(-1, 3), lf(1))])
        assert isinstance(is_nonnegative(f), NonnegCertificate)
        assert grid_oracle(f, resolution=3) is None

    def test_fraction_fallback_matches(self):
        # coefficients past 2**62 take the Python-int matmul; int64 sums
        # would overflow and invent or hide negative values
        s = TorusSpace(2)
        big = 2 ** 40
        f = pl(s, [(big, lf(big, 0)), (-big, lf(0, big))])
        w = grid_oracle(f, resolution=2)
        assert w is not None
        assert w.value == evaluate_pl(f, w.direction) < 0
        assert isinstance(is_nonnegative(f), Witness)
        # big*(|x| + |y| - |x + y|) + |x - y| >= 0 by the triangle inequality
        big = 2 ** 70
        g = pl(s, [(big, lf(1, 0)), (big, lf(0, 1)), (-big, lf(1, 1)), (1, lf(1, -1))])
        assert isinstance(is_nonnegative(g), NonnegCertificate)
        assert grid_oracle(g, resolution=3) is None
        # big*|x| - (big + 1)*|y| is least, -3*(big + 1), at x = 0, |y| = 3
        g = pl(s, [(big, lf(1, 0)), (-big - 1, lf(0, 1))])
        w = grid_oracle(g, resolution=3)
        assert isinstance(is_nonnegative(g), Witness)
        assert w.value == evaluate_pl(g, w.direction) == -3 * (big + 1)
        assert w.direction == (0, -3)


coeff = st.integers(min_value=-3, max_value=3)
rational = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def pl_functions(draw, max_dim=3, max_terms=4, coeff=coeff):
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    n = draw(st.integers(min_value=1, max_value=max_terms))
    terms = []
    for _ in range(n):
        form = [draw(coeff) for _ in range(dim)]
        terms.append((draw(coeff), lf(*form)))
    return pl(TorusSpace(dim), terms)


@settings(max_examples=40, deadline=None)
@given(pl_functions())
def test_evenness(f):
    point = tuple(F(i + 1) for i in range(f.space.ambient_dim))
    assert f(point) == f(tuple(-c for c in point))


@settings(max_examples=40, deadline=None)
@given(pl_functions(), st.integers(min_value=1, max_value=9))
def test_positive_homogeneity(f, t):
    point = tuple(F(2 * i - 3) for i in range(f.space.ambient_dim))
    assert f(tuple(t * c for c in point)) == t * f(point)


@settings(max_examples=30, deadline=None)
@given(pl_functions())
def test_nonnegative_coefficients_certify(f):
    g = PLFunction(f.space, [(F(abs(c), f.den), row) for c, row in f.terms])
    assert isinstance(is_nonnegative(g), NonnegCertificate)


@settings(max_examples=60, deadline=None)
@given(pl_functions(max_dim=2, coeff=rational))
def test_certificate_rays_cover_sign(f):
    result = is_nonnegative(f)
    found = grid_oracle(f, resolution=7)
    if isinstance(result, NonnegCertificate):
        assert found is None
    else:
        assert result.value < 0
    if found is not None:
        assert found.value == evaluate_pl(f, found.direction) < 0


def reference_nonnegative(f) -> bool:
    """f >= 0 decided without the convex arrangement: every row of f cuts
    the whole slice, and evaluate_pl runs at every ray and at the +-
    lineality generators."""
    complex_ = enumerate_cells([row for _, row in f.terms], f.space.slice_basis())
    rays = {ray for cell in complex_.cells for ray in cell.rays}
    for g in complex_.lineality:
        rays |= {g, tuple(-x for x in g)}
    return all(evaluate_pl(f, ray) >= 0 for ray in rays)


def block_orbit(form, coords, signed):
    """The images of form under every element of the group of a block: the
    permutations of its coordinates and, if it is signed, their sign
    changes, one image per element."""
    signs = (itertools.product((1, -1), repeat=len(coords)) if signed
             else [(1,) * len(coords)])
    out = []
    for sign in signs:
        for perm in itertools.permutations(coords):
            image = list(form)
            for a, b, s in zip(coords, perm, sign):
                image[b] = s * form[a]
            out.append(image)
    return out


@st.composite
def mixed_pl_functions(draw, symmetric):
    """(f, roots, true_roots): f has mixed-sign rational coefficients, on a
    free or a trace-zero space.  When symmetric, f is summed over the group
    of a random block, and true_roots are every root of that group, whose
    reflections for the standard form leave f invariant.  roots adds to
    them up to two random candidates, which may be false.  A triangle group
    c|a| + c|b| - c'|a + b| with 0 < c' <= c is nonnegative, so mixed-sign
    certificates occur as well as witnesses."""
    dim = draw(st.integers(min_value=2 if symmetric else 1, max_value=3))
    true_roots = []
    trace = dim > 1 and draw(st.booleans())
    if symmetric:
        k = draw(st.integers(min_value=2, max_value=dim))
        coords = tuple(range(dim - k, dim))
        signed = draw(st.booleans())
        trace = trace and not signed and k == dim
        true_roots = root_system(coords, dim, signed)
    space = TorusSpace(dim, [lf(*[1] * dim)] if trace else [])

    def form():
        return [draw(coeff) for _ in range(dim)]

    terms = [(draw(rational), form())
             for _ in range(draw(st.integers(min_value=0, max_value=3)))]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        a, b = form(), form()
        c = draw(st.fractions(min_value=F(1, 4), max_value=3, max_denominator=4))
        terms += [(c, a), (c, b),
                  (-c * draw(st.sampled_from([F(1, 2), F(1)])),
                   [x + y for x, y in zip(a, b)])]
    if symmetric:
        terms = [(c, image) for c, row in terms
                 for image in block_orbit(row, coords, signed)]
    linear = None
    if not symmetric and draw(st.booleans()):
        linear = form()
    roots = true_roots + [form() for _ in range(draw(st.integers(0, 2)))]
    return pl(space, terms, linear), roots, true_roots


@pytest.mark.parametrize("symmetric", [False, True], ids=["plain", "symmetric"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_convex_arrangement_matches_full_enumeration(symmetric, data):
    # a false candidate never changes the verdict
    f, roots, true_roots = data.draw(mixed_pl_functions(symmetric))
    result = is_nonnegative(f, candidates(f.space, [r for r in roots if any(r)]))
    assert isinstance(result, NonnegCertificate) == reference_nonnegative(f)
    if isinstance(result, Witness):
        assert evaluate_pl(f, result.direction) == result.value < 0
    else:
        assert [evaluate_pl(f, ray) for ray in result.rays] == list(result.ray_values)
        if len(roots) == len(true_roots):
            assert result.symmetry_reduced == bool(true_roots and f.terms)


@pytest.mark.parametrize("spec", [
    build_sl_block(TABLE1_PATTERNS["H4"](3, 2)),
    build_sl_block(TABLE1_PATTERNS["H2"](2, 2)),
    build_sl_block(TABLE2_PATTERNS["H10"](2, 1, 2)),
    build_so_pair(3, 1, 2, 2),
    realify(build_product_in_sl((2, 2))),
], ids=["table1_H4_3_2", "table1_H2_2_2", "table2_H10_2_1_2", "so_3_1_2_2",
        "realified_sl_2_2"])
def test_certificate_values_are_function_values(spec):
    # each recorded value is f at its lifted ray, checked here by summing
    # over the weights instead of through evaluate_at
    f = deficit(spec)
    for pair in (None, spec):
        result = is_nonnegative(f, pair)
        if isinstance(result, Witness):
            assert deficit_reference(spec, result.direction) == result.value < 0
            continue
        assert result.rays
        for ray, value in zip(result.rays, result.ray_values):
            assert all(type(x) is int for x in ray) and math.gcd(*ray) == 1
            assert deficit_reference(spec, ray) == value >= 0
