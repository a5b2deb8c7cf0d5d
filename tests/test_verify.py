import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from temperkit.cones import enumerate_cells
from temperkit.errors import SymmetryError
from temperkit.generators import (TABLE1_PATTERNS, TABLE2_PATTERNS,
                                  build_classical_in_sl, build_product_in_sl,
                                  build_product_in_sp, build_sl_block,
                                  build_so_pair, realify)
from temperkit.model import (LinearForm, PLFunction, SymmetryBlock, TorusSpace,
                             deficit, evaluate_pl)
from temperkit.verify import (NonnegCertificate, Witness, _check_symmetry,
                              grid_oracle, is_nonnegative)

F = Fraction


def lf(*coeffs):
    return LinearForm([F(c) for c in coeffs])


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


def cells(normals, space):
    """The cell complex of the integer hyperplane normals on the slice."""
    return enumerate_cells(normals, space.slice_basis())


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
        # what makes a ray certificate sound: no hyperplane of f vanishes
        # inside a cell, so f is linear on it and the values at the cell's
        # rays, all listed in the certificate, determine f there
        rng = random.Random(7)
        s = TorusSpace(3, [lf(1, 1, 1)])
        cases = [
            [(2, lf(1, -1, 0)), (-1, lf(0, 1, -1)), (3, lf(1, 0, -1))],
            # non-primitive and rational forms, two of them on one hyperplane:
            # 2|x-y| + (1/2)|y-z| + 4|y-z| - |x-z| >= 0
            [(1, lf(2, -2, 0)), (F(1, 3), lf(0, "3/2", "-3/2")),
             (-1, lf(1, 0, -1)), (1, lf(0, 4, -4))],
        ]
        for terms in cases:
            f = pl(s, terms)
            cert = is_nonnegative(f)
            assert isinstance(cert, NonnegCertificate)
            value_of = dict(zip(cert.rays, cert.ray_values))
            complex_ = cells([row for _, row in f.terms], s)
            assert len(complex_.cells) == cert.chamber_count
            assert all(cell.rays for cell in complex_.cells)
            for cell in complex_.cells:
                # random interior point: positive combination of the rays
                weights = [rng.randint(1, 5) for _ in cell.rays]
                pt = [F(0)] * 3
                for w, ray in zip(weights, cell.rays):
                    for k in range(3):
                        pt[k] += w * ray[k]
                for h in cert.hyperplanes:
                    assert h(pt) != 0
                value = evaluate_pl(f, pt)
                assert value == sum(
                    w * value_of[ray] for w, ray in zip(weights, cell.rays))
                assert value == sum((c * abs(a(pt)) for c, a in f.abs_terms), F(0))


class TestReductions:
    def _example(self):
        s = TorusSpace(3, [lf(1, 1, 1)])
        # symmetric under permuting all three coordinates
        return pl(s, [(1, lf(1, -1, 0)), (1, lf(0, 1, -1)), (1, lf(1, 0, -1)),
                      (-1, lf(2, -1, -1)), (-1, lf(-1, 2, -1)), (-1, lf(-1, -1, 2))])

    def test_symmetry_same_verdict_smaller_certificate(self):
        f = self._example()
        block = (SymmetryBlock((0, 1, 2)),)
        assert isinstance(is_nonnegative(f), Witness)
        assert isinstance(is_nonnegative(f, symmetry=block), Witness)
        # with every coefficient made positive it is nonnegative
        g = PLFunction(f.space, [(abs(c), a) for c, a in f.abs_terms])
        full, reduced = is_nonnegative(g), is_nonnegative(g, symmetry=block)
        assert isinstance(full, NonnegCertificate)
        assert isinstance(reduced, NonnegCertificate)
        assert reduced.symmetry_reduced and not full.symmetry_reduced
        assert len(reduced.rays) < len(full.rays)
        assert reduced.chamber_count < full.chamber_count

    def test_symmetry_claim_verified(self):
        s = TorusSpace(2)
        f = pl(s, [(1, lf(1, 0)), (2, lf(0, 1))])  # not symmetric in (x, y)
        with pytest.raises(ValueError):
            is_nonnegative(f, symmetry=(SymmetryBlock((0, 1)),))


def rebuilt_symmetry_check(f, symmetry) -> bool:
    """Reference for _check_symmetry: for every generator s, rebuild f o s
    and its space as a new PLFunction and TorusSpace and compare them with
    f structurally."""
    n = f.space.ambient_dim

    def transformed(perm_sign):
        def map_form(form):
            out = [F(0)] * n
            for i, c in enumerate(form.coeffs):
                j, s = perm_sign[i]
                out[j] += s * c
            return LinearForm(out)
        space = TorusSpace(n, [map_form(c) for c in f.space.constraints])
        return PLFunction(space, [(c, map_form(a)) for c, a in f.abs_terms],
                          map_form(f.linear_term))

    idmap = [(i, 1) for i in range(n)]
    for block in symmetry:
        coords = block.coords
        perms = []
        for a, b in zip(coords, coords[1:]):
            pm = list(idmap)
            pm[a], pm[b] = (b, 1), (a, 1)
            perms.append(pm)
        if block.signed and coords:
            pm = list(idmap)
            pm[coords[-1]] = (coords[-1], -1)
            perms.append(pm)
        for pm in perms:
            g = transformed(pm)
            if g.space != f.space or g != f:
                return False
    return True


def accepts(f, symmetry) -> bool:
    try:
        _check_symmetry(f, symmetry)
    except SymmetryError:
        return False
    return True


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


class TestSymmetryCheck:
    def test_random_blocks_match_reference(self):
        rng = random.Random(5)
        verdicts = []
        for spec in symmetry_family_specs():
            f = deficit(spec)
            n = f.space.ambient_dim
            for _ in range(8):
                k = rng.randint(1, min(n, 4))
                block = SymmetryBlock(tuple(rng.sample(range(n), k)),
                                      signed=rng.random() < 0.5)
                expected = rebuilt_symmetry_check(f, (block,))
                assert accepts(f, (block,)) == expected, (spec.metadata, block)
                verdicts.append(expected)
        # both answers occur, so the comparison is not vacuous
        assert any(verdicts) and not all(verdicts)

    def test_sub_blocks_of_declared_accepted(self):
        rng = random.Random(6)
        for spec in symmetry_family_specs():
            f = deficit(spec)
            assert accepts(f, spec.symmetry)
            for block in spec.symmetry:
                for _ in range(4):
                    k = rng.randint(1, len(block.coords))
                    sub = SymmetryBlock(tuple(rng.sample(block.coords, k)),
                                        signed=block.signed and rng.random() < 0.7)
                    assert rebuilt_symmetry_check(f, (sub,))
                    assert accepts(f, (sub,)), (spec.metadata, sub)

    def test_slice_not_preserved(self):
        # swapping y and z moves the slice x + y = 0 off itself, although
        # |y| + |z| restricted to the images of the slice basis matches
        f = pl(TorusSpace(3, [lf(1, 1, 0)]), [(1, lf(0, 1, 0)), (1, lf(0, 0, 1))])
        block = (SymmetryBlock((1, 2)),)
        assert not rebuilt_symmetry_check(f, block)
        with pytest.raises(SymmetryError,
                           match=r"symmetry\[0\] \(coords \[1, 2\]\): the swap "
                                 r"of coordinates 1 and 2 does not preserve"):
            _check_symmetry(f, block)

    def test_proportional_abs_forms_merge(self):
        # |2x| + 2|y| - |x + y| is symmetric in (x, y); PLFunction holds
        # |2x| as 2|x|, so the rebuilt comparison accepts it too
        s = TorusSpace(2)
        block = (SymmetryBlock((0, 1)),)
        f = pl(s, [(1, lf(2, 0)), (2, lf(0, 1)), (-1, lf(1, 1))])
        assert accepts(f, block)
        assert rebuilt_symmetry_check(f, block)
        # |2x| + |y| = 2|x| + |y| is not
        g = pl(s, [(1, lf(2, 0)), (1, lf(0, 1))])
        with pytest.raises(SymmetryError, match="not invariant under the swap"):
            _check_symmetry(g, block)

    def test_bad_coords_in_direct_call(self):
        f = pl(TorusSpace(2), [(1, lf(1, 0)), (1, lf(0, 1))])
        with pytest.raises(SymmetryError, match=r"symmetry\[1\]\.coords: \[0, 5\]"):
            is_nonnegative(f, symmetry=(SymmetryBlock((0, 1)),
                                        SymmetryBlock((0, 5))))

    def test_signed_block(self):
        s = TorusSpace(2)
        block = (SymmetryBlock((0, 1), signed=True),)
        f = pl(s, [(2, lf(1, 0)), (2, lf(0, 1)), (-1, lf(1, -1)), (-1, lf(1, 1))])
        assert accepts(f, block) and rebuilt_symmetry_check(f, block)
        g = pl(s, [(1, lf(1, -1))])
        assert not rebuilt_symmetry_check(g, block)
        with pytest.raises(SymmetryError,
                           match="not invariant under the sign flip of coordinate 1"):
            _check_symmetry(g, block)


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
            drop = F(val + 1) / beta(direction)
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
        # huge coefficients force the arbitrary-precision path
        s = TorusSpace(2)
        big = 2 ** 40
        f = pl(s, [(big, lf(big, 0)), (-big, lf(0, big))])
        w = grid_oracle(f, resolution=2)
        assert w is not None
        assert w.value == evaluate_pl(f, w.direction) < 0


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
    g = PLFunction(f.space, [(abs(c), a) for c, a in f.abs_terms])
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
