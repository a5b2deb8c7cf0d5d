from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from temperkit.check import check
from temperkit.errors import (ArityError, ConstraintViolationError,
                              SpaceMismatchError)
from temperkit.generators import TABLE1_PATTERNS, build_sl_block
from temperkit.model import (PLFunction, PairSpec, TorusSpace, WeightModule,
                             _canonical_terms, deficit, evaluate_at, evaluate_pl,
                             rho_function)

F = Fraction


def lf(*coeffs):
    """A linear form as a tuple of exact rationals."""
    return tuple(F(c) for c in coeffs)


def dot(form, Y) -> Fraction:
    """form(Y) in plain Fraction arithmetic, independent of evaluate_pl."""
    return sum((F(c) * F(y) for c, y in zip(form, Y)), F(0))


class TestCanonicalForm:
    def test_sign_normalized(self):
        assert _canonical_terms([(1, (-1, 2))]) == ((1, (1, -2)),)
        assert _canonical_terms([(1, (0, -3))]) == ((3, (0, 1)),)
        assert _canonical_terms([(1, (0, 0))]) == ()

    def test_primitive(self):
        s = TorusSpace(2)
        # |2x/3 - 4y/3| = (2/3)|x - 2y|
        f = PLFunction(s, [(1, lf("2/3", "-4/3"))])
        assert (f.den, f.terms) == (3, ((2, (1, -2)),))
        assert _canonical_terms([(1, (-4, 6))]) == ((2, (2, -3)),)
        assert PLFunction(s, [(1, lf(0, 0))]).terms == ()

    def test_integer_coeffs(self):
        # |x/2 + y/3| = (1/6)|3x + 2y|
        f = PLFunction(TorusSpace(2), [(1, lf("1/2", "1/3"))])
        assert (f.den, f.terms) == (6, ((1, (3, 2)),))

    def test_proportional_forms_merge(self):
        s = TorusSpace(2)
        f = PLFunction(s, [(1, lf(2, 0))])
        g = PLFunction(s, [(2, lf(1, 0))])
        assert f == g
        assert len(f.terms) == len(g.terms) == 1

    def test_cancelling_deficit_is_zero(self):
        # H1(2,1): the two proportional hyperplane terms cancel
        spec = build_sl_block(TABLE1_PATTERNS["H1"](2, 1))
        assert deficit(spec).is_zero()
        assert check(spec).deficit_summary["hyperplanes"] == 0

    def test_non_unit_pivot(self):
        # 2x + 3y = 0, given as an integer row: the RREF row x + (3/2)y
        # has a non-integer entry
        s = TorusSpace(2, [(2, 3)])
        assert s == TorusSpace(2, [lf(2, 3)])
        assert s.constraints == (lf(1, "3/2"),)
        assert s.slice_basis() == ((-3, 2),)
        # _reduce scales by the pivot 2: x = (0, -3/2) modulo the constraint
        assert s._reduce((1, 0)) == (0, -3)
        assert s._reduce((2, 0)) == s._reduce((0, -3))
        # |x| + y = (3/2)|y| + y on the slice
        f = PLFunction(s, [(1, lf(1, 0))], lf(0, 1))
        assert (f.den, f.linear, f.terms) == (2, (0, 2), ((3, (0, 1)),))
        for y in [(-3, 2), (F(3, 5), F(-2, 5)), (6, -4)]:
            value = evaluate_pl(f, y)
            assert type(value) is F
            assert value == abs(F(y[0])) + F(y[1])
        with pytest.raises(ConstraintViolationError):
            evaluate_pl(f, (1, 1))

    def test_iterator_inputs_read_once(self):
        # forms given as one-shot iterators, of ints and of Fractions, read
        # as the same tuples do
        s = TorusSpace(3, [iter((1, 1, 1))])
        assert s == TorusSpace(3, [(1, 1, 1)])
        M = WeightModule(s, [(iter((1, -1, 0)), 2), (iter(lf(0, 1, -1)), 1)])
        assert M == WeightModule(s, [((1, -1, 0), 2), (lf(0, 1, -1), 1)])
        f = PLFunction(s, [(1, iter(lf("1/2", 0, 0))), (2, iter((0, 1, 0)))],
                       iter((1, 0, 0)))
        assert f == PLFunction(s, [(1, lf("1/2", 0, 0)), (2, (0, 1, 0))], (1, 0, 0))
        assert evaluate_pl(f, (1, 1, -2)) == F(7, 2)


class TestTorusSpace:
    def test_plain(self):
        s = TorusSpace(3)
        assert s.dim == 3
        assert s.slice_basis() == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_constraints_rref(self):
        s = TorusSpace(3, [lf(1, 1, 1)])
        assert s.dim == 2
        assert dot(s.constraints[0], (1, -1, 0)) == 0
        assert dot(s.constraints[0], (1, 0, 0)) != 0

    def test_dependent_constraints_rejected(self):
        with pytest.raises(ValueError):
            TorusSpace(3, [lf(1, 1, 0), lf(2, 2, 0)])

    def test_equality_ignores_presentation(self):
        a = TorusSpace(3, [lf(1, 1, 1)])
        b = TorusSpace(3, [lf(2, 2, 2)])
        assert a == b
        assert hash(a) == hash(b)

    def test_reduce_equal_modulo_constraints(self):
        s = TorusSpace(3, [lf(1, 1, 1)])
        # x0 and -x1 - x2 agree on the slice
        assert s._reduce((1, 0, 0)) == s._reduce((0, -1, -1))

    def test_lift_and_basis(self):
        s = TorusSpace(3, [lf(1, 1, 1)])
        basis = s.slice_basis()
        assert len(basis) == 2
        for g in basis:
            assert dot(s.constraints[0], g) == 0
        point = s.lift((2, -1))
        assert dot(s.constraints[0], point) == 0
        assert point == tuple(2 * F(a) - F(b) for a, b in zip(*basis))

    def test_require_point(self):
        # evaluation accepts exactly the points of the slice
        s = TorusSpace(2, [lf(1, 1)])
        f = PLFunction(s, [], lf(1, 0))
        with pytest.raises(ConstraintViolationError):
            evaluate_pl(f, (1, 1))
        assert evaluate_pl(f, (F(1), F(-1))) == 1


class TestWeightModule:
    def test_merging(self):
        s = TorusSpace(2)
        m = WeightModule(s, [(lf(1, 0), 2), (lf(1, 0), 1), (lf(0, 1), 1)])
        assert m.total_dim == 4
        assert dict(m.weights)[(1, 0)] == 3

    def test_merge_modulo_constraints(self):
        s = TorusSpace(2, [lf(1, 1)])
        m = WeightModule(s, [(lf(1, 0), 1), (lf(0, -1), 1)])
        assert len(m.weights) == 1
        assert m.weights[0][1] == 2

    def test_zero_weights_kept(self):
        s = TorusSpace(1)
        m = WeightModule(s, [(lf(0), 3)])
        assert m.total_dim == 3

    def test_positive_multiplicity_required(self):
        s = TorusSpace(1)
        with pytest.raises(ValueError):
            WeightModule(s, [(lf(1), 0)])


class TestPLFunction:
    def test_abs_merging_and_sign(self):
        s = TorusSpace(2)
        f = PLFunction(s, [(F(1), lf(1, -1)), (F(2), lf(-1, 1))])
        assert len(f.terms) == 1
        assert F(f.terms[0][0], f.den) == F(3)

    def test_zero_terms_dropped(self):
        s = TorusSpace(2)
        f = PLFunction(s, [(F(1), lf(1, 0)), (F(-1), lf(-1, 0)), (F(5), lf(0, 0))])
        assert f.terms == ()
        assert f.is_zero()

    def test_evaluation(self):
        s = TorusSpace(2)
        f = PLFunction(s, [(F(2), lf(1, -1))], lf(0, 1))
        assert evaluate_pl(f, (3, 1)) == 2 * 2 + 1
        assert f((3, 1)) == 5

    def test_homogeneous(self):
        s = TorusSpace(2)
        f = PLFunction(s, [(F(1), lf(1, 2)), (F(-1), lf(1, 0))], lf(0, 1))
        y = (F(3), F(-2))
        assert f(tuple(5 * c for c in y)) == 5 * f(y)

    def test_add_sub_scale(self):
        s = TorusSpace(2)
        f = PLFunction(s, [(F(1), lf(1, 0))])
        g = PLFunction(s, [(F(1), lf(0, 1))])
        h = f + g - f
        assert h == g
        g3 = f.scale(3)
        assert F(g3.terms[0][0], g3.den) == F(3)

    def test_space_mismatch(self):
        f = PLFunction(TorusSpace(1), [(F(1), lf(1))])
        g = PLFunction(TorusSpace(2), [(F(1), lf(1, 0))])
        with pytest.raises(SpaceMismatchError):
            f + g


class TestRho:
    def test_rho_function_coefficients(self):
        s = TorusSpace(1)
        m = WeightModule(s, [(lf(2), 3), (lf(-2), 3), (lf(0), 4)])
        f = rho_function(m)
        # (3/2)|2t| twice merges into one |2t|-class term
        assert f((1,)) == F(6)
        assert f((-1,)) == F(6)

    def test_deficit_with_extra_module(self):
        s = TorusSpace(1)
        h = WeightModule(s, [(lf(2), 1), (lf(-2), 1)])
        g = WeightModule(s, [(lf(1), 1), (lf(-1), 1)])
        v = WeightModule(s, [(lf(1), 1)])
        bare = deficit(PairSpec(g_module=g, h_module=h))
        assert bare((1,)) == F(-1)
        with_v = deficit(PairSpec(g_module=g, h_module=h, v_module=v))
        assert with_v((1,)) == F(0)

    def test_pair_spec_space_check(self):
        h = WeightModule(TorusSpace(1), [(lf(1), 1)])
        g = WeightModule(TorusSpace(2), [(lf(1, 0), 1)])
        with pytest.raises(SpaceMismatchError):
            PairSpec(g_module=g, h_module=h)


small = st.integers(min_value=-3, max_value=3)
rationals = st.builds(F, small, st.integers(min_value=1, max_value=4))


@st.composite
def pl_functions(draw, max_dim=4, max_terms=4):
    """Functions with rational data on a slice cut out by up to two rows."""
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    vectors = st.lists(rationals, min_size=dim, max_size=dim)
    rows = draw(st.lists(vectors, max_size=min(2, dim)))
    try:
        space = TorusSpace(dim, rows)
    except ValueError:  # dependent rows
        assume(False)
    n = draw(st.integers(min_value=1, max_value=max_terms))
    terms = [(draw(rationals), tuple(draw(vectors))) for _ in range(n)]
    return PLFunction(space, terms, tuple(draw(vectors)))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_integer_evaluation_matches_fraction_sum(data):
    f = data.draw(pl_functions())
    space = f.space
    denominators = st.integers(min_value=2, max_value=6)
    slice_vec = data.draw(st.lists(st.builds(F, st.integers(-5, 5), denominators),
                                   min_size=space.dim, max_size=space.dim))
    Y = space.lift(slice_vec)
    expected = (dot(f.linear, Y)
                + sum((c * abs(dot(row, Y)) for c, row in f.terms), F(0))) / f.den
    assert evaluate_pl(f, Y) == expected
    for k in space.constraints:
        off = tuple(y + c for y, c in zip(Y, k))   # k(off) = k(Y) + |k|^2
        with pytest.raises(ConstraintViolationError):
            evaluate_pl(f, off)
    with pytest.raises(ArityError):
        evaluate_pl(f, Y + (F(1, 2),))
    with pytest.raises(ArityError):
        evaluate_pl(f, Y[:-1])


def deficit_reference(spec, Y) -> Fraction:
    """rho_{g/h} + 2 rho_V - rho_h at Y in plain Fraction arithmetic, summed
    over the modules' weights: (1/2) sum m|mu(Y)| per module."""
    def rho(M):
        return sum((m * abs(dot(mu, Y)) for mu, m in M.weights), F(0)) / 2
    v = 2 * rho(spec.v_module) if spec.v_module is not None else 0
    return rho(spec.g_module) + v - rho(spec.h_module)


@st.composite
def pair_specs(draw, max_dim=4):
    """Specs with rational weights, an extra module or none, on a slice cut
    out by up to two rows."""
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    vectors = st.lists(rationals, min_size=dim, max_size=dim)
    try:
        space = TorusSpace(dim, draw(st.lists(vectors, max_size=min(2, dim))))
    except ValueError:  # dependent rows
        assume(False)
    modules = [WeightModule(space, draw(st.lists(
        st.tuples(vectors, st.integers(min_value=1, max_value=3)), max_size=4)))
        for _ in range(3)]
    return PairSpec(g_module=modules[0], h_module=modules[1],
                    v_module=modules[2] if draw(st.booleans()) else None)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_evaluate_at_matches_weight_sums(data):
    spec = data.draw(pair_specs())
    f, space = deficit(spec), spec.space
    slice_vecs = data.draw(st.lists(
        st.lists(rationals, min_size=space.dim, max_size=space.dim), max_size=5))
    points = [space.lift(v) for v in slice_vecs]
    # k(Y + k) = k(Y) + |k|^2, so Y + k is off the slice for each constraint k
    off = [tuple(y + c for y, c in zip(Y, k)) for Y in points for k in space.constraints]
    order = data.draw(st.permutations(range(len(points) + len(off))))
    mixed = [(points + off)[i] for i in order]
    assert evaluate_at(f, mixed) == [deficit_reference(spec, points[i])
                                     if i < len(points) else None for i in order]
    assert evaluate_at(f, []) == []
    for bad in (space.lift([0] * space.dim) + (F(1, 2),),
                (F(1),) * (space.ambient_dim - 1)):
        with pytest.raises(ArityError):
            evaluate_at(f, mixed + [bad])
