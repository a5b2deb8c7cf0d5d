import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from temperkit.check import check, sp_product_tempered
from temperkit.errors import (BasisError, BracketClosureError,
                              DecompositionError)
from temperkit.generators import (TABLE1_PATTERNS, TABLE2_PATTERNS,
                                  BlockPattern, MatrixPairInput,
                                  build_classical_in_sl, build_product_in_sl,
                                  build_product_in_sp, build_so_pair,
                                  build_sl_block, example_sp21_input,
                                  extract_weights,
                                  matrix_input_for_block_pattern,
                                  realify)
from temperkit.model import deficit, evaluate_pl, rho_function

from reference import mat_inv, parabolic_decomposition, rref

F = Fraction


class TestBlockPattern:
    def test_zero_blocks_dropped(self):
        p = BlockPattern((2, 0, 3), ("full", "identity", "full"),
                         frozenset({(0, 2)}))
        assert p.sizes == (2, 3)
        assert p.upper_blocks == frozenset({(0, 1)})
        # the kinds follow their blocks; upper blocks at a dropped block go
        p = BlockPattern((0, 2, 0, 3, 1), ("identity", "full", "full", "identity",
                                           "full"),
                         frozenset({(0, 1), (1, 3), (2, 4), (3, 4), (1, 4)}))
        assert p.sizes == (2, 3, 1)
        assert p.diagonal_kind == ("full", "identity", "full")
        assert p.upper_blocks == frozenset({(0, 1), (1, 2), (0, 2)})

    def test_bracket_closure_enforced(self):
        with pytest.raises(BracketClosureError):
            BlockPattern((1, 1, 1), ("full",) * 3, frozenset({(0, 1), (1, 2)}))

    def test_bad_upper_block(self):
        with pytest.raises(ValueError):
            BlockPattern((1, 1), ("full", "full"), frozenset({(1, 0)}))

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            BlockPattern((1,), ("diagonal",))


class TestDimensionAccounting:
    @pytest.mark.parametrize("name", sorted(TABLE1_PATTERNS))
    def test_table1_dims(self, name):
        for p, q in itertools.product(range(1, 4), repeat=2):
            pattern = TABLE1_PATTERNS[name](p, q)
            spec = build_sl_block(pattern)
            n = pattern.n
            h_dim = sum(s * s for s, k in zip(pattern.sizes, pattern.diagonal_kind)
                        if k == "full")
            h_dim -= sum(1 for k in pattern.diagonal_kind if k == "full")
            h_dim += sum(pattern.sizes[i] * pattern.sizes[j]
                         for i, j in pattern.upper_blocks)
            assert spec.h_module.total_dim == h_dim
            assert spec.h_module.total_dim + spec.g_module.total_dim == n * n - 1

    def test_product_in_sp_dims(self):
        spec = build_product_in_sp((2, 1))
        # sp(m, R) has dimension m(2m+1)
        assert spec.h_module.total_dim == 2 * 5 + 1 * 3
        assert spec.h_module.total_dim + spec.g_module.total_dim == 3 * 7

    def test_so_pair_dims(self):
        spec = build_so_pair(2, 1, 1, 1)
        def so_dim(p, q):
            n = p + q
            return n * (n - 1) // 2
        assert spec.h_module.total_dim == so_dim(2, 1) + so_dim(1, 1)
        assert (spec.h_module.total_dim + spec.g_module.total_dim
                == so_dim(3, 2))

    def test_classical_in_sl_dims(self):
        spec = build_classical_in_sl("so", 2, 2)
        assert spec.h_module.total_dim == 6
        assert spec.h_module.total_dim + spec.g_module.total_dim == 16 - 1
        spec = build_classical_in_sl("sp", 2)
        assert spec.h_module.total_dim == 10
        assert spec.h_module.total_dim + spec.g_module.total_dim == 16 - 1


def slice_weights(module):
    """Weight multiset in slice coordinates, presentation independent."""
    basis = module.space.slice_basis()
    out = {}
    for form, mult in module.weights:
        key = tuple(sum(c * x for c, x in zip(form, g)) for g in basis)
        out[key] = out.get(key, 0) + mult
    return out


def sp11_in_sp2_input():
    """Explicit 4x4 bases of sp(1,R) x sp(1,R) inside sp(2,R).

    sp(2,R) = {[[A, B], [C, -A^T]] : B, C symmetric}; factor i of
    sp(1,R) x sp(1,R) acts on coordinates i and i + 2.
    """
    def mat(*entries):
        M = [[0] * 4 for _ in range(4)]
        for r, c, v in entries:
            M[r][c] = v
        return M

    def a_part(i, j):
        return mat((i, j, 1), (j + 2, i + 2, -1))

    def b_part(i, j):
        return mat((i, j + 2, 1), (j, i + 2, 1))

    def c_part(i, j):
        return mat((i + 2, j, 1), (j + 2, i, 1))

    pairs = [(0, 0), (0, 1), (1, 1)]
    g_basis = [a_part(i, j) for i, j in itertools.product(range(2), repeat=2)]
    g_basis += [b_part(i, j) for i, j in pairs]
    g_basis += [c_part(i, j) for i, j in pairs]
    h_basis = [part(i, i) for i in range(2)
               for part in (a_part, b_part, c_part)]
    ident = [[int(a == b) for b in range(4)] for a in range(4)]
    return MatrixPairInput(
        ambient_dim=4, g_basis=tuple(g_basis), h_basis=tuple(h_basis),
        torus_basis=(a_part(0, 0), a_part(1, 1)), diagonalizer=ident)


def mat_mul(A, B):
    """Plain dense matrix product, independent of the extractor's own."""
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
            for row in A]


def half_torus_sl2_input():
    """sl(2) with h its diagonal, moved by Q = [[1, 1/2], [0, 1/2]] and with
    the torus diag(1/4, -1/4): every weight is half an integer, and Q and
    its inverse have non-integer entries."""
    Q = [[F(1), F(1, 2)], [F(0), F(1, 2)]]
    Qi = mat_inv(Q)

    def moved(M):
        return mat_mul(Q, mat_mul(M, Qi))

    H = moved([[1, 0], [0, -1]])
    return MatrixPairInput(
        ambient_dim=2, g_basis=(H, moved([[0, 1], [0, 0]]),
                                moved([[0, 0], [1, 0]])),
        h_basis=(H,), torus_basis=(moved([[F(1, 4), 0], [0, F(-1, 4)]]),),
        diagonalizer=Q)


def weights_by_rank(inp):
    """h and g/h multiplicities by the per-weight rank formula:
    dim(span & W_alpha) = dim span - rank of the rows projected off
    alpha's positions."""
    n = inp.ambient_dim
    Q = [list(r) for r in inp.diagonalizer]
    Qi = mat_inv(Q)

    def conj(M):
        return [x for r in mat_mul(Qi, mat_mul(M, Q)) for x in r]

    mu = [tuple(conj(T)[a * n + a] for T in inp.torus_basis) for a in range(n)]
    positions = {}
    for a, b in itertools.product(range(n), repeat=2):
        alpha = tuple(x - y for x, y in zip(mu[a], mu[b]))
        positions.setdefault(alpha, set()).add(a * n + b)

    def mult(basis):
        rows = [conj(M) for M in basis]
        return {alpha: len(rows) - len(rref(
                    [[r[c] for c in range(n * n) if c not in pos]
                     for r in rows])[0])
                for alpha, pos in positions.items()}

    mh, mg = mult(inp.h_basis), mult(inp.g_basis)
    return ({a: m for a, m in mh.items() if m},
            {a: mg[a] - mh[a] for a in mg if mg[a] - mh[a]})


RANK_FORMULA_INPUTS = {
    "sp21": lambda: [example_sp21_input()],
    "sp11_in_sp2": lambda: [sp11_in_sp2_input()],
    "half_torus_sl2": lambda: [half_torus_sl2_input()],
    "table1_3x3": lambda: [
        matrix_input_for_block_pattern(TABLE1_PATTERNS[name](p, q))
        for name in sorted(TABLE1_PATTERNS)
        for p, q in itertools.product(range(1, 4), repeat=2)],
}


class TestCrossOracle:
    """The combinatorial builder and the matrix extractor must agree."""

    @pytest.mark.parametrize("name", sorted(TABLE1_PATTERNS))
    def test_table1_patterns(self, name):
        for p, q in itertools.product(range(1, 4), repeat=2):
            pattern = TABLE1_PATTERNS[name](p, q)
            combinatorial = build_sl_block(pattern)
            extracted = extract_weights(matrix_input_for_block_pattern(pattern))
            assert slice_weights(extracted.h_module) == \
                slice_weights(combinatorial.h_module)
            assert slice_weights(extracted.g_module) == \
                slice_weights(combinatorial.g_module)

    @pytest.mark.parametrize("name", ["H4", "H7", "H10", "H11", "H12"])
    def test_table2_patterns(self, name):
        for p, q, r in itertools.product(range(1, 3), repeat=3):
            pattern = TABLE2_PATTERNS[name](p, q, r)
            combinatorial = build_sl_block(pattern)
            extracted = extract_weights(matrix_input_for_block_pattern(pattern))
            assert slice_weights(extracted.h_module) == \
                slice_weights(combinatorial.h_module)
            assert slice_weights(extracted.g_module) == \
                slice_weights(combinatorial.g_module)


class TestFamilies:
    def test_product_in_sl_permutation_invariance(self):
        a = check(build_product_in_sl((3, 1, 2)), use_symmetry=True)
        b = check(build_product_in_sl((1, 2, 3)), use_symmetry=True)
        assert a.tempered == b.tempered

    def test_product_needs_two_parts(self):
        with pytest.raises(ValueError):
            build_product_in_sl((4,))
        with pytest.raises(ValueError):
            build_product_in_sp((4,))

    def test_realify_doubles(self):
        spec = build_product_in_sl((2, 1))
        doubled = realify(spec)
        assert doubled.g_module.total_dim == 2 * spec.g_module.total_dim
        assert doubled.h_module.total_dim == 2 * spec.h_module.total_dim
        assert doubled.metadata["realified"] is True

    def test_so_pair_torus_rank(self):
        spec = build_so_pair(3, 1, 2, 2)
        assert spec.space.dim == min(3, 1) + min(2, 2)


class TestParabolicDecomposition:
    @pytest.mark.parametrize("pattern_fn,sizes", [
        (TABLE1_PATTERNS["H2"], (2, 3)),
        (TABLE2_PATTERNS["H7"], (1, 2, 2)),
    ])
    def test_identity_at_random_points(self, pattern_fn, sizes):
        pattern = pattern_fn(*sizes)
        spec = build_sl_block(pattern)
        s_mod, ls_mod, uv_mod = parabolic_decomposition(pattern)
        lhs = deficit(spec)
        rhs = (rho_function(ls_mod) + rho_function(uv_mod).scale(2)
               - rho_function(s_mod))
        rng = random.Random(5)
        basis = spec.space.slice_basis()
        for _ in range(50):
            coords = [F(rng.randint(-20, 20), rng.randint(1, 7))
                      for _ in basis]
            y = spec.space.lift(coords)
            assert evaluate_pl(lhs, y) == evaluate_pl(rhs, y)


class TestMatrixMode:
    def test_non_commuting_torus_rejected(self):
        E01 = ((0, 1), (0, 0))
        E10 = ((0, 0), (1, 0))
        ident = ((1, 0), (0, 1))
        with pytest.raises(DecompositionError):
            extract_weights(MatrixPairInput(
                ambient_dim=2, g_basis=(E01, E10), h_basis=(),
                torus_basis=(E01, E10), diagonalizer=ident))

    def test_non_diagonal_torus_rejected(self):
        E01 = ((0, 1), (0, 0))
        ident = ((1, 0), (0, 1))
        with pytest.raises(DecompositionError):
            extract_weights(MatrixPairInput(
                ambient_dim=2, g_basis=(E01,), h_basis=(),
                torus_basis=(E01,), diagonalizer=ident))

    def test_h_outside_g_rejected(self):
        D = ((1, 0), (0, -1))
        E01 = ((0, 1), (0, 0))
        ident = ((1, 0), (0, 1))
        with pytest.raises(ValueError):
            extract_weights(MatrixPairInput(
                ambient_dim=2, g_basis=(D,), h_basis=(E01,),
                torus_basis=(D,), diagonalizer=ident))

    def test_h_not_subalgebra_rejected(self):
        # span{E01, E10} is not bracket-closed inside gl(2)
        D = ((1, 0), (0, -1))
        E01 = ((0, 1), (0, 0))
        E10 = ((0, 0), (1, 0))
        ident = ((1, 0), (0, 1))
        with pytest.raises(BracketClosureError):
            extract_weights(MatrixPairInput(
                ambient_dim=2, g_basis=(D, E01, E10), h_basis=(E01, E10),
                torus_basis=(D,), diagonalizer=ident))

    def test_sp21_weight_data(self):
        spec = extract_weights(example_sp21_input())
        assert spec.space.dim == 1
        assert spec.h_module.total_dim == 13
        assert spec.g_module.total_dim == 8
        h = dict(spec.h_module.weights)
        q = dict(spec.g_module.weights)
        assert h[(F(0),)] == 7
        assert h[(F(2),)] == 3
        assert h[(F(-2),)] == 3
        assert q[(F(1),)] == 4
        assert q[(F(-1),)] == 4

    def test_rational_torus_exact_weights(self):
        spec = extract_weights(half_torus_sl2_input())
        assert dict(spec.h_module.weights) == \
            {(F(0),): 1}
        assert dict(spec.g_module.weights) == \
            {(F(1, 2),): 1, (F(-1, 2),): 1}

    def test_sp11_in_sp2_matches_builder(self):
        spec = extract_weights(sp11_in_sp2_input())
        built = build_product_in_sp((1, 1))
        for got, want in ((spec.h_module, built.h_module),
                          (spec.g_module, built.g_module)):
            assert slice_weights(got) == slice_weights(want)
        assert evaluate_pl(deficit(spec), (F(1), F(1))) == -2
        sp_verdict = check(spec).tempered
        assert not sp_verdict
        assert sp_verdict == sp_product_tempered((1, 1))
        # sp(2,R) = so(3,2) carries the pair to so(2,2) + so(1,0)
        assert check(build_so_pair(2, 2, 1, 0)).tempered == sp_verdict

    def test_unstable_g_rejected(self):
        D = ((1, 0), (0, -1))
        S = ((0, 1), (1, 0))  # E01 + E10 mixes the weights 2 and -2
        ident = ((1, 0), (0, 1))
        with pytest.raises(DecompositionError):
            extract_weights(MatrixPairInput(
                ambient_dim=2, g_basis=(S,), h_basis=(),
                torus_basis=(D,), diagonalizer=ident))

    def test_unstable_h_rejected(self):
        D = ((1, 0), (0, -1))
        E01 = ((0, 1), (0, 0))
        E10 = ((0, 0), (1, 0))
        S = ((0, 1), (1, 0))
        ident = ((1, 0), (0, 1))
        with pytest.raises(DecompositionError):
            extract_weights(MatrixPairInput(
                ambient_dim=2, g_basis=(D, E01, E10), h_basis=(S,),
                torus_basis=(D,), diagonalizer=ident))

    def test_dependent_g_basis_rejected(self):
        D = ((1, 0), (0, -1))
        E01 = ((0, 1), (0, 0))
        ident = ((1, 0), (0, 1))
        with pytest.raises(ValueError, match="g_basis"):
            extract_weights(MatrixPairInput(
                ambient_dim=2, g_basis=(D, E01, ((2, 0), (0, -2))),
                h_basis=(), torus_basis=(D,), diagonalizer=ident))

    def test_singular_diagonalizer_rejected(self):
        D = ((1, 0), (0, -1))
        with pytest.raises(BasisError, match="diagonalizer"):
            extract_weights(MatrixPairInput(
                ambient_dim=2, g_basis=(D,), h_basis=(),
                torus_basis=(D,), diagonalizer=((1, 2), (2, 4))))

    @pytest.mark.parametrize("label", sorted(RANK_FORMULA_INPUTS))
    def test_matches_rank_formula(self, label):
        for inp in RANK_FORMULA_INPUTS[label]():
            spec = extract_weights(inp)
            h, q = weights_by_rank(inp)
            assert dict(spec.h_module.weights) == h
            assert dict(spec.g_module.weights) == q

    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from(sorted(TABLE1_PATTERNS)), st.integers(1, 3),
           st.integers(1, 3), st.data())
    def test_conjugated_input_same_weights(self, name, p, q, data):
        # T -> P T P^-1 on every matrix, with P as the diagonalizer, must
        # give back the same weights; P is dense, and n reaches 5 and 6
        inp = matrix_input_for_block_pattern(TABLE1_PATTERNS[name](p, q))
        n = inp.ambient_dim
        entry = st.fractions(min_value=-2, max_value=2, max_denominator=3)
        lower = [[F(int(i == j)) if i <= j else data.draw(entry)
                  for j in range(n)] for i in range(n)]
        upper = [[data.draw(entry.filter(bool)) if i == j
                  else (data.draw(entry) if i < j else F(0))
                  for j in range(n)] for i in range(n)]
        P = mat_mul(lower, upper)
        Pi = mat_inv(P)

        def moved(basis):
            return tuple(mat_mul(P, mat_mul(M, Pi))
                         for M in basis)

        conjugated = MatrixPairInput(
            ambient_dim=n, g_basis=moved(inp.g_basis),
            h_basis=moved(inp.h_basis), torus_basis=moved(inp.torus_basis),
            diagonalizer=P, metadata=inp.metadata)
        assert extract_weights(conjugated) == extract_weights(inp)
