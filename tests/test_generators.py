import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from temperkit.check import FAMILIES, check, sp_product_tempered
from temperkit.errors import (BasisError, BracketClosureError,
                              DecompositionError)
from temperkit.families import (build_classical_in_sl, build_product_in_sp, build_so_pair,
                                 classical_in_sl_deficit, so_pair_deficit)
from temperkit.generators import (TABLE1_PATTERNS, TABLE2_PATTERNS,
                                  BlockPattern, _product_pattern,
                                  build_product_in_sl, build_sl_block,
                                  matrix_input_for_block_pattern,
                                  realify)
from temperkit.matrices import MatrixPairInput, example_sp21_input, extract_weights
from temperkit.model import (NonnegCertificate, PLFunction, TorusSpace, deficit, evaluate_pl,
                             rho_function)
from temperkit.serialize import QUESTION_CEILING, _family_deficit

from reference import (block_deficit, dense, generic_sl_block, mat_inv,
                       parabolic_decomposition, rref)

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

    @pytest.mark.parametrize("pair", [(-1, 7), (1, 0)])
    def test_bad_upper_block_at_an_empty_block(self, pair):
        # the given indices are checked before the empty block 1 is dropped,
        # which once dropped the pair too and decided another pattern
        with pytest.raises(ValueError, match=re.escape(f"bad upper block ({pair[0]},{pair[1]})")):
            BlockPattern((2, 0, 1), ("full", "full", "identity"), frozenset({pair}))

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            BlockPattern((1,), ("diagonal",))


@pytest.mark.parametrize("build, name", [
    (lambda: BlockPattern((1, 1.5), ("full", "full")), "sizes[1]"),
    (lambda: build_product_in_sl([1.5, 2]), "parts[0]"),
    (lambda: build_product_in_sl([2, True]), "parts[1]"),
    (lambda: build_product_in_sp([2.7, 1]), "parts[0]"),
    (lambda: build_so_pair(1.5, 1, 1, 1), "p1"),
    (lambda: build_so_pair(1, 1, 1, False), "q2"),
    (lambda: build_classical_in_sl("so", 2.0, 1), "p"),
    (lambda: build_classical_in_sl("so", 2, True), "q"),
    (lambda: build_classical_in_sl("sp", 1.0), "m"),
], ids=["block_size", "sl_float", "sl_bool", "sp_float", "so_pair_float",
        "so_pair_bool", "so_in_sl_float", "so_in_sl_bool", "sp_in_sl_float"])
def test_non_integer_parameter_is_named(build, name):
    # a float or bool parameter once built a wrong pair or failed unlocated
    with pytest.raises(TypeError, match=rf"^{re.escape(name)} must be an int, not"):
        build()


def _random_pattern(rng: random.Random) -> BlockPattern:
    """A pattern of 1 to 5 blocks of sizes 0 to 4, with random kinds (all
    identity a fifth of the time) and a random set of upper blocks closed
    under composition."""
    k = rng.randint(1, 5)
    sizes = [rng.choice((0, 1, 1, 2, 3, 4)) for _ in range(k)]
    if rng.random() < 0.2:
        kinds = ["identity"] * k
    else:
        kinds = [rng.choice(("full", "identity")) for _ in range(k)]
    upper = {pair for pair in itertools.combinations(range(k), 2) if rng.random() < 0.4}
    while True:
        grown = upper | {(i, b) for i, j in upper for a, b in upper if j == a}
        if grown == upper:
            break
        upper = grown
    return BlockPattern(tuple(sizes), tuple(kinds), frozenset(upper))


def _patterns_to_match():
    yield from (TABLE1_PATTERNS[name](p, q) for name in TABLE1_PATTERNS
                for p, q in itertools.product(range(1, 7), repeat=2))
    yield from (TABLE2_PATTERNS[name](*sizes) for name in TABLE2_PATTERNS
                for sizes in itertools.product(range(1, 5), repeat=3))
    rng = random.Random(29)
    yield from (_random_pattern(rng) for _ in range(300))


def test_build_sl_block_is_the_generic_construction():
    # the classes of equal reduced coordinates and the constraint rows
    # written reduced give exactly the spec that row-reducing the torus and
    # reducing every root of sl(n) gives, down to the held integers
    empty = 0
    for pattern in _patterns_to_match():
        if pattern.n == 0:
            empty += 1
            for build in (build_sl_block, generic_sl_block):
                with pytest.raises(ValueError, match="no coordinates"):
                    build(pattern)
            continue
        got, want = build_sl_block(pattern), generic_sl_block(pattern)
        assert (got.space.rows, got.space._pivots, got.space._scale) == \
            (want.space.rows, want.space._pivots, want.space._scale), pattern
        for key in ("g_module", "h_module"):
            assert getattr(got, key).rows == getattr(want, key).rows, (pattern, key)
            assert getattr(got, key).den == getattr(want, key).den, (pattern, key)
        assert (got.metadata, got.built) == (want.metadata, want.built), pattern
    assert empty > 0


def _compositions(n):
    """Every ordered partition of n into at least two positive parts."""
    for cuts in itertools.chain.from_iterable(
            itertools.combinations(range(1, n), k) for k in range(1, n)):
        yield [b - a for a, b in zip((0, *cuts), (*cuts, n))]


def test_block_deficit_is_the_deficit_of_the_built_spec():
    # the closed form that recheck values for a block question is exactly
    # model.deficit of the spec its builder makes, down to the held integers
    def held(f):
        return (f.space.rows, f.space._pivots, f.space._scale, f.den, f.terms)

    cases = 0
    for pattern in _patterns_to_match():
        if pattern.n == 0:
            for call in (build_sl_block, block_deficit):
                with pytest.raises(ValueError, match="no coordinates"):
                    call(pattern)
            continue
        spec = build_sl_block(pattern)
        assert held(block_deficit(pattern)) == held(deficit(spec)), pattern
        assert held(block_deficit(pattern, True)) == held(deficit(realify(spec))), pattern
        cases += 2
    for n in range(2, 9):
        for parts in _compositions(n):
            pattern, _ = _product_pattern(parts)
            assert held(block_deficit(pattern)) == \
                held(deficit(build_product_in_sl(parts))), parts
            cases += 1
    assert cases == 2 * 1198 + 247


def test_bc_closed_forms_are_the_deficit_of_the_built_spec():
    # each type-BC closed form that recheck reads off a spec's metadata,
    # put into canonical form, is exactly model.deficit of the spec, realified
    # or not, and comes with the metadata its builder writes
    def held(f):
        return (f.space.rows, f.space._pivots, f.space._scale, f.den, f.terms)

    specs = [spec for family in ("example51", "example52-sp", "example52-so")
             for _, spec, _ in FAMILIES[family]()
             if spec.metadata["family"] not in ("sl_block", "product_in_sl")]
    assert len(specs) == 61
    for p1, q1, p2, q2 in itertools.product(range(5), repeat=4):
        try:
            specs.append(build_so_pair(p1, q1, p2, q2))
        except ValueError as e:
            with pytest.raises(ValueError, match=re.escape(str(e))):
                so_pair_deficit(p1, q1, p2, q2)
    assert len(specs) == 61 + 576     # 49 signatures leave a factor empty
    for spec in specs:
        (space, den, terms), written = _family_deficit(spec.metadata, "pair_spec")
        assert held(PLFunction._from_integers(space, den, terms)) == held(deficit(spec)), \
            spec.metadata
        assert written == spec.metadata
        assert all(any(row) and c for c, row in terms), spec.metadata


def test_classical_closed_forms_prove_the_example51_rules():
    # so(p,q) inside sl(p+q) has deficit 2 sum |y_a| >= 0, so it is tempered
    # for every p + q >= 2; sp(m) inside sl(2m) has deficit -2 sum |y_a|,
    # negative at e_0, so no m >= 1 is tempered (families docstrings)
    for n in range(2, QUESTION_CEILING + 1):
        for p in range(n + 1):
            m = min(p, n - p)
            (space, den, terms), _ = classical_in_sl_deficit("so", p, n - p)
            assert space == TorusSpace(m) and den == 1
            assert terms == [(2, tuple(int(a == b) for b in range(m))) for a in range(m)]
    for m in range(1, QUESTION_CEILING // 2 + 1):
        (space, den, terms), _ = classical_in_sl_deficit("sp", m)
        assert space == TorusSpace(m) and den == 1
        assert terms == [(-2, tuple(int(a == b) for b in range(m))) for a in range(m)]


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

    @staticmethod
    def assert_dims(spec, h_dim, g_dim):
        assert spec.h_module.total_dim == h_dim
        assert spec.h_module.total_dim + spec.g_module.total_dim == g_dim

    def test_product_in_sp_dims(self):
        for (parts,), spec, _ in FAMILIES["example52-sp"](n=6):
            self.assert_dims(spec, sum(map(sp_dim, parts)), sp_dim(sum(parts)))

    def test_so_pair_dims(self):
        for (p1, q1, p2, q2), spec, _ in FAMILIES["example52-so"](total=6):
            self.assert_dims(spec, so_dim(p1 + q1) + so_dim(p2 + q2),
                             so_dim(p1 + q1 + p2 + q2))

    def test_classical_in_sl_dims(self):
        for n in range(2, 9):
            for p in range(n + 1):
                self.assert_dims(build_classical_in_sl("so", p, n - p),
                                 so_dim(n), n * n - 1)
        for m in range(1, 7):
            self.assert_dims(build_classical_in_sl("sp", m), sp_dim(m),
                             4 * m * m - 1)

    def test_example51_dims(self):
        dims = {"so_in_sl": lambda p, q: (so_dim(p + q), (p + q) ** 2 - 1),
                "sp_in_sl": lambda m: (sp_dim(m), 4 * m * m - 1),
                "sl_C": lambda m, n: (2 * (m * m + n * n - 2), 2 * ((m + n) ** 2 - 1)),
                "so_C": lambda m, n: (2 * (so_dim(m) + so_dim(n)), 2 * so_dim(m + n)),
                "sp_C": lambda m, n: (2 * (sp_dim(m) + sp_dim(n)), 2 * sp_dim(m + n))}
        for (kind, *params), spec, _ in FAMILIES["example51"](total=6, rank=4):
            self.assert_dims(spec, *dims[kind](*params))


def so_dim(n):
    return n * (n - 1) // 2


def sp_dim(m):
    return m * (2 * m + 1)


def slice_weights(module):
    """Weight multiset in slice coordinates, presentation independent."""
    basis = module.space.slice_basis()
    out = {}
    for form, mult in module.weights:
        key = tuple(sum(c * x for c, x in zip(form, g)) for g in basis)
        out[key] = out.get(key, 0) + mult
    return out


def sp_unit(n, kind, i, j):
    """One basis matrix of the split sp(n,R) in gl(2n,R).  The X with
    X^T J + J X = 0 for J = [[0, I], [-I, 0]] are [[A, B], [C, -A^T]] with
    B and C symmetric; kind "a", "b" or "c" puts a unit at (i, j) of A, B
    or C (symmetrized in B and C).  sp_unit(n, "a", i, i) is diag(t, -t)
    for t = e_i."""
    M = [[0] * (2 * n) for _ in range(2 * n)]
    entries = {"a": ((i, j, 1), (j + n, i + n, -1)),
               "b": ((i, j + n, 1), (j, i + n, 1)),
               "c": ((i + n, j, 1), (j + n, i, 1))}[kind]
    for r, c, v in entries:
        M[r][c] = v
    return M


def sp_matrices(n, coords):
    """A basis of sp on the coordinates coords and their partners + n."""
    pairs = list(itertools.combinations_with_replacement(coords, 2))
    return ([sp_unit(n, "a", i, j) for i, j in itertools.product(coords, repeat=2)]
            + [sp_unit(n, k, i, j) for k in "bc" for i, j in pairs])


def sp_product_input(parts):
    """Explicit bases of sp(n_1,R) x ... x sp(n_r,R) inside sp(n,R),
    factor k acting on its block of coordinates i and on i + n, with the
    torus diag(t, -t)."""
    n = sum(parts)
    ends = list(itertools.accumulate(parts, initial=0))
    h_basis = [M for a, b in zip(ends, ends[1:]) for M in sp_matrices(n, range(a, b))]
    ident = [[int(a == b) for b in range(2 * n)] for a in range(2 * n)]
    return MatrixPairInput(
        ambient_dim=2 * n, g_basis=tuple(sp_matrices(n, range(n))),
        h_basis=tuple(h_basis),
        torus_basis=tuple(sp_unit(n, "a", i, i) for i in range(n)), diagonalizer=ident)


def in_sl_input(n, h_basis, torus_basis):
    """Explicit bases of h inside sl(n,R), with the identity diagonalizer."""
    sl = matrix_input_for_block_pattern(BlockPattern((n,), ("full",)))
    return MatrixPairInput(
        ambient_dim=n, g_basis=tuple(dense(M, n) for M in sl.g_basis),
        h_basis=tuple(h_basis), torus_basis=tuple(torus_basis),
        diagonalizer=dense(sl.diagonalizer, n))


def sp_in_sl_input(m):
    """Explicit bases of sp(m,R) inside sl(2m,R), with the torus diag(t, -t)."""
    return in_sl_input(2 * m, sp_matrices(m, range(m)),
                       [sp_unit(m, "a", i, i) for i in range(m)])


def so_in_sl_input(p, q):
    """Explicit bases of so(p,q) inside sl(p+q,R) for the form S of
    min(p,q) hyperbolic planes, then I and -I: S is symmetric with
    S^2 = I, so X = S A has X^T S + S X = A^T + A = 0 for A = E_ij - E_ji.
    The torus is diag(t, -t) on each plane."""
    n, m = p + q, min(p, q)

    def matrix(entries):
        M = [[0] * n for _ in range(n)]
        for (r, c), x in entries.items():
            M[r][c] = x
        return M

    S = matrix({**{(a, a ^ 1): 1 for a in range(2 * m)},
                **{(a, a): 1 if a < p + m else -1 for a in range(2 * m, n)}})
    return in_sl_input(
        n, [mat_mul(S, matrix({(i, j): 1, (j, i): -1}))
            for i, j in itertools.combinations(range(n), 2)],
        [matrix({(2 * k, 2 * k): 1, (2 * k + 1, 2 * k + 1): -1}) for k in range(m)])


SO_SIGNATURES = [(p, n - p) for n in range(2, 7) for p in range(n + 1)]


SP_PRODUCTS = [parts for n in range(2, 5) for k in range(2, n + 1)
               for parts in itertools.product(range(1, n), repeat=k) if sum(parts) == n]


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
    Q = dense(inp.diagonalizer, n)
    Qi = mat_inv(Q)

    def conj(M):
        return [x for r in mat_mul(Qi, mat_mul(dense(M, n), Q)) for x in r]

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
    "sp11_in_sp2": lambda: [sp_product_input((1, 1))],
    "sp_in_sl": lambda: [sp_in_sl_input(m) for m in range(1, 4)],
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
        # every table1 input of the matrix-input benchmark
        for p, q in itertools.product(range(1, 5), repeat=2):
            if (p, q) == (4, 4):
                continue
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
        # a realified pair is real; realifying it again would double it twice
        # under metadata that names one realification
        with pytest.raises(ValueError, match="already realified"):
            realify(doubled)

    def test_so_pair_torus_rank(self):
        spec = build_so_pair(3, 1, 2, 2)
        assert spec.space.dim == min(3, 1) + min(2, 2)

    def test_so_rule_is_claimed_where_every_entry_is_positive(self):
        # example52-so's rule |p1 + q1 - p2 - q2| <= 2 is claimed only where
        # every signature entry is >= 1, all that its scan visits
        assert all(min(params) >= 1 for params, _, _ in FAMILIES["example52-so"](total=6))
        # so(6) + so(1,2) inside so(7,2): g/h gives 6|y| and h gives |y|,
        # so the pair is tempered where the rule says not
        spec = build_so_pair(6, 0, 1, 2)
        f = deficit(spec)
        assert (f.space.dim, f.den, f.terms) == (1, 1, ((5, (1,)),))
        assert check(spec).tempered
        assert not abs(6 + 0 - 1 - 2) <= 2
        # so(4) + so(0,1) inside so(4,1): h is compact, its torus of rank 0
        spec = build_so_pair(4, 0, 0, 1)
        evidence = check(spec).evidence
        assert spec.space.dim == 0
        assert isinstance(evidence, NonnegCertificate) and evidence.rays == ()


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

    def test_bracket_with_one_vanishing_product_is_tested(self):
        # E01 E12 = E02 while E12 E01 = 0: a pair may be passed over only
        # when both products vanish, so span{E01, E12} is not closed
        def unit(a, b):
            return tuple(tuple(int((r, c) == (a, b)) for c in range(3)) for r in range(3))

        ident = tuple(tuple(int(r == c) for c in range(3)) for r in range(3))
        with pytest.raises(BracketClosureError):
            extract_weights(MatrixPairInput(
                ambient_dim=3, g_basis=(unit(0, 1), unit(1, 2), unit(0, 2)),
                h_basis=(unit(0, 1), unit(1, 2)),
                torus_basis=(((1, 0, 0), (0, 0, 0), (0, 0, -1)),), diagonalizer=ident))

    def test_closure_is_tested_before_stability(self):
        # span{E00, E01 + E10} is neither closed, [E00, S] = E01 - E10, nor
        # stable, as S mixes the weights 2 and -2: closure is reported
        D = ((1, 0), (0, -1))
        S = ((0, 1), (1, 0))
        units = [tuple(tuple(int((r, c) == (a, b)) for c in range(2)) for r in range(2))
                 for a in range(2) for b in range(2)]
        with pytest.raises(BracketClosureError):
            extract_weights(MatrixPairInput(
                ambient_dim=2, g_basis=tuple(units), h_basis=(units[0], S),
                torus_basis=(D,), diagonalizer=((1, 0), (0, 1))))

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

    @pytest.mark.parametrize("parts", SP_PRODUCTS, ids=str)
    def test_sp_product_matches_builder(self, parts):
        spec = extract_weights(sp_product_input(parts))
        built = build_product_in_sp(parts)
        assert (spec.h_module, spec.g_module) == (built.h_module, built.g_module)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_sp_in_sl_matches_builder(self, m):
        spec = extract_weights(sp_in_sl_input(m))
        built = build_classical_in_sl("sp", m)
        assert (spec.h_module, spec.g_module) == (built.h_module, built.g_module)

    @pytest.mark.parametrize("signature", SO_SIGNATURES, ids=str)
    def test_so_in_sl_matches_builder(self, signature):
        spec = extract_weights(so_in_sl_input(*signature))
        built = build_classical_in_sl("so", *signature)
        assert (spec.h_module, spec.g_module) == (built.h_module, built.g_module)

    def test_sp11_in_sp2_matches_builder(self):
        # the modules are test_sp_product_matches_builder[(1, 1)]'s
        spec = extract_weights(sp_product_input((1, 1)))
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

    def test_held_form_is_normal(self):
        # one rational matrix however written gives one input: its nonzero
        # entries in row-major order times the lcm of their denominators
        D = ((1, 0), (0, -1))
        E01, E10 = ((0, 1), (0, 0)), ((0, 0), (1, 0))
        halves = [((F(1, 2), 0), (0, F(-1, 2))),
                  ((F(1, 2), F(0)), (F(0), F(-1, 2))),
                  ((F(2, 4), 0), (0, F(-2, 4))),
                  ((0.5, 0), (0, -0.5))]
        diagonals = [D, tuple(tuple(map(F, row)) for row in D),
                     tuple(tuple(map(float, row)) for row in D), D]
        inputs = [MatrixPairInput(ambient_dim=2, g_basis=(Dg, E01, E10), h_basis=(Dg,),
                                  torus_basis=(T,), diagonalizer=((1, 0), (0, 1)))
                  for Dg, T in zip(diagonals, halves)]
        assert inputs[0].g_basis[0] == ((((0, 0), 1), ((1, 1), -1)), 1)
        assert inputs[0].torus_basis == (((((0, 0), 1), ((1, 1), -1)), 2),)
        assert all(inp == inputs[0] for inp in inputs)
        specs = [extract_weights(inp) for inp in inputs]
        assert all(spec == specs[0] for spec in specs)
        assert dict(specs[0].g_module.weights) == {(F(1),): 1, (F(-1),): 1}

    def test_zero_matrix_held_empty(self):
        inp = MatrixPairInput(ambient_dim=2, g_basis=(((0, 0), (0, 0)),
                                                     ((F(0), 0.0), (0, F(0, 3)))),
                              h_basis=(), torus_basis=(), diagonalizer=((1, 0), (0, 1)))
        assert inp.g_basis == (((), 1), ((), 1))
        with pytest.raises(TypeError):     # not a rational, though false
            MatrixPairInput(ambient_dim=1, g_basis=(((None,),),), h_basis=(),
                            torus_basis=(), diagonalizer=((1,),))

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
            return tuple(mat_mul(P, mat_mul(dense(M, n), Pi))
                         for M in basis)

        conjugated = MatrixPairInput(
            ambient_dim=n, g_basis=moved(inp.g_basis),
            h_basis=moved(inp.h_basis), torus_basis=moved(inp.torus_basis),
            diagonalizer=P, metadata=inp.metadata)
        assert extract_weights(conjugated) == extract_weights(inp)
