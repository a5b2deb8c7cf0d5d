"""End-to-end acceptance gate.

Each test class reproduces one published-table or closed-form result with
exact arithmetic, or validates the Monte-Carlo module against known decay
rates.  Scan fixtures are session-scoped: verdicts are computed once, used
for the table comparisons, and their serialized documents are replayed by
the certificate round-trip tests at the end.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from temperkit import serialize
from temperkit.check import FAMILIES, TABLE2_PREDICATES, check, tensor_product_spec
from temperkit.cli import main as cli_main
from temperkit.generators import TABLE2_PATTERNS, build_sl_block
from temperkit.matrices import example_sp21_input, extract_weights
from temperkit.model import (PLFunction, TorusSpace, deficit,
                             evaluate_pl, rho_function)
from temperkit.verify import NonnegCertificate, Witness, is_nonnegative
from temperkit.volume import (ConvexBody, check_brunn_translate,
                              random_symmetric_polytope, verify_lemma_2_8)

from reference import grid_oracle, parabolic_decomposition

F = Fraction


class FamilyRun:
    """One scanned family: verdict rows plus serialized tempered documents."""

    def __init__(self, family, doc_dir, **ranges):
        self.rows = []          # (params, tempered, predicted)
        self.doc_paths = []     # serialized tempered verdicts, for recheck
        self.elapsed = 0.0
        for i, (params, spec, predicted) in enumerate(FAMILIES[family](**ranges)):
            t0 = time.monotonic()
            verdict = check(spec, use_symmetry=True)
            self.elapsed += time.monotonic() - t0
            self.rows.append((params, verdict.tempered, predicted))
            if verdict.tempered:
                path = doc_dir / f"{family}-{i}.json"
                path.write_text(serialize.dumps(
                    serialize.verdict_to_json(verdict, spec)))
                self.doc_paths.append(path)

    def mismatches(self, keep=lambda params: True):
        return [(p, got, want) for p, got, want in self.rows
                if keep(p) and got != want]


@pytest.fixture(scope="session")
def doc_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("verdicts")


@pytest.fixture(scope="session")
def table1_run(doc_dir):
    return FamilyRun("table1", doc_dir, pmax=6, qmax=6)


@pytest.fixture(scope="session")
def table2_run(doc_dir):
    return FamilyRun("table2", doc_dir, max=4)


@pytest.fixture(scope="session")
def example51_run(doc_dir):
    return FamilyRun("example51", doc_dir, total=6, rank=4)


@pytest.fixture(scope="session")
def example52_runs(doc_dir):
    return {"sl": FamilyRun("example52-sl", doc_dir, n=8),
            "sp": FamilyRun("example52-sp", doc_dir, n=4),
            "so": FamilyRun("example52-so", doc_dir, total=6)}


class TestCriterion01TwoBlockTable:
    def test_all_144_points_match(self, table1_run):
        assert len(table1_run.rows) == 144
        assert table1_run.mismatches() == []

    def test_runtime_under_one_minute(self, table1_run):
        assert table1_run.elapsed < 60.0


class TestCriterion02ThreeBlockTable:
    def test_all_768_points_match(self, table2_run):
        assert len(table2_run.rows) == 768
        assert table2_run.mismatches() == []

    def test_runtime_under_ten_minutes(self, table2_run):
        assert table2_run.elapsed < 600.0


class TestCriterion03BoundaryExactness:
    """H11 flips exactly at p = q+2, q = p+r+2, r = q+2; at each violation
    the witness lies in the coordinate block named by the failed inequality."""

    # (violating point, index of the block carrying the violation,
    #  tempered neighbour just inside the boundary)
    CASES = [
        ((3, 1, 2), 0, (2, 1, 2)),
        ((2, 6, 2), 1, (2, 5, 2)),
        ((2, 1, 3), 2, (2, 1, 2)),
    ]

    @pytest.mark.parametrize("bad,block,good", CASES)
    def test_flip_and_witness_location(self, bad, block, good):
        assert TABLE2_PREDICATES["H11"](*good)
        assert not TABLE2_PREDICATES["H11"](*bad)
        good_v = check(build_sl_block(TABLE2_PATTERNS["H11"](*good)),
                       use_symmetry=True)
        assert good_v.tempered

        spec = build_sl_block(TABLE2_PATTERNS["H11"](*bad))
        bad_v = check(spec, use_symmetry=True)
        assert not bad_v.tempered
        w = bad_v.evidence
        assert isinstance(w, Witness)
        assert w.value < 0
        assert evaluate_pl(deficit(spec), w.direction) == w.value
        # witness direction is supported entirely in the violating block
        p, q, r = bad
        starts = [0, p, p + q, p + q + r]
        support = {i for i, c in enumerate(w.direction) if c != 0}
        block_coords = set(range(starts[block], starts[block + 1]))
        assert support <= block_coords


class TestCriterion04ClassicalPairs:
    def test_orthogonal_in_sl_all_tempered(self, example51_run):
        assert example51_run.mismatches(lambda p: p[0] == "so_in_sl") == []

    def test_symplectic_in_sl_never_tempered(self, example51_run):
        assert example51_run.mismatches(lambda p: p[0] == "sp_in_sl") == []

    def test_complex_pairs_match_rank_conditions(self, example51_run):
        complex_tags = ("sl_C", "so_C", "sp_C")
        assert example51_run.mismatches(lambda p: p[0] in complex_tags) == []


class TestCriterion05ProductPairs:
    def test_sl_partitions(self, example52_runs):
        assert example52_runs["sl"].mismatches() == []

    def test_sp_partitions(self, example52_runs):
        assert example52_runs["sp"].mismatches() == []

    def test_so_signatures(self, example52_runs):
        assert example52_runs["so"].mismatches() == []


class TestCriterion06QuaternionicRatio:
    def test_exact_three_halves(self):
        spec = extract_weights(example_sp21_input())
        assert spec.space.dim == 1
        rho_h = rho_function(spec.h_module)
        rho_q = rho_function(spec.g_module)
        # both are c|t| on a one-dimensional torus; compare the coefficients
        assert len(rho_h.terms) == len(rho_q.terms) == 1
        (ch, (fh,)), (cq, (fq,)) = rho_h.terms[0], rho_q.terms[0]
        assert F(ch * abs(fh), rho_h.den) == F(3, 2) * F(cq * abs(fq), rho_q.den)
        assert not check(spec).tempered


class TestCriterion07TensorProducts:
    def test_variant_1(self):
        for n in range(2, 9):
            for k, l in itertools.product(range(1, n), repeat=2):
                got = check(tensor_product_spec(1, k, l, n)).tempered
                assert got == (abs(k - l) <= 1 and abs(k + l - n) <= 1), (k, l, n)

    def test_variant_2(self):
        for a, b, c in itertools.product(range(1, 7), repeat=3):
            if a + b + c > 8:
                continue
            got = check(tensor_product_spec(2, a, b, c)).tempered
            assert got == (max(b, c) - 1 <= a <= b + c + 1), (a, b, c)

    def test_variant_3(self):
        for a, b, c in itertools.product(range(1, 7), repeat=3):
            if a + b + c > 8:
                continue
            got = check(tensor_product_spec(3, a, b, c)).tempered
            assert got == (2 * max(a, b, c) <= a + b + c + 1), (a, b, c)


class TestCriterion08OracleEquivalence:
    @staticmethod
    def _random_pl(rng):
        dim = rng.randint(1, 4)
        space = TorusSpace(dim)
        terms = []
        for _ in range(rng.randint(1, 6)):
            form = tuple(F(rng.randint(-2, 2)) for _ in range(dim))
            terms.append((F(rng.randint(-3, 3)), form))
        return PLFunction(space, terms)

    def test_500_random_instances(self):
        rng = random.Random(1208)
        for _ in range(400):
            f = self._random_pl(rng)
            result = is_nonnegative(f)
            if isinstance(result, NonnegCertificate):
                assert grid_oracle(f, resolution=12) is None
            else:
                assert result.value < 0
                assert evaluate_pl(f, result.direction) == result.value
        # planted-negative instances: a term forcing f(direction) = -1
        for _ in range(100):
            f = self._random_pl(rng)
            dim = f.space.ambient_dim
            direction = tuple(F(rng.randint(-3, 3)) for _ in range(dim))
            if all(c == 0 for c in direction):
                direction = (F(1),) + direction[1:]
            # the term |direction . Y| is |direction|^2 at Y = direction
            drop = (evaluate_pl(f, direction) + 1) / sum(b * b for b in direction)
            f = f + PLFunction(f.space, [(-drop, direction)])
            assert evaluate_pl(f, direction) == F(-1)
            w = is_nonnegative(f)
            assert isinstance(w, Witness)
            assert w.value < 0
            assert evaluate_pl(f, w.direction) == w.value


class TestCriterion09ParabolicIdentity:
    def test_deficit_identity_at_1000_points(self):
        from temperkit.generators import TABLE1_PATTERNS
        rng = random.Random(42)
        patterns = [TABLE1_PATTERNS["H2"](p, q)
                    for p, q in itertools.product(range(1, 4), repeat=2)]
        patterns += [TABLE2_PATTERNS["H7"](p, q, r)
                     for p, q, r in itertools.product(range(1, 4), repeat=3)]
        checked = 0
        for pattern in patterns:
            spec = build_sl_block(pattern)
            s_mod, ls_mod, uv_mod = parabolic_decomposition(pattern)
            lhs = deficit(spec)
            rhs = (rho_function(ls_mod) + rho_function(uv_mod).scale(2)
                   - rho_function(s_mod))
            basis = spec.space.slice_basis()
            for _ in range(30):
                coords = [F(rng.randint(-30, 30), rng.randint(1, 9))
                          for _ in basis]
                y = spec.space.lift(coords)
                assert evaluate_pl(lhs, y) == evaluate_pl(rhs, y)
                checked += 1
        assert checked >= 1000


class TestCriterion10VolumeDecay:
    CASES = [
        (np.diag([1.0, -1.0]), ConvexBody.box(2), 5.0),
        (np.diag([1.0, -1.0]), ConvexBody.ball(2), 5.0),
        (np.diag([1.0, 0.0, -1.0]), ConvexBody.box(3), 4.5),
        (np.diag([1.0, 1.0, -2.0]), ConvexBody.ball(3), 3.0),
        (np.diag([2.0, -1.0, -1.0, 0.0]), ConvexBody.box(4), 3.0),
    ]

    def test_five_fits_within_tolerance(self):
        t0 = time.monotonic()
        for i, (A, body, tmax) in enumerate(self.CASES):
            fit = verify_lemma_2_8(A, body, np.linspace(0.5, tmax, 10),
                                   samples=100_000, seed=100 + i,
                                   tolerance=0.1)
            assert fit.passed, (i, fit.fitted_slope, fit.predicted_slope)
        assert time.monotonic() - t0 < 120.0


class TestCriterion11TranslateBound:
    def test_100_random_pairs(self):
        rng = np.random.default_rng(77)
        failures = []
        for trial in range(100):
            dim = 2 + trial % 3
            B = random_symmetric_polytope(dim, rng)
            B2 = random_symmetric_polytope(dim, rng)
            v = rng.normal(size=dim)
            result = check_brunn_translate(B, B2, v, samples=20_000,
                                           seed=5000 + trial)
            if not result["passed"]:
                failures.append(trial)
        assert failures == []


class TestCriterion12CertificateRoundTrip:
    def _all_docs(self, table1_run, table2_run, example51_run, example52_runs):
        docs = list(table1_run.doc_paths) + list(table2_run.doc_paths)
        docs += list(example51_run.doc_paths)
        for run in example52_runs.values():
            docs += list(run.doc_paths)
        return docs

    def test_every_tempered_verdict_rechecks(self, table1_run, table2_run,
                                             example51_run, example52_runs,
                                             capsys):
        docs = self._all_docs(table1_run, table2_run, example51_run,
                              example52_runs)
        assert docs
        for path in docs:
            code = cli_main(["recheck", str(path)])
            capsys.readouterr()
            assert code == 0, path

    def test_single_ray_mutation_detected(self, table1_run, tmp_path, capsys):
        # pick certificates with a few rays and corrupt each value in turn
        tested = 0
        for path in table1_run.doc_paths:
            doc = json.loads(path.read_text())
            values = doc["evidence"]["ray_values"]
            if not values or tested >= 5:
                continue
            for i in range(len(values)):
                mutated = json.loads(path.read_text())
                bumped = serialize.rational_from_str(values[i]) + 1
                mutated["evidence"]["ray_values"][i] = \
                    serialize.rational_to_json(bumped)
                target = tmp_path / "mutated.json"
                target.write_text(json.dumps(mutated))
                code = cli_main(["recheck", str(target)])
                out = capsys.readouterr().out
                assert code == 1
                assert json.loads(out)["consistent"] is False
            tested += 1
        assert tested == 5
