import itertools
import sys
from fractions import Fraction

import pytest

from temperkit.check import (FAMILIES, TABLE1_PREDICATES, Verdict,
                             check, render_scan_table, scan_family,
                             sp_product_tempered, tensor_product_spec)
from temperkit.families import (_partitions, build_classical_in_sl, build_product_in_sp,
                                build_so_pair, product_in_sp_deficit)
from temperkit.generators import TABLE1_PATTERNS, build_product_in_sl, build_sl_block, realify
from temperkit.model import (PairSpec, TorusSpace, WeightModule, _evaluate, deficit,
                             evaluate_pl)
from temperkit.verify import NonnegCertificate, Witness

F = Fraction


def lf(*coeffs):
    """A linear form as a tuple of exact rationals."""
    return tuple(F(c) for c in coeffs)


def simple_spec(h_weight=2, g_weight=1, v_mult=None):
    s = TorusSpace(1)
    h = WeightModule(s, [(lf(h_weight), 1), (lf(-h_weight), 1)])
    g = WeightModule(s, [(lf(g_weight), 1), (lf(-g_weight), 1)])
    v = None
    if v_mult is not None:
        v = WeightModule(s, [(lf(1), v_mult)]) if v_mult > 0 else \
            WeightModule(s, [(lf(0), 1)])
    return PairSpec(g_module=g, h_module=h, v_module=v)


class TestCheck:
    def test_verdict_evidence_consistency(self):
        v = check(simple_spec())
        assert not v.tempered
        assert isinstance(v.evidence, Witness)
        v = check(simple_spec(h_weight=1, g_weight=2))
        assert v.tempered
        assert isinstance(v.evidence, NonnegCertificate)

    def test_determinism(self):
        spec = build_sl_block(TABLE1_PATTERNS["H1"](3, 2))
        a, b = check(spec), check(spec)
        assert a.tempered == b.tempered
        assert a.evidence == b.evidence
        assert a.deficit_summary == b.deficit_summary

    def test_witness_replays_on_deficit(self):
        spec = build_sl_block(TABLE1_PATTERNS["H2"](3, 1))
        v = check(spec)
        assert not v.tempered
        f = deficit(spec)
        assert evaluate_pl(f, v.evidence.direction) == v.evidence.value < 0

    def test_symmetry_flag_preserves_verdict(self):
        for p, q in [(2, 2), (3, 1), (4, 2)]:
            spec = build_sl_block(TABLE1_PATTERNS["H4"](p, q))
            reduced, full = check(spec), check(spec, use_symmetry=False)
            assert reduced.tempered == full.tempered
            if reduced.tempered:
                assert reduced.evidence.symmetry_reduced
                assert not full.evidence.symmetry_reduced

    def test_spec_metadata_records_family(self):
        spec = build_product_in_sl((2, 2))
        assert spec.metadata["family"] == "product_in_sl"

    def test_tempered_follows_the_evidence(self):
        # a verdict cannot contradict its evidence: tempered is read off it
        witness = check(simple_spec()).evidence
        certificate = check(build_sl_block(TABLE1_PATTERNS["H1"](1, 1))).evidence
        assert Verdict(witness, {}).tempered is False
        assert Verdict(certificate, {}).tempered is True
        assert Verdict(witness, {}) != Verdict(certificate, {})
        with pytest.raises(TypeError):
            Verdict(True, witness, {})

    def test_witness_replay_mismatch_raises(self, monkeypatch):
        # the package's check() shadows the module temperkit.check
        module = sys.modules["temperkit.check"]
        monkeypatch.setattr(module, "evaluate_pl", lambda f, Y: F(0))
        with pytest.raises(RuntimeError, match="witness replays"):
            check(simple_spec())


class TestExtraModule:
    def test_trivial_module_is_identity(self):
        bare = check(simple_spec())
        with_zero_v = check(simple_spec(v_mult=0))
        assert bare.tempered == with_zero_v.tempered

    def test_monotone_in_module(self):
        # 2 rho_V eventually dominates any fixed deficit
        assert not check(simple_spec()).tempered
        verdicts = [check(simple_spec(v_mult=m)).tempered
                    for m in (1, 2, 5)]
        assert verdicts == sorted(verdicts)
        assert check(simple_spec(v_mult=5)).tempered


class TestScans:
    def test_small_table1_clean(self):
        report = scan_family("table1", pmax=2, qmax=2)
        assert report.clean
        assert len(report.points) == 16
        for pt in report.points:
            name = pt.params[0]
            assert pt.predicted == TABLE1_PREDICATES[name](*pt.params[1:])

    def test_unknown_family(self):
        with pytest.raises(KeyError):
            scan_family("nope")

    def test_render_table(self):
        report = scan_family("table1", pmax=1, qmax=2)
        text = render_scan_table(report)
        assert "mismatches: 0" in text
        rows = [line.split() for line in text.splitlines() if line.startswith("('H2',")]
        assert [row[3:5] for row in rows] == [["tempered", "tempered"]] * 2

    def test_full_enumeration_agrees_on_small_points(self):
        fast = scan_family("table1", pmax=2, qmax=2)
        slow = [check(spec, use_symmetry=False).tempered
                for _, spec, _ in FAMILIES["table1"](pmax=2, qmax=2)]
        assert [p.tempered for p in fast.points] == slow


class TestTensorDictionary:
    def test_variant_validation(self):
        with pytest.raises(ValueError):
            check(tensor_product_spec(1, 0, 1, 3))
        with pytest.raises(ValueError):
            check(tensor_product_spec(2, 0, 1, 1))
        with pytest.raises(ValueError):
            check(tensor_product_spec(4, 1, 1, 1))

    def test_spot_values(self):
        assert check(tensor_product_spec(1, 2, 2, 4)).tempered
        assert not check(tensor_product_spec(1, 1, 1, 5)).tempered
        assert check(tensor_product_spec(2, 2, 1, 2)).tempered
        assert not check(tensor_product_spec(2, 5, 1, 2)).tempered
        assert check(tensor_product_spec(3, 1, 3, 1)).tempered
        assert not check(tensor_product_spec(3, 1, 4, 1)).tempered
        assert check(tensor_product_spec(3, 2, 2, 2)).tempered

    def test_metadata_records_question(self):
        spec = tensor_product_spec(1, 2, 2, 4)
        assert spec.metadata["question"] == "tensor_product"
        assert spec.metadata["variant"] == 1


def sp_ray_deficit(parts, ks):
    """Deficit of sp(n_1) x ... x sp(n_r) in sp(n) at the 0/1 ray with
    ks[i] ones in block i, from the C_n root count alone."""
    n, k = sum(parts), sum(ks)
    return k * (2 * n - k - 3) - 2 * sum(ki * (2 * ni - ki - 1)
                                         for ki, ni in zip(ks, parts))


def block_counts(parts):
    return itertools.product(*(range(p + 1) for p in parts))


def products(nmax):
    for n in range(2, nmax + 1):
        for parts in _partitions(n):
            if len(parts) >= 2:
                yield parts


class TestSpProductPredicate:
    def test_rule_matches_ray_minimum(self):
        # the check sp_product_tempered's docstring claims: every partition
        # with at least two parts and n <= 14, 493 of them
        checked = 0
        for parts in products(14):
            least = min(sp_ray_deficit(parts, ks) for ks in block_counts(parts))
            assert sp_product_tempered(parts) == (least >= 0), parts
            checked += 1
        assert checked == 493

    def test_two_parts_all_ones_ray(self):
        for a, b in itertools.product(range(1, 9), repeat=2):
            assert sp_ray_deficit((a, b), (a, b)) == -(a - b) ** 2 - (a + b)
            assert not sp_product_tempered((a, b))

    def test_builder_deficit_matches_formula_at_rays(self):
        # F is the built spec's deficit, and the closed form that recheck
        # values, at the 0/1 ray with the top ks[i] coordinates of block i set
        for parts in products(6):
            f = deficit(build_product_in_sp(parts))
            (space, den, terms), _ = product_in_sp_deficit(parts)
            counts = list(block_counts(parts))
            rays = [tuple(F(int(i < ki)) for ki, ni in zip(ks, parts) for i in range(ni))
                    for ks in counts]
            closed = _evaluate(space, den, terms, rays)
            for ks, ray, (total, scale) in zip(counts, rays, closed):
                assert evaluate_pl(f, ray) == F(total, scale) == sp_ray_deficit(parts, ks), \
                    (parts, ks)


def bc_factor_sizes(meta):
    """The rank of each factor of a type-BC question, from its metadata."""
    if meta["family"] == "product_in_sp":
        return meta["parts"]
    if meta["family"] == "so_pair":
        p1, q1, p2, q2 = meta["signature"]
        return [min(p1, q1), min(p2, q2)]
    return [min(meta["signature"])] if meta["kind"] == "so" else [meta["m"]]


def test_type_bc_verdict_is_the_count_vector_criterion():
    # a type-BC deficit is a sum of c (|y_a + y_b| + |y_a - y_b|) and
    # d |y_a| terms, so it is linear on each chamber of the signed
    # permutations, whose rays are the 0/1 vectors 1_S up to sign; it is
    # invariant under sign changes and under permutations inside a factor,
    # so 1_S may be taken as the top kappa_i coordinates of each factor i.
    # Hence it is >= 0 exactly when it is >= 0 at 1_{top kappa} for every
    # count vector kappa, decided here from model.deficit of the built spec
    specs = [build_product_in_sp(parts) for parts in products(8)]
    for p1, q1, p2, q2 in itertools.product(range(5), repeat=4):
        if p1 + q1 >= 1 and p2 + q2 >= 1:
            specs.append(build_so_pair(p1, q1, p2, q2))
    specs += [build_classical_in_sl("so", p, n - p) for n in range(2, 9) for p in range(n + 1)]
    specs += [build_classical_in_sl("sp", m) for m in range(1, 5)]
    specs += [realify(build_product_in_sp(parts)) for parts in ((1, 1), (2, 1), (2, 1, 1))]
    specs += [realify(build_so_pair(*signature)) for signature in
              ((1, 1, 1, 1), (2, 1, 1, 0), (6, 0, 1, 2), (2, 2, 0, 1))]
    specs += [realify(build_classical_in_sl("so", 2, 1)), realify(build_classical_in_sl("sp", 2))]
    assert len(specs) == 58 + 576 + 42 + 4 + 9
    tempered = 0
    for spec in specs:
        sizes = bc_factor_sizes(spec.metadata)
        f = deficit(spec)
        rays = (tuple(F(int(i < k)) for k, m in zip(kappa, sizes) for i in range(m))
                for kappa in block_counts(sizes))
        criterion = all(evaluate_pl(f, ray) >= 0 for ray in rays)
        assert check(spec).tempered == criterion, spec.metadata
        tempered += criterion
    assert 0 < tempered < len(specs)
