import itertools
import sys
from fractions import Fraction

import pytest

from temperkit.check import (FAMILIES, TABLE1_PREDICATES, Verdict,
                             check, render_scan_table, scan_family,
                             sp_product_tempered, tensor_product_spec)
from temperkit.families import _partitions, build_product_in_sp
from temperkit.generators import TABLE1_PATTERNS, build_product_in_sl, build_sl_block
from temperkit.model import PairSpec, TorusSpace, WeightModule, deficit, evaluate_pl
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
        for parts in products(12):
            least = min(sp_ray_deficit(parts, ks) for ks in block_counts(parts))
            assert sp_product_tempered(parts) == (least >= 0), parts

    def test_two_parts_all_ones_ray(self):
        for a, b in itertools.product(range(1, 9), repeat=2):
            assert sp_ray_deficit((a, b), (a, b)) == -(a - b) ** 2 - (a + b)
            assert not sp_product_tempered((a, b))

    def test_builder_deficit_matches_formula_at_rays(self):
        for parts in products(5):
            f = deficit(build_product_in_sp(parts))
            for ks in block_counts(parts):
                ray = tuple(F(int(i < ki)) for ki, ni in zip(ks, parts)
                            for i in range(ni))
                assert evaluate_pl(f, ray) == sp_ray_deficit(parts, ks), \
                    (parts, ks)
