import json
from fractions import Fraction

import pytest

from temperkit import serialize
from temperkit.check import check
from temperkit.errors import SchemaError
from temperkit.generators import (TABLE1_PATTERNS, build_sl_block, build_so_pair,
                                  realify)
from temperkit.model import LinearForm, PLFunction, TorusSpace

F = Fraction


def lf(*coeffs):
    return LinearForm([F(c) for c in coeffs])


class TestRationals:
    def test_round_trip(self):
        for x in [F(0), F(3), F(-7, 2), F(10 ** 30, 7)]:
            assert serialize.rational_from_str(serialize.rational_to_str(x)) == x

    def test_integer_accepted(self):
        assert serialize.rational_from_str(5) == F(5)

    def test_malformed_reports_location(self):
        with pytest.raises(SchemaError, match="ray_values\\[3\\]"):
            serialize.rational_from_str("1/0", "evidence.ray_values[3]")
        with pytest.raises(SchemaError):
            serialize.rational_from_str("2/x", "here")
        with pytest.raises(SchemaError):
            serialize.rational_from_str(1.5, "here")


class TestModelRoundTrips:
    def test_torus_space(self):
        s = TorusSpace(3, [lf(1, 1, 1)])
        assert serialize.torus_space_from_json(serialize.torus_space_to_json(s)) == s

    def test_pl_function(self):
        s = TorusSpace(2)
        f = PLFunction(s, [(F(3, 2), lf(1, -1))], lf(0, 1))
        assert serialize.pl_function_from_json(serialize.pl_function_to_json(f)) == f

    def test_pair_spec(self):
        spec = build_sl_block(TABLE1_PATTERNS["H4"](2, 2))
        data = serialize.pair_spec_to_json(spec)
        back = serialize.pair_spec_from_json(data)
        assert back.g_module == spec.g_module
        assert back.h_module == spec.h_module
        assert back.symmetry == spec.symmetry
        assert back.metadata == spec.metadata

    def test_schema_errors_carry_paths(self):
        with pytest.raises(SchemaError, match="space.ambient_dim"):
            serialize.torus_space_from_json({"constraints": []}, "space")
        bad = {"space": {"ambient_dim": 1},
               "abs_terms": [{"coeff": "1/0", "form": ["1"]}]}
        with pytest.raises(SchemaError, match="abs_terms\\[0\\].coeff"):
            serialize.pl_function_from_json(bad, "f")
        with pytest.raises(SchemaError, match="mult"):
            serialize.weight_module_from_json(
                {"weights": [{"form": ["1"], "mult": 0}]}, TorusSpace(1), "m")


class TestEvidence:
    def test_witness_round_trip(self):
        spec = build_sl_block(TABLE1_PATTERNS["H2"](3, 1))
        v = check(spec)
        ev = serialize.evidence_from_json(serialize.evidence_to_json(v.evidence))
        assert ev == v.evidence

    def test_certificate_round_trip(self):
        spec = build_sl_block(TABLE1_PATTERNS["H4"](2, 2))
        v = check(spec)
        ev = serialize.evidence_from_json(serialize.evidence_to_json(v.evidence))
        assert ev == v.evidence

    def test_unknown_kind(self):
        with pytest.raises(SchemaError):
            serialize.evidence_from_json({"kind": "proof"})


class TestRecheck:
    def _doc(self, p, q, name="H4"):
        spec = build_sl_block(TABLE1_PATTERNS[name](p, q))
        v = check(spec)
        return json.loads(serialize.dumps(serialize.verdict_to_json(v, spec)))

    def test_tempered_document_consistent(self):
        assert serialize.recheck_document(self._doc(2, 2)) == []

    def test_witness_document_consistent(self):
        assert serialize.recheck_document(self._doc(4, 1)) == []

    def test_ray_value_mutation_detected(self):
        doc = self._doc(2, 2)
        values = doc["evidence"]["ray_values"]
        original = values[0]
        values[0] = serialize.rational_to_str(
            serialize.rational_from_str(original) + 1)
        problems = serialize.recheck_document(doc)
        assert any("ray 0" in p for p in problems)

    def test_flipped_verdict_detected(self):
        doc = self._doc(2, 2)
        doc["tempered"] = False
        assert serialize.recheck_document(doc)

    def test_chamber_linear_form_ignored(self):
        # documents written while the evidence carried "chambers" (each
        # with a "linear_form"), "lineality" and "antipodal_reduced" still read
        doc = self._doc(2, 2)
        dim = doc["pair_spec"]["space"]["ambient_dim"]
        for key in ("chambers", "lineality", "antipodal_reduced"):
            assert key not in doc["evidence"]
        doc["evidence"]["antipodal_reduced"] = True
        doc["evidence"]["lineality"] = [["1"] + ["0"] * (dim - 1)]
        doc["evidence"]["chambers"] = [
            {"signs": "+-", "rays": [0, 1], "linear_form": ["1/2"] * dim},
            {"signs": "x", "rays": "not read"}]
        assert serialize.SCHEMA_VERSION == doc["schema_version"] == 1
        ev = serialize.evidence_from_json(doc["evidence"])
        assert ev == serialize.evidence_from_json(self._doc(2, 2)["evidence"])
        assert serialize.recheck_document(doc) == []

    @pytest.mark.parametrize("spec", [
        build_sl_block(TABLE1_PATTERNS["H1"](2, 1)),
        realify(build_so_pair(2, 1, 1, 0)),
    ], ids=["table1_H1_2_1", "example51_so_C_3_1"])
    def test_no_hyperplane_certificate(self, spec):
        # the deficit cancels to zero; the +- slice-basis rays, each of
        # value 0, show it, and without them the certificate proves nothing
        v = check(spec)
        assert v.evidence.hyperplanes == () and spec.space.dim > 0
        assert not v.evidence.symmetry_reduced
        assert len(v.evidence.rays) == 2 * spec.space.dim
        assert set(v.evidence.ray_values) == {0}
        doc = json.loads(serialize.dumps(serialize.verdict_to_json(v, spec)))
        assert serialize.recheck_document(doc) == []
        doc["evidence"]["rays"] = doc["evidence"]["ray_values"] = []
        assert serialize.recheck_document(doc) == ["certificate has no rays"]

    def test_missing_spec_reported(self):
        doc = self._doc(2, 2)
        del doc["pair_spec"]
        assert serialize.recheck_document(doc)


class TestDeterminism:
    def test_dumps_byte_identical(self):
        spec = build_sl_block(TABLE1_PATTERNS["H1"](3, 2))
        a = serialize.dumps(serialize.verdict_to_json(check(spec), spec))
        b = serialize.dumps(serialize.verdict_to_json(check(spec), spec))
        assert a == b
