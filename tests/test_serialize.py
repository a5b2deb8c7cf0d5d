import json
import random
from fractions import Fraction

import pytest

from temperkit import serialize
from temperkit.check import check, tensor_product_spec
from temperkit.errors import SchemaError
from temperkit.families import build_classical_in_sl, build_product_in_sp, build_so_pair
from temperkit.generators import (TABLE1_PATTERNS, TABLE2_PATTERNS, BlockPattern,
                                  build_product_in_sl, build_sl_block,
                                  matrix_input_for_block_pattern, realify)
from temperkit.matrices import extract_weights
from temperkit.model import PairSpec, TorusSpace, WeightModule
from temperkit.serialize import QUESTION_CEILING

from reference import replay_problems

F = Fraction


class TestRationals:
    def test_round_trip(self):
        for x in [F(0), F(3), F(-7, 2), F(10 ** 30, 7)]:
            assert serialize.rational_from_str(serialize.rational_to_json(x)) == x

    def test_integer_accepted(self):
        assert serialize.rational_from_str(5) == F(5)

    def test_malformed_reports_location(self):
        with pytest.raises(SchemaError, match="ray_values\\[3\\]"):
            serialize.rational_from_str("1/0", "evidence.ray_values[3]")
        with pytest.raises(SchemaError):
            serialize.rational_from_str("2/x", "here")
        with pytest.raises(SchemaError):
            serialize.rational_from_str(1.5, "here")
        for flag in (True, False):
            with pytest.raises(SchemaError, match="here: expected a rational, got bool"):
                serialize.rational_from_str(flag, "here")

    def test_integral_values_are_json_integers(self):
        assert serialize._vec_to_json((3, F(4), F(-7, 2), -1)) == [3, 4, "-7/2", -1]
        back = serialize._vec_from_json([3, 4, "-7/2", "-1"], "v")
        assert back == (3, 4, F(-7, 2), -1)
        assert [type(x) for x in back] == [int, int, F, int]


class TestModelRoundTrips:
    def test_torus_space(self):
        s = TorusSpace(3, [(1, 1, 1)])
        assert serialize.torus_space_from_json(serialize.torus_space_to_json(s)) == s

    def test_pair_spec(self):
        spec = build_sl_block(TABLE1_PATTERNS["H4"](2, 2))
        data = serialize.pair_spec_to_json(spec)
        back = serialize.read_input({"pair_spec": data})
        assert back.g_module == spec.g_module
        assert back.h_module == spec.h_module
        assert back.metadata == spec.metadata

    def test_schema_errors_carry_paths(self):
        with pytest.raises(SchemaError, match="space.ambient_dim"):
            serialize.torus_space_from_json({"constraints": []}, "space")
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


def v1_document(verdict, spec):
    """The verdict document as schema version 1 wrote it: the spec's space
    and modules in full next to its metadata."""
    return json.loads(serialize.dumps(
        {**serialize.verdict_to_json(verdict), "schema_version": 1,
         "pair_spec": {**serialize.pair_spec_to_json(spec), "schema_version": 1}}))


class TestRecheck:
    def _doc(self, p, q, name="H4", v1=False):
        spec = build_sl_block(TABLE1_PATTERNS[name](p, q))
        v = check(spec)
        if v1:
            return v1_document(v, spec)
        return json.loads(serialize.dumps(serialize.verdict_to_json(v, spec)))

    def test_tempered_document_consistent(self):
        assert serialize.recheck_document(self._doc(2, 2)) == []

    def test_witness_document_consistent(self):
        assert serialize.recheck_document(self._doc(4, 1)) == []

    def test_ray_value_mutation_detected(self):
        doc = self._doc(2, 2)
        values = doc["evidence"]["ray_values"]
        original = values[0]
        values[0] = serialize.rational_to_json(
            serialize.rational_from_str(original) + 1)
        problems = serialize.recheck_document(doc)
        assert any("ray 0" in p for p in problems)

    def test_ray_problems_reported_in_ray_order(self):
        # rays 1 and 3 leave the trace-zero slice, ray 2's value is
        # tampered, and ray 4 is halved to "1/2" entries with its value
        # halved too, which is consistent
        doc = self._doc(3, 3)
        ev = doc["evidence"]
        rays, values = ev["rays"], ev["ray_values"]
        assert len(rays) > 5
        for i in (1, 3):
            rays[i][0] += 1
        computed = serialize.rational_from_str(values[2])
        values[2] = serialize.rational_to_json(computed + 1)
        rays[4] = [serialize.rational_to_json(F(x, 2)) for x in rays[4]]
        values[4] = serialize.rational_to_json(serialize.rational_from_str(values[4]) / 2)
        assert any(type(x) is str and x.endswith("/2") for x in rays[4])
        assert serialize.recheck_document(doc) == [
            "ray 1: point violates torus constraints",
            f"ray 2: recorded value {computed + 1}, computed {computed}",
            "ray 3: point violates torus constraints",
        ]

    def test_flipped_verdict_detected(self):
        doc = self._doc(2, 2)
        doc["tempered"] = False
        assert serialize.recheck_document(doc)

    def test_chamber_linear_form_ignored(self):
        # documents written while the evidence carried "hyperplanes",
        # "chambers" (each with a "linear_form"), "lineality" and
        # "antipodal_reduced", the verdict a "spec_echo", the space
        # "coordinate_labels" and each module a "name" still read
        doc = self._doc(2, 2, v1=True)
        space = doc["pair_spec"]["space"]
        dim = space["ambient_dim"]
        for key in ("hyperplanes", "chambers", "lineality", "antipodal_reduced"):
            assert key not in doc["evidence"]
        assert "spec_echo" not in doc and "coordinate_labels" not in space
        assert "name" not in doc["pair_spec"]["h_module"]
        doc["spec_echo"] = dict(doc["pair_spec"]["metadata"])
        space["coordinate_labels"] = [f"t{i}" for i in range(dim)]
        doc["pair_spec"]["h_module"]["name"] = "h"
        doc["pair_spec"]["g_module"]["name"] = "g/h"
        doc["evidence"]["hyperplanes"] = [["1"] + ["0"] * (dim - 1), "not read"]
        doc["evidence"]["antipodal_reduced"] = True
        doc["evidence"]["lineality"] = [["1"] + ["0"] * (dim - 1)]
        doc["evidence"]["chambers"] = [
            {"signs": "+-", "rays": [0, 1], "linear_form": ["1/2"] * dim},
            {"signs": "x", "rays": "not read"}]
        assert doc["schema_version"] == doc["pair_spec"]["schema_version"] == 1
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
        assert v.deficit_summary["hyperplanes"] == 0 and spec.space.dim > 0
        assert not v.evidence.symmetry_reduced
        assert len(v.evidence.rays) == 2 * spec.space.dim
        assert set(v.evidence.ray_values) == {0}
        doc = json.loads(serialize.dumps(serialize.verdict_to_json(v, spec)))
        assert serialize.recheck_document(doc) == []
        doc["evidence"]["rays"] = doc["evidence"]["ray_values"] = []
        assert serialize.recheck_document(doc) == ["certificate has no rays"]

    def test_bool_rational_rejected(self):
        # a JSON true is not the rational 1, in the spec or in the evidence
        doc = self._doc(2, 2, v1=True)
        rows = doc["pair_spec"]["space"]["constraints"]
        assert any(1 in row for row in rows)
        doc["pair_spec"]["space"]["constraints"] = [
            [True if x in (1, "1") else x for x in row] for row in rows]
        with pytest.raises(SchemaError,
                           match=r"pair_spec\.space\.constraints\[0\]\[0\]: "
                                 "expected a rational"):
            serialize.recheck_document(doc)
        doc = self._doc(2, 2)
        doc["evidence"]["rays"][0][0] = True
        with pytest.raises(SchemaError, match=r"evidence\.rays\[0\]\[0\]"):
            serialize.recheck_document(doc)

    def test_symmetry_reduced_must_be_boolean(self):
        doc = self._doc(2, 2)
        doc["evidence"]["symmetry_reduced"] = "no"
        with pytest.raises(SchemaError,
                           match=r"evidence\.symmetry_reduced: expected a boolean"):
            serialize.recheck_document(doc)

    @pytest.mark.parametrize("case", [
        "witness_at_a_ray", "certificate_of_the_witness", "ray_value_dropped",
        "witness_claims_tempered"])
    def test_each_rule_is_applied(self, case):
        # each case breaks one rule of the replay: the document is tempered
        # exactly when its evidence is a certificate, a witness's deficit is
        # negative and a certificate ray's is not, and a certificate
        # records one value per ray.  H4(2, 2) is tempered, H4(4, 1) is not.
        if case == "witness_at_a_ray":
            doc = self._doc(2, 2)
            ev = doc["evidence"]
            value = serialize.rational_from_str(ev["ray_values"][0])
            assert value >= 0
            doc["tempered"] = False
            doc["evidence"] = {"kind": "witness", "direction": ev["rays"][0],
                               "value": ev["ray_values"][0]}
            expected = [f"witness direction: deficit {value} contradicts tempered false"]
        elif case == "certificate_of_the_witness":
            doc = self._doc(4, 1)
            ev = doc["evidence"]
            value = serialize.rational_from_str(ev["value"])
            doc["tempered"] = True
            doc["evidence"] = {"kind": "certificate", "rays": [ev["direction"]],
                               "ray_values": [ev["value"]], "symmetry_reduced": False}
            expected = [f"ray 0: deficit {value} contradicts tempered true"]
        elif case == "ray_value_dropped":
            doc = self._doc(2, 2)
            doc["evidence"]["ray_values"].pop()
            expected = ["ray and value counts differ"]
        else:
            doc = self._doc(4, 1)
            doc["tempered"] = True
            expected = ["witness evidence but tempered is not false"]
        assert serialize.recheck_document(doc) == expected

    def test_missing_spec_reported(self):
        doc = self._doc(2, 2)
        del doc["pair_spec"]
        assert serialize.recheck_document(doc)

    @pytest.mark.xfail(strict=True,
                       reason="ROADMAP item 2: recheck cannot prove ray coverage")
    def test_certificate_that_misses_a_negative_direction_rejected(self):
        # H11(3,1,2) is not tempered: its deficit is -2 at (1,0,-1,0,0,0).
        # A certificate with one ray, where the deficit is 0, replays cleanly
        # because recheck values the rays it is given and no others
        spec = build_sl_block(TABLE2_PATTERNS["H11"](3, 1, 2))
        doc = json.loads(serialize.dumps(serialize.verdict_to_json(check(spec), spec)))
        doc["tempered"] = True
        doc["evidence"] = {"kind": "certificate", "rays": [[0, 0, 0, 0, -1, 1]],
                           "ray_values": [0], "symmetry_reduced": True}
        assert serialize.recheck_document(doc)


def _replay_specs():
    """Small specs of every family builder, realified and tensor-product
    questions, an all-identity block pattern, an extracted spec and one
    with half-integral weights."""
    space = TorusSpace(2)
    halves = PairSpec(g_module=WeightModule(space, [((F(1, 2), F(3, 2)), 1), ((1, 0), 2)]),
                      h_module=WeightModule(space, [((F(1, 3), 0), 3)]))
    return [
        build_sl_block(TABLE1_PATTERNS["H4"](2, 2)),
        build_sl_block(TABLE1_PATTERNS["H4"](4, 1)),
        build_sl_block(TABLE2_PATTERNS["H2"](1, 2, 1)),
        build_sl_block(TABLE2_PATTERNS["H1"](3, 1, 1)),
        build_product_in_sl([2, 1]),
        build_product_in_sl([1, 1, 3]),
        build_product_in_sp([1, 1]),
        build_product_in_sp([2, 1]),
        build_so_pair(2, 1, 1, 0),
        build_so_pair(1, 0, 3, 1),
        build_classical_in_sl("so", 2, 1),
        build_classical_in_sl("sp", 2),
        realify(build_so_pair(2, 1, 1, 1)),
        realify(build_product_in_sl([2, 1])),
        realify(build_sl_block(TABLE2_PATTERNS["H6"](1, 2, 1))),
        build_sl_block(BlockPattern((2, 1, 1), ("identity",) * 3, {(0, 1)})),
        tensor_product_spec(1, 2, 2, 4),
        extract_weights(matrix_input_for_block_pattern(TABLE1_PATTERNS["H2"](2, 1))),
        halves,
    ]


def _mutants(doc: dict):
    """Copies of a verdict document, each with one point or recorded value
    changed: the value +-1/k, its sign flipped, the point scaled by a
    rational with its value scaled too or left, a point moved by e_0, and
    a recorded or computed value of more than 4,300 digits; then the
    tempered flag flipped, and the points as the other kind of evidence."""
    ev = doc["evidence"]
    witness = ev["kind"] == "witness"
    points = [ev["direction"]] if witness else ev["rays"]
    values = [ev["value"]] if witness else ev["ray_values"]
    for i in range(min(len(points), 4)):
        value = serialize.rational_from_str(values[i])
        point = [serialize.rational_from_str(x) for x in points[i]]
        k = abs(F(value).numerator) + 1     # value / k is not integral unless 0
        changes = [(None, value + F(1, d)) for d in (1, 2, 3)]
        changes += [(None, value - F(1, d)) for d in (1, 2, 3)]
        changes += [(None, -value), (None, 10 ** 4400),
                    ([F(x) / k for x in point], F(value) / k),
                    ([F(x) / k for x in point], value),
                    ([x + (j == 0) for j, x in enumerate(point)], value),
                    ([x * 10 ** 4400 for x in point], value)]
        for point, recorded in changes:
            new = json.loads(serialize.dumps({**doc, "evidence": {}}))
            new["evidence"] = dict(ev)
            moved = [list(p) for p in points]
            kept = list(values)
            if point is not None:
                moved[i] = [serialize.rational_to_json(x) for x in point]
            kept[i] = recorded if type(recorded) is int else serialize.rational_to_json(recorded)
            if witness:
                new["evidence"].update(direction=moved[0], value=kept[0])
            else:
                new["evidence"].update(rays=moved, ray_values=kept)
            yield new
    yield {**doc, "tempered": not doc["tempered"]}
    # the other kind of evidence at the same points, each with its value
    if witness:
        yield {**doc, "tempered": True, "evidence": {
            "kind": "certificate", "rays": points, "ray_values": values,
            "symmetry_reduced": False}}
    else:
        yield from ({**doc, "tempered": False, "evidence": {
            "kind": "witness", "direction": point, "value": value}}
            for point, value in zip(points[:4], values))


def _replay_documents():
    """The document of every spec of _replay_specs as written, then a block
    question in its schema-1 form, which carries its space and modules."""
    for spec in _replay_specs():
        yield json.loads(serialize.dumps(serialize.verdict_to_json(check(spec), spec)))
    spec = build_sl_block(TABLE2_PATTERNS["H11"](2, 1, 2))
    yield v1_document(check(spec), spec)


class TestIntegerReplay:
    def test_problems_are_those_of_the_fraction_replay(self):
        # recheck compares total*q with p*scale and the sign of total; the
        # reference compares evaluate_at's Fractions, by the rule as stated,
        # on the deficit of the spec read_pair_spec builds, where recheck
        # takes a block question's deficit in closed form
        kinds, found, clean = set(), 0, 0
        for doc in _replay_documents():
            kinds.add(doc["evidence"]["kind"])
            assert serialize.recheck_document(doc) == replay_problems(doc) == []
            for mutant in _mutants(doc):
                problems = serialize.recheck_document(mutant)
                assert problems == replay_problems(mutant), mutant["evidence"]
                found += bool(problems)
                clean += not problems
        assert kinds == {"witness", "certificate"}
        assert found > 0 and clean > 0

    @pytest.mark.parametrize("change", [
        {"sizes": [2, 1, 0, 2], "diagonal_kind": ["full"] * 4,
         "upper_blocks": [[0, 1], [0, 3]]},
        {"upper_blocks": [[0, 2], [0, 1]]},
        {"note": "x"},
    ], ids=["zero_size_block", "unsorted_upper_blocks", "extra_key"])
    def test_block_metadata_not_the_builders_is_reported(self, change):
        # the same pattern, written otherwise than its builder writes it
        spec = build_sl_block(TABLE2_PATTERNS["H12"](2, 1, 2))
        doc = json.loads(serialize.dumps(serialize.verdict_to_json(check(spec), spec)))
        doc["pair_spec"]["metadata"].update(change)
        assert serialize.recheck_document(doc) == replay_problems(doc) == [
            'pair_spec.metadata: not the metadata its builder writes, '
            '{"diagonal_kind":["full","full","full"],"family":"sl_block",'
            '"sizes":[2,1,2],"upper_blocks":[[0,1],[0,2]]}']


# values a metadata mutant sets a key to: wrong types, negatives, entries
# past the ceiling, other families and kinds, and well-formed values
METADATA_VALUES = [
    None, True, False, 0, 1, 2, 3, -1, 1.5, "1", "so", "sp", "x", QUESTION_CEILING,
    QUESTION_CEILING + 1, 10 ** 9, [], [1], [2, 1], [1, 1], [1, 1, 1], [2, 1, 1, 2],
    [1, 2, 3, 1], [0, 0, 1, 2], [6, 0, 1, 2], [-1, 1, 1, 1], [1, -2], [1, 0],
    [QUESTION_CEILING, 1, 1, 1], [QUESTION_CEILING + 1, 1], [1, "1"], [1, 1.0],
    [True, 1], [[1, 2]], [[0, 1], [0, 2]], {"a": 1}, "so_pair", "product_in_sp",
    "classical_in_sl", "sl_block", "product_in_sl", "tensor_product", ["so_pair"],
]
METADATA_KEYS = ("signature", "parts", "m", "kind", "family", "realified", "question")
TENSOR_KEYS = ("variant", "k", "l", "n", "a", "b", "c", "question", "sizes",
               "upper_blocks")


def _mutant_inputs():
    """Documents of type-BC questions and of tensor products, one per
    variant and one realified, each kind of evidence among both, with the
    metadata keys a mutant of each may set."""
    bc = [build_so_pair(2, 1, 1, 2), build_so_pair(6, 0, 1, 2),
          realify(build_so_pair(2, 1, 1, 1)), build_so_pair(1, 1, 0, 3),
          build_product_in_sp([2, 1, 1]), realify(build_product_in_sp([1, 1])),
          build_classical_in_sl("so", 3, 1), build_classical_in_sl("sp", 2),
          realify(build_classical_in_sl("so", 1, 1))]
    tensor = [tensor_product_spec(1, 2, 3, 5), tensor_product_spec(2, 5, 1, 2),
              tensor_product_spec(3, 1, 3, 1), realify(tensor_product_spec(2, 2, 1, 2))]
    return [(json.loads(serialize.dumps(serialize.verdict_to_json(check(spec), spec))), keys)
            for specs, keys in ((bc, METADATA_KEYS), (tensor, TENSOR_KEYS))
            for spec in specs]


def _outcome(replay, doc):
    try:
        return replay(doc)
    except Exception as e:     # the exception, its type and text, is the outcome
        return type(e), str(e)


def test_bc_metadata_mutants_read_as_the_built_route_reads_them():
    # recheck values a type-BC or tensor-product document's closed form;
    # the reference builds the spec from its metadata and takes
    # model.deficit: the problems, or the exception type and text, must be
    # equal for every mutant
    rng = random.Random(45)
    inputs = _mutant_inputs()
    for some in (inputs[:9], inputs[9:]):
        assert {doc["evidence"]["kind"] for doc, _ in some} == {"certificate", "witness"}
    outcomes = set()
    for _ in range(4000):
        doc, keys = rng.choice(inputs)
        doc = json.loads(serialize.dumps(doc))
        meta = doc["pair_spec"]["metadata"]
        for key in rng.sample(keys, rng.choice((1, 1, 2))):
            value = rng.choice(METADATA_VALUES)
            if value is None:
                meta.pop(key, None)
            else:
                meta[key] = value
        got = _outcome(serialize.recheck_document, doc)
        assert got == _outcome(replay_problems, doc), meta
        outcomes.add("clean" if got == [] else
                     "problems" if isinstance(got, list) else got[0].__name__)
    assert outcomes == {"clean", "problems", "SchemaError"}


class TestDeterminism:
    def test_dumps_byte_identical(self):
        spec = build_sl_block(TABLE1_PATTERNS["H1"](3, 2))
        a = serialize.dumps(serialize.verdict_to_json(check(spec), spec))
        b = serialize.dumps(serialize.verdict_to_json(check(spec), spec))
        assert a == b


def _h2_as_h11(doc):
    """Relabel an H2(3,1,2) document as H11(3,1,2): same sizes and upper
    block, full diagonal blocks."""
    meta = doc["pair_spec"]["metadata"]
    assert meta["diagonal_kind"] == ["identity", "full", "identity"]
    meta["diagonal_kind"] = ["full", "full", "full"]
    return doc


class TestQuestionForm:
    @pytest.mark.parametrize("spec", [
        build_sl_block(TABLE2_PATTERNS["H11"](3, 1, 2)),
        build_product_in_sl((2, 1, 1)),
        build_product_in_sp((2, 1)),
        build_so_pair(2, 1, 1, 1),
        build_classical_in_sl("so", 3, 2),
        build_classical_in_sl("sp", 2),
        realify(build_product_in_sp((1, 1))),
        tensor_product_spec(2, 5, 1, 2),
    ], ids=["sl_block", "product_in_sl", "product_in_sp", "so_pair",
            "classical_so", "classical_sp", "realified", "tensor_product"])
    def test_builder_spec_is_written_as_its_metadata(self, spec):
        v = check(spec)
        doc = json.loads(serialize.dumps(serialize.verdict_to_json(v, spec)))
        assert doc["schema_version"] == serialize.SCHEMA_VERSION == 2
        assert doc["pair_spec"] == json.loads(serialize.dumps(
            {"metadata": spec.metadata}))
        assert serialize.recheck_document(doc) == []
        assert serialize.recheck_document(v1_document(v, spec)) == []
        back = serialize.read_input({"pair_spec": doc["pair_spec"]})
        assert back == spec and back.built

    def test_extracted_spec_keeps_its_modules(self):
        spec = extract_weights(matrix_input_for_block_pattern(
            BlockPattern((2, 1), ("full", "full"))))
        assert not spec.built
        doc = serialize.verdict_to_json(check(spec), spec)
        assert doc["pair_spec"] == serialize.pair_spec_to_json(spec)
        assert serialize.recheck_document(json.loads(serialize.dumps(doc))) == []

    def _h2(self):
        spec = build_sl_block(TABLE2_PATTERNS["H2"](3, 1, 2))
        v = check(spec)
        assert v.tempered and not check(
            build_sl_block(TABLE2_PATTERNS["H11"](3, 1, 2))).tempered
        return v, spec

    def test_relabelled_v1_document_reported(self):
        v, spec = self._h2()
        doc = v1_document(v, spec)
        assert serialize.recheck_document(doc) == []
        assert serialize.recheck_document(_h2_as_h11(doc)) == [
            "pair_spec.space: not the space pair_spec.metadata names",
            "pair_spec.h_module: not the module pair_spec.metadata names",
            "pair_spec.g_module: not the module pair_spec.metadata names",
            "certificate has no rays"]

    def test_relabelled_v2_document_reported(self):
        v, spec = self._h2()
        doc = json.loads(serialize.dumps(serialize.verdict_to_json(v, spec)))
        assert serialize.recheck_document(doc) == []
        # H2(3,1,2) lives on a 0-dimensional slice, so its certificate
        # lists no rays; H11(3,1,2)'s slice has dimension 3
        assert not doc["evidence"]["rays"]
        assert serialize.recheck_document(_h2_as_h11(doc)) == ["certificate has no rays"]

    @pytest.mark.parametrize("key, value, problem", [
        ("upper_blocks", [[0, 2], [0, 1]], "pair_spec.metadata: not the metadata"),
        ("realified", False, "pair_spec.metadata: not the metadata"),
        ("extra", 1, "pair_spec.metadata: not the metadata"),
    ])
    def test_metadata_must_be_the_builders(self, key, value, problem):
        v, spec = self._h2()
        doc = json.loads(serialize.dumps(serialize.verdict_to_json(v, spec)))
        doc["pair_spec"]["metadata"][key] = value
        assert any(p.startswith(problem) for p in serialize.recheck_document(doc))

    def test_carried_space_must_be_the_builders(self):
        v, spec = self._h2()
        doc = v1_document(v, spec)
        doc["pair_spec"]["space"]["constraints"].pop()
        assert ("pair_spec.space: not the space pair_spec.metadata names"
                in serialize.recheck_document(doc))

    @pytest.mark.parametrize("key, value, where", [
        ("sizes", [3, 1, QUESTION_CEILING + 1], r"pair_spec\.metadata\.sizes\[2\]"),
        ("sizes", [QUESTION_CEILING] * 2, r"pair_spec\.metadata: matrix size 128"),
        ("sizes", [3, 1.0, 2], r"pair_spec\.metadata\.sizes\[1\]: expected an integer"),
        ("sizes", "312", r"pair_spec\.metadata\.sizes: expected a list"),
        ("diagonal_kind", ["full", "full", "bogus"], r"pair_spec\.metadata: unknown"),
        ("upper_blocks", [[0, 1], [1, 2]], r"pair_spec\.metadata: upper blocks"),
        ("upper_blocks", [[0, 1.5]],
         r"pair_spec\.metadata\.upper_blocks\[0\]\[1\]: expected an integer"),
    ])
    def test_bad_question_is_a_located_schema_error(self, key, value, where):
        v, spec = self._h2()
        doc = json.loads(serialize.dumps(serialize.verdict_to_json(v, spec)))
        doc["pair_spec"]["metadata"][key] = value
        with pytest.raises(SchemaError, match=where):
            serialize.recheck_document(doc)

    def test_evidence_dimension_checked_before_the_build(self):
        # the question's ambient dimension, 3 + 1 + 1 = 5, is not the
        # witness's 6; nothing is built
        spec = build_sl_block(TABLE2_PATTERNS["H11"](3, 1, 2))
        doc = json.loads(serialize.dumps(serialize.verdict_to_json(check(spec), spec)))
        doc["pair_spec"]["metadata"]["sizes"] = [3, 1, 1]
        assert serialize.recheck_document(doc) == [
            "witness direction: point arity 6 does not match the ambient dimension 5"]
