import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import temperkit
from temperkit.check import FAMILIES
from temperkit.cli import main
from temperkit.generators import BlockPattern, matrix_input_for_block_pattern


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(argv):
    """Run the CLI in a child process, so a traceback would reach stderr."""
    src = os.path.dirname(os.path.dirname(temperkit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "temperkit.cli", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def matrix_pair(**overrides):
    D = [[1, 0], [0, -1]]
    E01 = [[0, 1], [0, 0]]
    E10 = [[0, 0], [1, 0]]
    doc = {"ambient_dim": 2, "g_basis": [D, E01, E10], "h_basis": [E01],
           "torus_basis": [D], "diagonalizer": [[1, 0], [0, 1]]}
    doc.update(overrides)
    return {"matrix_pair": doc}


class TestCheck:
    def test_tempered_pair(self, tmp_path, capsys):
        spec = write(tmp_path, "s.json", {
            "family": {"name": "sl_block", "pattern": "H1", "sizes": [2, 3]}})
        code, out, _ = run(capsys, ["check", spec])
        doc = json.loads(out)
        assert code == 0
        assert doc["tempered"] is True
        assert doc["evidence"]["kind"] == "certificate"

    def test_not_tempered_exit_still_zero(self, tmp_path, capsys):
        spec = write(tmp_path, "s.json", {
            "family": {"name": "sl_block", "pattern": "H2", "sizes": [3, 1]}})
        code, out, _ = run(capsys, ["check", spec])
        assert code == 0
        assert json.loads(out)["tempered"] is False

    def test_witness_only(self, tmp_path, capsys):
        spec = write(tmp_path, "s.json", {
            "family": {"name": "sl_block", "pattern": "H2", "sizes": [3, 1]}})
        code, out, _ = run(capsys, ["check", spec, "--witness-only"])
        doc = json.loads(out)
        assert code == 0
        assert doc["witness"]["kind"] == "witness"

    def test_tensor_mode(self, tmp_path, capsys):
        spec = write(tmp_path, "s.json", {
            "tensor_product": {"variant": 1, "params": [2, 2, 4]}})
        code, out, _ = run(capsys, ["check", spec])
        assert code == 0
        assert json.loads(out)["tempered"] is True

    def test_matrix_preset(self, tmp_path, capsys):
        spec = write(tmp_path, "s.json", {"matrix_pair": {"preset": "sp21"}})
        code, out, _ = run(capsys, ["check", spec])
        assert code == 0
        assert json.loads(out)["tempered"] is False

    def test_pair_spec_mode(self, tmp_path, capsys):
        spec = write(tmp_path, "s.json", {"pair_spec": {
            "space": {"ambient_dim": 1},
            "h_module": {"weights": [{"form": ["2"], "mult": 1},
                                     {"form": ["-2"], "mult": 1}]},
            "g_module": {"weights": [{"form": ["1"], "mult": 3},
                                     {"form": ["-1"], "mult": 3}]}}})
        code, out, _ = run(capsys, ["check", spec])
        assert code == 0
        assert json.loads(out)["tempered"] is True


class TestInputErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["check", "/nonexistent.json"])
        assert code == 2
        assert "error" in err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, ["check", str(path)])
        assert code == 2

    def test_unknown_family(self, tmp_path, capsys):
        spec = write(tmp_path, "s.json", {"family": {"name": "nonsense"}})
        code, _, err = run(capsys, ["check", spec])
        assert code == 2

    def test_two_modes(self, tmp_path, capsys):
        spec = write(tmp_path, "s.json", {
            "family": {"name": "product_in_sl", "parts": [1, 1]},
            "tensor_product": {"variant": 1, "params": [1, 1, 2]}})
        code, _, err = run(capsys, ["check", spec])
        assert code == 2

    def test_malformed_rational_position(self, tmp_path, capsys):
        spec = write(tmp_path, "s.json", {"pair_spec": {
            "space": {"ambient_dim": 1},
            "h_module": {"weights": [{"form": ["1/0"], "mult": 1}]},
            "g_module": {"weights": []}}})
        code, _, err = run(capsys, ["check", spec])
        assert code == 2
        assert "form[0]" in err

    def test_domain_error_exit(self, tmp_path, capsys):
        # upper blocks that are not bracket-closed
        spec = write(tmp_path, "s.json", {"family": {
            "name": "sl_block", "sizes": [1, 1, 1],
            "diagonal_kind": ["full", "full", "full"],
            "upper_blocks": [[0, 1], [1, 2]]}})
        code, _, err = run(capsys, ["check", spec])
        assert code == 3


class TestMatrixInputErrors:
    def test_valid_matrix_pair(self, tmp_path):
        code, out, err = run_process(["check", write(tmp_path, "s.json",
                                                     matrix_pair())])
        assert code == 0, err
        assert "tempered" in json.loads(out)

    def test_dependent_g_basis(self, tmp_path):
        spec = write(tmp_path, "s.json", matrix_pair(
            g_basis=[[[1, 0], [0, -1]], [[0, 1], [0, 0]], [[0, 2], [0, 0]]]))
        code, _, err = run_process(["check", spec])
        assert code == 2
        assert "g_basis" in err
        assert "Traceback" not in err

    def test_singular_diagonalizer(self, tmp_path):
        spec = write(tmp_path, "s.json", matrix_pair(
            diagonalizer=[[1, 1], [1, 1]]))
        code, _, err = run_process(["check", spec])
        assert code == 2
        assert "diagonalizer" in err
        assert "Traceback" not in err

    def test_h_outside_g(self, tmp_path):
        spec = write(tmp_path, "s.json", matrix_pair(
            g_basis=[[[1, 0], [0, -1]], [[0, 1], [0, 0]]],
            h_basis=[[[0, 0], [1, 0]]]))
        code, _, err = run_process(["check", spec])
        assert code == 3
        assert "h_basis" in err
        assert "Traceback" not in err


def pair_spec(symmetry, replace=()):
    """A pair_spec document; replace maps dotted keys such as
    "space.constraints" to new values."""
    doc = {
        "space": {"ambient_dim": 2},
        "h_module": {"weights": [{"form": ["1", "0"], "mult": 1},
                                 {"form": ["-1", "0"], "mult": 1}]},
        "g_module": {"weights": [{"form": ["0", "1"], "mult": 3},
                                 {"form": ["0", "-1"], "mult": 3}]},
        "symmetry": symmetry}
    for key, value in dict(replace).items():
        *path, last = key.split(".")
        node = doc
        for part in path:
            node = node[part]
        node[last] = value
    return {"pair_spec": doc}


class TestSpecErrors:
    @pytest.mark.parametrize("payload, code, where", [
        # the data is not symmetric in the two coordinates
        (pair_spec([{"coords": [0, 1]}]), 3, "symmetry[0] (coords [0, 1])"),
        (pair_spec([{"coords": [0, "x"]}]), 2, "pair_spec.symmetry[0].coords"),
        (pair_spec([{"coords": [0, 2]}]), 2, "pair_spec.symmetry[0].coords"),
        ({"family": {"name": "sl_block", "sizes": [2, 1],
                     "diagonal_kind": ["full", "bogus"]}}, 2, "family.sl_block"),
        ({"family": {"name": "product_in_sl", "parts": [3]}}, 2,
         "family.product_in_sl"),
        ({"family": {"name": "so_pair", "signature": [1, 2]}}, 2,
         "family.so_pair"),
        ({"family": {"name": "classical_in_sl", "kind": "so", "params": [3]}}, 2,
         "family.classical_in_sl"),
        ({"family": [1]}, 2, "family: expected an object"),
        ({"matrix_pair": [1]}, 2, "matrix_pair: expected an object"),
        (pair_spec(5), 2, "pair_spec.symmetry: expected a list"),
        (pair_spec([], {"h_module.weights": 3}), 2,
         "pair_spec.h_module.weights: expected a list"),
        (pair_spec([], {"space.constraints": 3}), 2,
         "pair_spec.space.constraints: expected a list"),
        (pair_spec([], {"metadata": 3}), 2, "pair_spec.metadata: expected an object"),
        (pair_spec([], {"space.coordinate_labels": 7}), 2,
         "pair_spec.space.coordinate_labels: expected a list"),
        ({"tensor_product": {"variant": 1, "params": [0, 1, 3]}}, 2,
         "tensor_product.params"),
        ({"tensor_product": {"variant": 9, "params": [1, 1, 1]}}, 2,
         "tensor_product.variant"),
        ({"tensor_product": {"variant": 2, "params": [1, 1]}}, 2,
         "tensor_product.params"),
    ], ids=["undeclared_symmetry", "non_integer_coord", "coord_out_of_range",
            "bogus_diagonal_kind", "one_part", "short_signature",
            "so_one_param", "family_not_object", "matrix_pair_not_object",
            "symmetry_not_list", "weights_not_list", "constraints_not_list",
            "metadata_not_object", "labels_not_list", "tensor_k_zero",
            "tensor_unknown_variant", "tensor_two_params"])
    def test_exit_code_without_traceback(self, tmp_path, payload, code, where):
        spec = write(tmp_path, "s.json", payload)
        got, _, err = run_process(["check", spec])
        assert got == code, err
        assert where in err
        assert "Traceback" not in err


# ---------------------------------------------------------------------------
# the input contract: every spec document ends in exit 0, 2 or 3

# any small JSON value, standing in for a field of the wrong type
junk = st.one_of(st.none(), st.booleans(), st.integers(-2, 3),
                 st.sampled_from(["", "x", "1/0", "full"]),
                 st.lists(st.integers(-1, 2), max_size=2),
                 st.dictionaries(st.sampled_from(["a", "name"]),
                                 st.integers(-1, 2), max_size=1))


def maybe(strategy):
    """Mostly a well-typed value, one time in sixteen junk."""
    return st.integers(1, 16).flatmap(lambda i: junk if i == 16 else strategy)


def sizes(min_len, max_len):
    """Block sizes or parts, now and then zero or negative."""
    return st.lists(st.sampled_from([1, 2, 3, 1, 2, 3, 0, -1]),
                    min_size=min_len, max_size=max_len)


@st.composite
def custom_blocks(draw):
    blocks = draw(sizes(1, 3))
    pairs = [[i, j] for i in range(len(blocks)) for j in range(i + 1, len(blocks))]
    return {"sizes": blocks,
            "diagonal_kind": draw(maybe(st.lists(
                st.sampled_from(["full", "full", "identity", "x"]),
                min_size=len(blocks), max_size=len(blocks)))),
            "upper_blocks": draw(maybe(st.lists(st.sampled_from(pairs or [[0, 1]]),
                                                max_size=2, unique_by=tuple)))}


family_docs = st.tuples(
    st.one_of(
        st.fixed_dictionaries({"name": st.just("sl_block"),
                               "pattern": maybe(st.sampled_from(
                                   ["H1", "H4", "H10", "H12", "H13"])),
                               "sizes": maybe(sizes(2, 3))}),
        custom_blocks().map(lambda d: {"name": "sl_block", **d}),
        st.fixed_dictionaries({"name": st.sampled_from(["product_in_sl",
                                                        "product_in_sp"]),
                               "parts": maybe(sizes(1, 3))}),
        st.fixed_dictionaries({"name": st.just("so_pair"),
                               "signature": maybe(st.lists(
                                   st.sampled_from([1, 2, 0, -1]),
                                   min_size=4, max_size=4))}),
        st.fixed_dictionaries({"name": st.just("classical_in_sl"),
                               "kind": maybe(st.sampled_from(["so", "sp", "x"])),
                               "params": maybe(sizes(1, 2))}),
        st.fixed_dictionaries({"name": junk})),
    st.booleans()).map(lambda t: {"family": {**t[0], "realify": t[1]}})

tensor_docs = st.fixed_dictionaries({
    "variant": maybe(st.sampled_from([1, 2, 3, 9])),
    "params": maybe(st.lists(st.sampled_from([1, 2, 3, 4, 0]),
                             min_size=3, max_size=3))}).map(
        lambda d: {"tensor_product": d})

rationals = st.one_of(st.integers(-2, 2), st.sampled_from(["1/2", "-3/2", "0"]))


@st.composite
def pair_spec_docs(draw):
    dim = draw(st.integers(0, 3))
    form = st.lists(rationals, min_size=dim, max_size=dim)
    weights = st.lists(st.fixed_dictionaries(
        {"form": maybe(form), "mult": maybe(st.integers(1, 3))}),
        max_size=4)
    module = st.fixed_dictionaries({"weights": maybe(weights)})
    block = st.fixed_dictionaries(
        {"coords": maybe(st.lists(st.integers(0, dim), max_size=3, unique=True)),
         "signed": st.booleans()})
    doc = draw(st.fixed_dictionaries(
        {"space": maybe(st.fixed_dictionaries(
            {"ambient_dim": maybe(st.just(dim)),
             "constraints": maybe(st.lists(form, max_size=1))})),
         "h_module": maybe(module), "g_module": maybe(module)},
        optional={"v_module": maybe(module),
                  "symmetry": maybe(st.lists(block, max_size=2))}))
    return {"pair_spec": doc}


def _matrices(mats):
    return [[[str(x) for x in row] for row in M] for M in mats]


@st.composite
def matrix_pair_docs(draw):
    """The sp21 preset, or the matrices of a block pattern with at most three
    coordinates, perhaps with one basis or the diagonalizer replaced."""
    if draw(st.integers(0, 5)) == 0:
        return {"matrix_pair": {"preset": "sp21"}}
    blocks = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(
        lambda b: sum(b) <= 3))
    kinds = draw(st.lists(st.sampled_from(["full", "identity"]),
                          min_size=len(blocks), max_size=len(blocks)))
    inp = matrix_input_for_block_pattern(BlockPattern(tuple(blocks), tuple(kinds)))
    n = inp.ambient_dim
    doc = {"ambient_dim": n,
           "g_basis": _matrices(inp.g_basis), "h_basis": _matrices(inp.h_basis),
           "torus_basis": _matrices(inp.torus_basis),
           "diagonalizer": _matrices([inp.diagonalizer])[0]}
    matrix = st.lists(st.lists(st.integers(-1, 1), min_size=n, max_size=n),
                      min_size=n, max_size=n)
    key = draw(st.sampled_from([None, None, "ambient_dim", "diagonalizer",
                                "g_basis", "h_basis", "torus_basis"]))
    if key == "ambient_dim":
        doc[key] = draw(maybe(st.integers(1, 3)))
    elif key == "diagonalizer":
        doc[key] = draw(maybe(matrix))
    elif key is not None:
        doc[key] = draw(maybe(st.lists(matrix, max_size=3)))
    return {"matrix_pair": doc}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(family_docs, tensor_docs, pair_spec_docs(), matrix_pair_docs()))
def test_every_spec_document_exits_cleanly(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["check", path])
    assert code in (0, 2, 3)


class TestScan:
    def test_clean_scan(self, capsys):
        code, out, _ = run(capsys, ["scan", "table1", "--pmax", "2",
                                    "--qmax", "2"])
        assert code == 0
        table, payload = out.rsplit("\n", 2)[0], out.strip().splitlines()[-1]
        assert "mismatches: 0" in table
        assert json.loads(payload)["mismatches"] == []

    def test_mismatching_scan_exit_one(self, capsys, monkeypatch):
        # a real family whose predicate is inverted at one point
        real = FAMILIES["example52-sp"]

        def flipped(**ranges):
            for params, spec, predicted in real(**ranges):
                yield params, spec, predicted != (params == ((1, 1),))

        monkeypatch.setitem(FAMILIES, "example52-sp", flipped)
        code, out, _ = run(capsys, ["scan", "example52-sp", "--n", "3"])
        assert code == 1
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["mismatches"] == [[[1, 1]]]

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, ["scan", "bogus"])
        assert code == 2

    def test_bad_range_flag(self, capsys):
        code, _, err = run(capsys, ["scan", "table1", "--max", "2"])
        assert code == 2


class TestVolume:
    def test_decay_pass(self, capsys):
        code, out, _ = run(capsys, ["volume", "decay", "--matrix",
                                    "diag(1,-1)", "--body", "box2",
                                    "--samples", "50000", "--points", "8",
                                    "--tmax", "5"])
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert abs(doc["fitted_slope"] + 1.0) <= doc["tolerance"]

    def test_decay_non_split_exit(self, capsys):
        code, _, err = run(capsys, ["volume", "decay", "--matrix",
                                    "[[0,1],[-1,0]]", "--samples", "2000",
                                    "--points", "4"])
        assert code == 3

    def test_bad_matrix_syntax(self, capsys):
        code, _, err = run(capsys, ["volume", "decay", "--matrix", "spiral(2)"])
        assert code == 2

    def test_dimension_mismatch(self, capsys):
        code, _, err = run(capsys, ["volume", "decay", "--matrix",
                                    "diag(1,-1)", "--body", "box3"])
        assert code == 2

    def test_translate(self, capsys):
        code, out, _ = run(capsys, ["volume", "translate", "--dim", "2",
                                    "--trials", "3", "--samples", "5000"])
        assert code == 0
        assert json.loads(out)["passed"] is True


class TestRecheck:
    def test_round_trip(self, tmp_path, capsys):
        spec = write(tmp_path, "s.json", {
            "family": {"name": "sl_block", "pattern": "H4", "sizes": [2, 2]}})
        code, out, _ = run(capsys, ["check", spec])
        assert code == 0
        cert = tmp_path / "cert.json"
        cert.write_text(out)
        code, out, _ = run(capsys, ["recheck", str(cert)])
        assert code == 0
        assert json.loads(out)["consistent"] is True

    @pytest.mark.parametrize("key", ["rays", "ray_values"])
    def test_malformed_evidence_exit_code(self, tmp_path, capsys, key):
        spec = write(tmp_path, "s.json", {
            "family": {"name": "sl_block", "pattern": "H4", "sizes": [2, 2]}})
        _, out, _ = run(capsys, ["check", spec])
        doc = json.loads(out)
        doc["evidence"][key] = 3
        cert = write(tmp_path, "cert.json", doc)
        code, _, err = run_process(["recheck", cert])
        assert code == 2, err
        assert f"evidence.{key}: expected a list" in err
        assert "Traceback" not in err

    def test_mutation_detected(self, tmp_path, capsys):
        spec = write(tmp_path, "s.json", {
            "family": {"name": "sl_block", "pattern": "H4", "sizes": [2, 2]}})
        _, out, _ = run(capsys, ["check", spec])
        doc = json.loads(out)
        doc["evidence"]["ray_values"][0] = "99"
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(doc))
        code, out, _ = run(capsys, ["recheck", str(cert)])
        assert code == 1
        assert json.loads(out)["consistent"] is False

    @pytest.mark.parametrize("pattern, key, point, where", [
        ("H4", "rays", ["1", "0", "0", "0", "0"], "ray 0: point arity"),
        ("H4", "rays", ["1", "0", "0", "0"], "ray 0: point violates"),
        ("H2", "direction", ["1", "0", "0"], "witness direction: point arity"),
        ("H2", "direction", ["1", "0", "0", "0"], "witness direction: point violates"),
    ], ids=["ray_length", "ray_off_slice", "witness_length", "witness_off_slice"])
    def test_bad_point_is_a_located_problem(self, tmp_path, capsys, pattern,
                                            key, point, where):
        # H4(2, 2) is tempered and H2(3, 1) is not; both live on the
        # trace-zero slice of a 4-dimensional ambient space
        sizes = [2, 2] if pattern == "H4" else [3, 1]
        spec = write(tmp_path, "s.json", {
            "family": {"name": "sl_block", "pattern": pattern, "sizes": sizes}})
        _, out, _ = run(capsys, ["check", spec])
        doc = json.loads(out)
        if key == "rays":
            doc["evidence"]["rays"][0] = point
        else:
            doc["evidence"]["direction"] = point
        cert = write(tmp_path, "cert.json", doc)
        code, out, _ = run(capsys, ["recheck", cert])
        assert code == 1
        report = json.loads(out)
        assert report["consistent"] is False
        assert any(p.startswith(where) for p in report["problems"])
