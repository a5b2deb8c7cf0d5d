import json
import os
import subprocess
import sys

import pytest

import temperkit
from temperkit.check import FAMILIES
from temperkit.cli import main


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

    def test_dominant_chamber_flag(self, tmp_path, capsys):
        spec = write(tmp_path, "s.json", {
            "family": {"name": "sl_block", "pattern": "H4", "sizes": [3, 3]}})
        code_full, out_full, _ = run(capsys, ["check", spec])
        code_red, out_red, _ = run(capsys, ["check", spec, "--dominant-chamber"])
        assert code_full == code_red == 0
        full, red = json.loads(out_full), json.loads(out_red)
        assert full["tempered"] == red["tempered"]
        assert (red["deficit_summary"]["chambers"]
                < full["deficit_summary"]["chambers"])

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
    ], ids=["undeclared_symmetry", "non_integer_coord", "coord_out_of_range",
            "bogus_diagonal_kind", "one_part", "short_signature",
            "so_one_param", "family_not_object", "matrix_pair_not_object",
            "symmetry_not_list", "weights_not_list", "constraints_not_list",
            "metadata_not_object", "labels_not_list"])
    def test_exit_code_without_traceback(self, tmp_path, payload, code, where):
        spec = write(tmp_path, "s.json", payload)
        got, _, err = run_process(["check", spec, "--dominant-chamber"])
        assert got == code, err
        assert where in err
        assert "Traceback" not in err


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

    @pytest.mark.parametrize("key", ["rays", "ray_values", "chambers"])
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
