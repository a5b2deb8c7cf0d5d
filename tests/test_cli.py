import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import temperkit
from temperkit import serialize, volume
from temperkit.check import FAMILIES, check
from temperkit.cli import main
from temperkit.families import SCAN_SIZES
from temperkit.generators import (TABLE1_PATTERNS, TABLE2_PATTERNS, BlockPattern,
                                  build_sl_block, matrix_input_for_block_pattern)
from temperkit.matrices import extract_weights

from reference import dense


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
        assert doc["tempered"] is False
        assert doc["witness"]["kind"] == "witness"
        spec = write(tmp_path, "t.json", {
            "family": {"name": "sl_block", "pattern": "H1", "sizes": [2, 2]}})
        code, out, _ = run(capsys, ["check", spec, "--witness-only"])
        assert code == 0
        assert out == '{"tempered":true,"witness":null}\n'

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

    def test_symmetry_wall_vanishing_on_slice(self, tmp_path):
        # t1 = t2 = 0 on the slice, so the roots +-(t1 - t2) of h vanish
        # there and give no candidate; the roots +-t0 give the sign flip of
        # t0, whose wall t0 >= 0 leaves one ray of the line.  The declared
        # symmetry of an older document is ignored
        doc = {"space": {"ambient_dim": 3,
                         "constraints": [["0", "1", "0"], ["0", "0", "1"]]},
               "h_module": {"weights": [{"form": ["1", "0", "0"], "mult": 1},
                                        {"form": ["-1", "0", "0"], "mult": 1},
                                        {"form": ["0", "1", "-1"], "mult": 1},
                                        {"form": ["0", "-1", "1"], "mult": 1}]},
               "g_module": {"weights": [{"form": ["1", "0", "0"], "mult": 3},
                                        {"form": ["-1", "0", "0"], "mult": 3}]},
               "symmetry": [{"coords": [1, 2]}]}
        code, out, err = run_process(["check", write(tmp_path, "s.json",
                                                     {"pair_spec": doc})])
        assert code == 0, err
        got = json.loads(out)
        full = check(serialize.read_input({"pair_spec": doc}), use_symmetry=False)
        assert got["tempered"] is full.tempered is True
        assert got["evidence"]["symmetry_reduced"] is True
        assert got["evidence"]["rays"] == [[1, 0, 0]]
        assert len(full.evidence.rays) == 2
        assert serialize.recheck_document(got) == []


    def test_extra_module_on_a_scaled_torus(self, tmp_path, capsys):
        # the pivot entry 2 of 2x + 3y = 0 makes the stored rows carry the
        # factor _scale = 2.  The roots +-(1, 0, -1) of h outweigh g/h at
        # (3, -2, -2), where the deficit is -5, until V adds them twice
        def module(*forms, mult=1):
            return {"weights": [{"form": [str(x) for x in form], "mult": mult}
                                for form in forms]}

        doc = {"space": {"ambient_dim": 3, "constraints": [["2", "3", "0"]]},
               "h_module": module((1, 0, -1), (-1, 0, 1)),
               "g_module": module((0, 1, -1), (0, -1, 1), mult=2)}
        code, out, err = run(capsys, ["check", write(tmp_path, "s.json", {"pair_spec": doc})])
        assert code == 0, err
        assert json.loads(out)["evidence"] == {"kind": "witness", "direction": [3, -2, -2],
                                               "value": -5}
        doc["v_module"] = module((1, 0, -1), (-1, 0, 1))
        code, out, err = run(capsys, ["check", write(tmp_path, "v.json", {"pair_spec": doc})])
        assert code == 0, err
        verdict = json.loads(out)
        assert verdict["tempered"] is True
        assert verdict["evidence"]["symmetry_reduced"] is True
        assert verdict["evidence"]["ray_values"] == [10, 5, 10]
        code, out, _ = run(capsys, ["recheck", write(tmp_path, "d.json", verdict)])
        assert (code, json.loads(out)) == (0, {"consistent": True, "problems": []})
        # twice one weight of V: the recorded values no longer replay
        verdict["pair_spec"]["v_module"]["weights"][0]["mult"] = 2
        code, out, _ = run(capsys, ["recheck", write(tmp_path, "e.json", verdict)])
        report = json.loads(out)
        assert code == 1 and report["consistent"] is False
        assert any(p.startswith("ray ") for p in report["problems"])


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


def pair_spec(replace=()):
    """A pair_spec document; replace maps dotted keys such as
    "space.constraints" to new values."""
    doc = {
        "space": {"ambient_dim": 2},
        "h_module": {"weights": [{"form": ["1", "0"], "mult": 1},
                                 {"form": ["-1", "0"], "mult": 1}]},
        "g_module": {"weights": [{"form": ["0", "1"], "mult": 3},
                                 {"form": ["0", "-1"], "mult": 3}]}}
    for key, value in dict(replace).items():
        *path, last = key.split(".")
        node = doc
        for part in path:
            node = node[part]
        node[last] = value
    return {"pair_spec": doc}


def sl_block21(**fields) -> dict:
    """An sl_block family input with sizes [2, 1], full and identity, and
    the given fields."""
    return {"family": {"name": "sl_block", "sizes": [2, 1],
                       "diagonal_kind": ["full", "identity"], **fields}}


class TestSpecErrors:
    @pytest.mark.parametrize("payload, code, where", [
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
        (pair_spec({"h_module.weights": 3}), 2,
         "pair_spec.h_module.weights: expected a list"),
        (pair_spec({"space.constraints": 3}), 2,
         "pair_spec.space.constraints: expected a list"),
        (pair_spec({"metadata": 3}), 2, "pair_spec.metadata: expected an object"),
        (pair_spec({"space.ambient_dim": 2.9}), 2,
         "pair_spec.space.ambient_dim: expected an integer"),
        (pair_spec({"space.ambient_dim": "2"}), 2,
         "pair_spec.space.ambient_dim: expected an integer"),
        (pair_spec({"h_module.weights": [{"form": ["1", "0"], "mult": True}]}),
         2, "pair_spec.h_module.weights[0].mult: expected an integer"),
        (matrix_pair(ambient_dim=2.9), 2,
         "matrix_pair.ambient_dim: expected an integer"),
        (matrix_pair(ambient_dim="2"), 2,
         "matrix_pair.ambient_dim: expected an integer"),
        # diag(1, -1) three times spans a one-dimensional torus
        (matrix_pair(torus_basis=[[[1, 0], [0, -1]]] * 3), 2,
         "torus_basis: matrices are linearly dependent"),
        ({"tensor_product": {"variant": 1, "params": [0, 1, 3]}}, 2,
         "tensor_product.params"),
        ({"tensor_product": {"variant": 9, "params": [1, 1, 1]}}, 2,
         "tensor_product.variant"),
        ({"tensor_product": {"variant": 2, "params": [1, 1]}}, 2,
         "tensor_product.params"),
        ({"tensor_product": {"variant": 1.9, "params": [2, 2, 4]}}, 2,
         "tensor_product.variant"),
        ({"tensor_product": {"variant": True, "params": [2, 2, 4]}}, 2,
         "tensor_product.variant"),
        ({"tensor_product": {"variant": "1", "params": [2, 2, 4]}}, 2,
         "tensor_product.variant"),
        ({"tensor_product": {"params": [2, 2, 4]}}, 2, "tensor_product.variant"),
        ({"tensor_product": {"variant": 1, "params": "224"}}, 2,
         "tensor_product.params"),
        ({"tensor_product": {"variant": 1, "params": [2, 2.5, 4]}}, 2,
         "tensor_product.params"),
        ({"tensor_product": {"variant": 1, "params": [2, True, 4]}}, 2,
         "tensor_product.params"),
        ({"tensor_product": [1, [2, 2, 4]]}, 2,
         "tensor_product: expected an object"),
        # a tensor_product reads variant and params and refuses any other key
        ({"tensor_product": {"variant": 1, "params": [2, 2, 4], "realify": True}}, 2,
         "tensor_product.realify: not a tensor_product key"),
        ({"tensor_product": {"variant": 1, "prams": [2, 2, 4]}}, 2,
         "tensor_product.prams: not a tensor_product key"),
        # a JSON true is not the rational 1, nor "no" a boolean
        (pair_spec({"h_module.weights": [{"form": [True, "0"], "mult": 1}]}), 2,
         "pair_spec.h_module.weights[0].form[0]: expected a rational, got bool"),
        (pair_spec({"space.constraints": [[True, 1]]}), 2,
         "pair_spec.space.constraints[0][0]: expected a rational, got bool"),
        # a rational is ASCII -?[0-9]+(/[0-9]+)?, nothing int() also reads
        (pair_spec({"h_module.weights": [{"form": ["1_0", "0"], "mult": 1}]}), 2,
         "pair_spec.h_module.weights[0].form[0]: malformed rational '1_0'"),
        (pair_spec({"h_module.weights": [{"form": [" 3 ", "0"], "mult": 1}]}), 2,
         "pair_spec.h_module.weights[0].form[0]: malformed rational ' 3 '"),
        (pair_spec({"h_module.weights": [{"form": ["\u0663", "0"], "mult": 1}]}),
         2, "pair_spec.h_module.weights[0].form[0]: malformed rational"),
        (pair_spec({"h_module.weights": [{"form": ["+3", "0"], "mult": 1}]}), 2,
         "pair_spec.h_module.weights[0].form[0]: malformed rational '+3'"),
        (pair_spec({"space.constraints": [["3/-4", "1"]]}), 2,
         "pair_spec.space.constraints[0][0]: malformed rational '3/-4'"),
        # the pattern shorthand reads its name and sizes before applying it
        ({"family": {"name": "sl_block", "pattern": "H1", "sizes": [2, "x"]}}, 2,
         "family.sl_block.sizes"),
        ({"family": {"name": "sl_block", "pattern": "H1", "sizes": 5}}, 2,
         "family.sl_block.sizes"),
        ({"family": {"name": "sl_block", "pattern": ["H1"], "sizes": [2, 2]}}, 2,
         "family.sl_block.pattern"),
        ({"family": {"name": "sl_block", "pattern": "H1", "sizes": [2, 2, 2, 2]}},
         2, "family.sl_block.sizes"),
        ({"family": {"name": "sl_block", "pattern": "H1"}}, 2,
         "family.sl_block.sizes"),
        # an upper block is two integers and diagonal_kind a list of strings;
        # [[0, 1.5]] once dropped the block and answered another question
        (sl_block21(upper_blocks=[[0, 1.5]]), 2,
         "family.sl_block.upper_blocks[0][1]: expected an integer"),
        (sl_block21(upper_blocks=[[0, 1, 5]]), 2,
         "family.sl_block.upper_blocks[0]: expected a list of 2 integers"),
        (sl_block21(upper_blocks=5), 2,
         "family.sl_block.upper_blocks: expected a list"),
        (sl_block21(diagonal_kind="fi"), 2,
         "family.sl_block.diagonal_kind: expected a list of strings"),
        (sl_block21(realify="no"), 2,
         "family.sl_block.realify: expected true or false"),
        # a basis is a list of matrices, a matrix a list of rows, and the
        # metadata an object, not the pairs dict() also reads
        (matrix_pair(g_basis=5), 2, "matrix_pair.g_basis: expected a list"),
        (matrix_pair(g_basis=[5]), 2, "matrix_pair.g_basis[0]: expected a list"),
        (matrix_pair(diagonalizer=7), 2, "matrix_pair.diagonalizer: expected a list"),
        (matrix_pair(metadata=[["family", "x"]]), 2,
         "matrix_pair.metadata: expected an object"),
        ({"matrix_pair": {"preset": "sp22"}}, 2, "matrix_pair.preset"),
        # a family input is the metadata of its builder call, bound to the
        # builder's keys: a key the builder does not write, or one that name,
        # realify or the tensor_product mode stands for, is named, never dropped
        ({"family": {"name": "product_in_sp", "parts": [2, 1], "realified": True}}, 2,
         "family.product_in_sp.realified: not a family input key; use 'realify'"),
        ({"family": {"name": "product_in_sp", "parts": [2, 1], "realifyy": True}}, 2,
         "family.product_in_sp.realifyy: not a key of the metadata its builder writes"),
        ({"family": {"name": "product_in_sp", "parts": [2, 1], "family": "so_pair"}}, 2,
         "family.product_in_sp.family: not a family input key; use 'name'"),
        ({"family": {"name": "sl_block", "pattern": "H1", "sizes": [2, 1],
                     "question": "tensor_product"}}, 2,
         "family.sl_block.question: not a family input key; use 'tensor_product'"),
        # a shorthand never overrides a key it sets, nor drops its own value
        ({"family": {"name": "sl_block", "pattern": "H1", "sizes": [2, 1],
                     "diagonal_kind": ["identity", "identity"]}}, 2,
         "family.sl_block.diagonal_kind: not allowed with pattern"),
        ({"family": {"name": "sl_block", "pattern": "H1", "sizes": [2, 1],
                     "upper_blocks": []}}, 2,
         "family.sl_block.upper_blocks: not allowed with pattern"),
        ({"family": {"name": "classical_in_sl", "kind": "sp", "m": 2,
                     "params": [1, 5]}}, 2,
         "family.classical_in_sl.params: not allowed with m"),
        ({"family": {"name": "classical_in_sl", "kind": "so", "signature": [2, 2],
                     "params": [3, 1]}}, 2,
         "family.classical_in_sl.params: not allowed with signature"),
        ({"family": {"name": "classical_in_sl", "kind": "sp", "params": [1, 5]}}, 2,
         "family.classical_in_sl.params: expected a list of 1 integer"),
        ("family", 2, "spec file must contain exactly one of"),
        # each so_pair factor is so(p_i, q_i) with p_i + q_i >= 1: an empty
        # one leaves no pair, or h = g
        ({"family": {"name": "so_pair", "signature": [0, 0, 0, 0]}}, 2,
         "family.so_pair: need p1 + q1 >= 1 and p2 + q2 >= 1"),
        ({"family": {"name": "so_pair", "signature": [1, 0, 0, 0]}}, 2,
         "family.so_pair: need p1 + q1 >= 1 and p2 + q2 >= 1"),
        ({"family": {"name": "so_pair", "signature": [2, 1, 0, 0]}}, 2,
         "family.so_pair: need p1 + q1 >= 1 and p2 + q2 >= 1"),
        # an upper block's indices are checked as given: one out of range, or
        # reversed, once vanished with the empty block 1 and decided another
        # pattern with exit 0
        ({"family": {"name": "sl_block", "sizes": [2, 0, 1],
                     "diagonal_kind": ["full", "full", "identity"],
                     "upper_blocks": [[-1, 7]]}}, 2,
         "family.sl_block: bad upper block (-1,7)"),
        ({"family": {"name": "sl_block", "sizes": [2, 0, 1],
                     "diagonal_kind": ["full", "full", "identity"],
                     "upper_blocks": [[1, 0]]}}, 2,
         "family.sl_block: bad upper block (1,0)"),
        # a negative entry is named before the sum is tested: [-1, 3] sums
        # to 2 and was once refused as "need p + q >= 2"
        ({"family": {"name": "classical_in_sl", "kind": "so", "signature": [-1, 3]}}, 2,
         "family.classical_in_sl: signature entries must be nonnegative"),
        ({"family": {"name": "so_pair", "signature": [1, -1, 2, 1]}}, 2,
         "family.so_pair: signature entries must be nonnegative"),
        ({"family": {"name": "product_in_sl", "parts": [2, 0]}}, 2,
         "family.product_in_sl: factor sizes must be positive"),
        ({"family": {"name": "product_in_sp", "parts": [2, 0]}}, 2,
         "family.product_in_sp: factor sizes must be positive"),
        ({"family": {"name": "classical_in_sl", "kind": "sp", "m": 0}}, 2,
         "family.classical_in_sl: need m >= 1"),
        ({"family": {"name": "sl_block", "sizes": [2, 1], "diagonal_kind": ["full"]}}, 2,
         "family.sl_block: need one diagonal kind per block"),
    ], ids=["bogus_diagonal_kind", "one_part", "short_signature",
            "so_one_param", "family_not_object", "matrix_pair_not_object",
            "weights_not_list", "constraints_not_list",
            "metadata_not_object", "float_ambient_dim", "string_ambient_dim",
            "bool_mult", "matrix_float_ambient_dim",
            "matrix_string_ambient_dim", "dependent_torus", "tensor_k_zero",
            "tensor_unknown_variant", "tensor_two_params",
            "tensor_float_variant", "tensor_bool_variant",
            "tensor_string_variant", "tensor_no_variant",
            "tensor_string_params", "tensor_float_param", "tensor_bool_param",
            "tensor_not_object", "tensor_realify_key", "tensor_misspelt_params",
            "bool_form_entry", "bool_constraint_entry",
            "underscore_rational", "spaced_rational", "non_ascii_rational",
            "plus_rational", "negative_denominator", "pattern_string_size",
            "pattern_sizes_not_list", "pattern_not_string", "pattern_four_sizes",
            "pattern_no_sizes", "float_upper_block", "long_upper_block",
            "upper_blocks_not_list", "diagonal_kind_string", "string_realify",
            "basis_not_list", "matrix_not_list", "diagonalizer_not_list",
            "metadata_pairs", "unknown_preset", "realified_key", "misspelt_realify",
            "inner_family", "family_question", "pattern_and_diagonal_kind",
            "pattern_and_upper_blocks", "sp_params_and_m", "so_params_and_signature",
            "sp_two_params", "spec_file_not_object", "so_pair_empty",
            "so_pair_empty_second_factor", "so_pair_h_is_g",
            "upper_block_out_of_range_at_empty_block",
            "reversed_upper_block_at_empty_block", "so_in_sl_negative_entry",
            "so_pair_negative_entry", "product_in_sl_zero_part",
            "product_in_sp_zero_part", "sp_in_sl_zero_m", "short_diagonal_kind"])
    def test_exit_code_without_traceback(self, tmp_path, payload, code, where):
        spec = write(tmp_path, "s.json", payload)
        got, _, err = run_process(["check", spec])
        assert got == code, err
        assert where in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("payload, message", [
        (matrix_pair(ambient_dim="2"), "matrix_pair.ambient_dim: expected an integer"),
        ({"matrix_pair": {"preset": "sp22"}}, "matrix_pair.preset: unknown preset 'sp22'"),
        (matrix_pair(h_basis=[[[0, 1], 5]]), "matrix_pair.h_basis[0][1]: expected a list"),
        (matrix_pair(diagonalizer=[[1, 0], ["x", 1]]),
         "matrix_pair.diagonalizer[1][0]: malformed rational 'x'"),
        # a key that is not read is named: a misspelt basis once read as an
        # empty one, the preset once won over explicit matrices, and a
        # misspelt module once read as an empty h
        ({"matrix_pair": {"h_bases" if key == "h_basis" else key: value
                          for key, value in matrix_pair()["matrix_pair"].items()}},
         "matrix_pair.h_bases: not a matrix_pair key"),
        ({"matrix_pair": {"preset": "sp21", **matrix_pair()["matrix_pair"]}},
         "matrix_pair.ambient_dim: not allowed with preset, which sets it"),
        ({"pair_spec": {"h_modul" if key == "h_module" else key: value
                        for key, value in pair_spec()["pair_spec"].items()}},
         "pair_spec.h_modul: not a pair_spec key"),
    ], ids=["ambient_dim", "unknown_preset", "row_not_list", "diagonalizer_entry",
            "misspelt_basis", "preset_and_matrices", "misspelt_module"])
    def test_message_starts_with_the_field(self, tmp_path, capsys, payload, message):
        # the field's own message, not wrapped again in "matrix_pair: "
        code, _, err = run(capsys, ["check", write(tmp_path, "s.json", payload)])
        assert code == 2
        assert err.startswith(f"error: {message}\n"), err

    @pytest.mark.parametrize("symmetry", [
        [{"coords": [0, 1]}], [{"coords": [0, "x"]}], [{"coords": [0, 2]}], 5,
        [{"coords": [0], "signed": "no"}],
    ], ids=["undeclared_symmetry", "non_integer_coord", "coord_out_of_range",
            "symmetry_not_list", "string_signed"])
    def test_symmetry_key_ignored(self, tmp_path, capsys, symmetry):
        # the domain is derived from the weights, so a declared symmetry,
        # even a false or malformed one, changes nothing
        plain = pair_spec()
        declared = pair_spec({"symmetry": symmetry})
        code, out, err = run(capsys, ["check", write(tmp_path, "d.json", declared)])
        assert code == 0, err
        again = run(capsys, ["check", write(tmp_path, "p.json", plain)])
        assert (code, out) == again[:2]

    def test_document_pair_spec_refuses_an_unread_key(self, tmp_path, capsys):
        spec = serialize.read_input(pair_spec())
        doc = serialize.verdict_to_json(check(spec), spec)
        doc["pair_spec"]["g_modules"] = doc["pair_spec"].pop("g_module")
        code, out, err = run(capsys, ["recheck", write(tmp_path, "v.json", doc)])
        assert (code, out) == (2, "")
        assert err == "error: pair_spec.g_modules: not a pair_spec key\n"


class TestOversizedIntegers:
    """An integer of more digits than int() converts (4,300 by default) is
    an input error naming the file or the field, and so is a verdict that
    would hold one; each once raised a bare ValueError, a traceback and
    exit 1, the exit code of a mismatch."""

    DIGITS = "9" * 5000

    @pytest.mark.parametrize("command", ["check", "recheck"])
    def test_json_integer_literal(self, tmp_path, command):
        path = tmp_path / "s.json"
        path.write_text('{"family": {"name": "so_pair", "signature": ['
                        + self.DIGITS + ', 1, 1, 1]}}')
        code, out, err = run_process([command, str(path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: Exceeds the limit"), err

    @pytest.mark.parametrize("command, field", [
        ("check", "pair_spec.h_module.weights[0].form[0]"),
        ("recheck", "evidence.value"),
    ])
    def test_rational_string(self, tmp_path, command, field):
        payload = pair_spec({"h_module.weights": [{"form": [self.DIGITS, "0"], "mult": 1}]})
        if command == "recheck":
            spec = serialize.read_input(pair_spec())
            payload = serialize.verdict_to_json(check(spec), spec)
            payload["evidence"]["value"] = f"-1/{self.DIGITS}"
        code, out, err = run_process([command, write(tmp_path, "s.json", payload)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {field}: Exceeds the limit"), err

    SEVENS, THREES = "7" * 4000, "3" * 3999 + "1"

    def long_denominators(self, tmp_path, h, g):
        # the forms' 4,000-digit denominators read, but the deficit's values
        # have about 8,000 digits, which str() does not write
        return write(tmp_path, "s.json", pair_spec({
            "space.ambient_dim": 1,
            "h_module.weights": [{"form": [f"{sign}1/{h}"]} for sign in ("", "-")],
            "g_module.weights": [{"form": [f"{sign}1/{g}"]} for sign in ("", "-")]}))

    @pytest.mark.parametrize("h, g, flags", [
        (SEVENS, THREES, []),                   # tempered: the ray values
        (THREES, SEVENS, []),                   # not tempered: the witness value
        (THREES, SEVENS, ["--witness-only"]),
    ], ids=["certificate", "witness", "witness-only"])
    def test_verdict_too_long_to_write(self, tmp_path, h, g, flags):
        path = self.long_denominators(tmp_path, h, g)
        code, out, err = run_process(["check", *flags, path])
        assert (code, out) == (2, "")
        assert err == (f"error: {path}: the verdict holds a number of more than "
                       "4300 digits, too long to write\n")

    def test_witness_only_writes_a_tempered_verdict(self, tmp_path):
        path = self.long_denominators(tmp_path, self.SEVENS, self.THREES)
        code, out, err = run_process(["check", "--witness-only", path])
        assert (code, out, err) == (0, '{"tempered":true,"witness":null}\n', "")

    def test_recheck_names_the_length_of_a_value_too_long_to_write(self, tmp_path):
        # the 2,500-digit denominators read, but the deficit at each ray has
        # 7,500 digits: its problem line gives that count, where str() once
        # raised ValueError, a traceback and exit 1
        doc = pair_spec({
            "space.ambient_dim": 1,
            "h_module.weights": [{"form": [f"{sign}1/{'3' * 2499}1"]} for sign in ("", "-")],
            "g_module.weights": [{"form": [f"{sign}1/{'7' * 2500}"]} for sign in ("", "-")]})
        doc.update(schema_version=2, tempered=True, deficit_summary={},
                   evidence={"kind": "certificate", "rays": [["1"], ["-1"]],
                             "ray_values": [0, 0], "symmetry_reduced": False})
        code, out, err = run_process(["recheck", write(tmp_path, "v.json", doc)])
        assert (code, err) == (1, "")
        assert json.loads(out) == {"consistent": False, "problems": [
            f"ray {i}: recorded value 0, computed a rational of 7500 digits"
            for i in (0, 1)]}


def test_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "s.json"
    path.write_bytes(b'{"family": "\xff"}')
    code, out, err = run_process(["check", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: 'utf-8' codec can't decode"), err


@pytest.mark.parametrize("command", ["check", "recheck"])
def test_deeply_nested_file(tmp_path, command):
    # json.load recurses once per level, and its RecursionError was a traceback
    path = tmp_path / "s.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_process([command, str(path)])
    assert (code, out, err) == (2, "", f"error: {path}: nested too deeply to read\n")


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
           **{key: _matrices(dense(M, n) for M in getattr(inp, key))
              for key in ("g_basis", "h_basis", "torus_basis")},
           "diagonalizer": _matrices([dense(inp.diagonalizer, n)])[0]}
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


# ---------------------------------------------------------------------------
# the replay contract: every mutated verdict document ends in exit 0, 1 or 2

def _verdict_documents():
    """A valid verdict document per input mode: family (a certificate and a
    witness, and the witness in schema version 1), pair_spec (a witness)
    and matrix input (a certificate)."""
    specs = [build_sl_block(TABLE1_PATTERNS["H4"](2, 2)),
             build_sl_block(TABLE1_PATTERNS["H2"](3, 1)),
             serialize.read_input(pair_spec()),
             extract_weights(matrix_input_for_block_pattern(
                 BlockPattern((2, 1), ("full", "full"))))]
    docs = [json.loads(serialize.dumps(serialize.verdict_to_json(check(spec), spec)))
            for spec in specs]
    # the family witness as schema version 1 wrote it, its modules in full
    v1 = {**docs[1], "schema_version": 1,
          "pair_spec": {**serialize.pair_spec_to_json(specs[1]), "schema_version": 1}}
    return docs + [json.loads(serialize.dumps(v1))]


VERDICT_DOCUMENTS = _verdict_documents()
DROP = object()


def _leaves(node, path=()):
    """The path of every leaf: a scalar, or an empty list or object."""
    if isinstance(node, (dict, list)) and node:
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _leaves(child, path + (key,))
    else:
        yield path


leaf_values = st.one_of(junk, st.just(DROP), st.sampled_from(
    ["1_0", " 3 ", "+3", "3/-4", "\u0663", "1/0", "2/3", "-1", "0/5", "1/-0"]),
    st.integers(-10 ** 20, 10 ** 20), st.floats(allow_nan=False, width=16))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_every_mutated_verdict_document_rechecks_cleanly(data):
    doc = json.loads(json.dumps(data.draw(st.sampled_from(VERDICT_DOCUMENTS))))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_leaves(doc))))
        if not path:
            break
        *parents, last = path
        node = doc
        for key in parents:
            node = node[key]
        value = data.draw(leaf_values)
        if value is DROP:
            del node[last]
        else:
            node[last] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "v.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["recheck", path])
    assert code in (0, 1, 2)


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
        assert "table1 takes the range flags --pmax, --qmax, not --max" in err

    @pytest.mark.parametrize("argv, where", [
        (["table1", "--pmax", "-1"], "--pmax: must be at least 1"),
        (["table2", "--max", "0"], "--max: must be at least 1"),
        (["example52-sl", "--n", "1"],
         "example52-sl: the ranges {'n': 1} hold no points"),
    ], ids=["negative_pmax", "zero_max", "empty_range"])
    def test_empty_range_is_an_input_error(self, capsys, argv, where):
        code, out, err = run(capsys, ["scan", *argv])
        assert code == 2, out
        assert where in err and not out

    @pytest.mark.parametrize("argv, where", [
        (["table1", "--pmax", "70", "--qmax", "1"],
         "table1: --pmax 70, --qmax 1 reach matrix size 71, past the ceiling 64"),
        (["table1", "--pmax", "100000"], "--pmax 100000 reach matrix size 100006"),
        (["table2", "--max", "22"], "--max 22 reach matrix size 66"),
        (["example51", "--rank", "33"], "--rank 33 reach matrix size 66"),
        (["example51", "--total", "65", "--rank", "1"],
         "--total 65, --rank 1 reach matrix size 65"),
        (["example52-sl", "--n", "65"], "--n 65 reach matrix size 65"),
        (["example52-sp", "--n", "65"], "--n 65 reach matrix size 65"),
        (["example52-so", "--total", "65"], "--total 65 reach matrix size 65"),
    ])
    def test_range_past_the_ceiling_is_an_input_error(self, capsys, monkeypatch, argv, where):
        # refused before the scan builds any point
        def refuse(**ranges):
            raise AssertionError("a point was built")
        monkeypatch.setitem(FAMILIES, argv[0], refuse)
        code, out, err = run(capsys, ["scan", *argv])
        assert code == 2, out
        assert where in err and not out

    @pytest.mark.parametrize("family, ranges", [
        ("table1", {"pmax": 3, "qmax": 2}), ("table2", {"max": 2}),
        ("example51", {"total": 4, "rank": 3}), ("example51", {"total": 7, "rank": 2}),
        ("example52-sl", {"n": 5}), ("example52-sp", {"n": 4}), ("example52-so", {"total": 5}),
    ])
    def test_scan_size_is_the_largest_the_scan_reaches(self, family, ranges):
        # the size the ceiling is checked on is the largest of the matrix
        # sizes that the question readers find in the scan's specs
        size, scan = SCAN_SIZES[family], FAMILIES[family]
        metas = [json.loads(serialize.dumps(spec.metadata)) for _, spec, _ in scan(**ranges)]
        reached = max(serialize.BUILDERS[meta["family"]](meta, "")[0] for meta in metas)
        assert reached == size(**ranges)
        assert size.__defaults__ == scan.__defaults__
        assert (size.__code__.co_varnames[:size.__code__.co_argcount]
                == scan.__code__.co_varnames[:scan.__code__.co_argcount])


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

    @pytest.mark.parametrize("argv, where", [
        (["decay", "--matrix", "diag(1,-1)", "--body", "boxa"], "--body"),
        (["decay", "--matrix", "diag(1,x)"], "--matrix"),
        (["decay", "--matrix", "[[1, 2, 3]]"], "--matrix"),
        (["decay", "--matrix", "diag(1,-1)", "--samples", "0"], "--samples"),
        (["decay", "--matrix", "diag(1,-1)", "--points", "2"], "--points"),
        (["decay", "--matrix", "diag(1,-1)", "--tolerance", "-0.1"], "--tolerance"),
        (["decay", "--matrix", "diag(1,-1)", "--tolerance", "nan"], "--tolerance"),
        (["decay", "--matrix", "diag(1,-1)", "--tmin", "3", "--tmax", "3"], "--tmin"),
        (["decay", "--matrix", "diag(1,-1)", "--tmin", "nan"], "--tmin"),
        (["decay", "--matrix", "diag(1,-1)", "--tmax", "inf"], "--tmin and --tmax"),
        (["translate", "--dim", "0"], "--dim"),
        (["translate", "--dim", "1"], "--dim"),
        (["translate", "--samples", "0", "--trials", "1"], "--samples"),
    ], ids=["body_suffix", "diag_entry", "not_square", "zero_samples",
            "two_points", "negative_tolerance", "nan_tolerance", "equal_times",
            "nan_tmin", "infinite_tmax", "zero_dim",
            "one_dim", "translate_zero_samples"])
    def test_bad_flag_exits_two_naming_it(self, capsys, argv, where):
        code, out, err = run(capsys, ["volume", *argv])
        assert code == 2, err
        assert err.startswith(f"error: {where}") and not out

    def test_unwritable_data_exits_two_before_sampling(self, tmp_path, capsys,
                                                       monkeypatch):
        def sample(*args, **kwargs):
            raise AssertionError("sampled before --data was opened")

        monkeypatch.setattr(volume, "verify_lemma_2_8", sample)
        code, out, err = run(capsys, ["volume", "decay", "--matrix", "diag(1,-1)",
                                      "--data", str(tmp_path / "missing" / "x")])
        assert code == 2, err
        assert err.startswith("error: --data") and not out

    def test_data_file_holds_the_fit(self, tmp_path, capsys, monkeypatch):
        fit = volume.DecayFit(times=(1.0, 2.0), log_volumes=(-1.0, -2.0),
                              stderrs=(0.1, 0.1), fitted_slope=-1.0,
                              predicted_slope=-1.0, tolerance=0.1, passed=True)
        monkeypatch.setattr(volume, "verify_lemma_2_8", lambda *a, **k: fit)
        data = tmp_path / "fit.txt"
        code, _, err = run(capsys, ["volume", "decay", "--matrix", "diag(1,-1)",
                                    "--data", str(data)])
        assert code == 0, err
        assert data.read_text() == "1.0 -1.0\n2.0 -2.0\n"

    def test_translate(self, capsys):
        code, out, _ = run(capsys, ["volume", "translate", "--dim", "2",
                                    "--trials", "3", "--samples", "5000"])
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_without_numpy_exits_two_naming_the_extra(self):
        # numpy and scipy are the optional extra `volume`; without them
        # volume exits 2 and names the extra, not a traceback
        src = os.path.dirname(os.path.dirname(temperkit.__file__))
        program = ("import sys; sys.modules['numpy'] = None\n"
                   "from temperkit.cli import main\n"
                   "sys.exit(main(['volume', 'decay', '--matrix', 'diag(1,-1)']))")
        proc = subprocess.run([sys.executable, "-c", program], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: volume needs numpy and scipy")
        assert "temperkit[volume]" in proc.stderr and not proc.stdout


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

    @pytest.mark.parametrize("variant, params, tempered", [
        (1, [2, 2, 4], True), (2, [5, 1, 2], False), (3, [1, 3, 1], True)])
    def test_tensor_product_round_trip(self, tmp_path, capsys, variant, params,
                                       tempered):
        spec = write(tmp_path, "s.json", {
            "tensor_product": {"variant": variant, "params": params}})
        code, out, _ = run(capsys, ["check", spec])
        assert code == 0
        doc = json.loads(out)
        assert doc["tempered"] is tempered
        assert doc["pair_spec"]["metadata"]["variant"] == variant
        cert = write(tmp_path, "cert.json", doc)
        code, out, _ = run(capsys, ["recheck", cert])
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

    H4 = {"family": {"name": "sl_block", "pattern": "H4", "sizes": [2, 2]}}
    H2 = {"family": {"name": "sl_block", "pattern": "H2", "sizes": [3, 1]}}

    @pytest.mark.parametrize("inp, key, point, where", [
        (H4, "rays", ["1", "0", "0", "0", "0"], "ray 0: point arity"),
        (H4, "rays", ["1", "0", "0", "0"], "ray 0: point violates"),
        (H2, "direction", ["1", "0", "0"], "witness direction: point arity"),
        (H2, "direction", ["1", "0", "0", "0"], "witness direction: point violates"),
        ({"family": {"name": "so_pair", "signature": [1, 1, 1, 1]}}, "rays",
         ["1", "0", "0", "0"], "ray 0: point arity 4 does not match the ambient "
                               "dimension 2"),
        ({"family": {"name": "classical_in_sl", "kind": "so", "params": [2, 2]}},
         "rays", ["1", "0", "0", "0"], "ray 0: point arity 4 does not match the "
                                       "ambient dimension 2"),
        ({"family": {"name": "classical_in_sl", "kind": "sp", "params": [2]}},
         "direction", ["1", "0", "0", "0"], "witness direction: point arity 4 does "
                                            "not match the ambient dimension 2"),
        ({"tensor_product": {"variant": 1, "params": [2, 2, 4]}}, "rays",
         ["1", "0"], "ray 0: point arity 2 does not match the ambient dimension 4"),
    ], ids=["ray_length", "ray_off_slice", "witness_length", "witness_off_slice",
            "so_pair_ray_length", "so_in_sl_ray_length", "sp_in_sl_witness_length",
            "tensor_ray_length"])
    def test_bad_point_is_a_located_problem(self, tmp_path, capsys, inp,
                                            key, point, where):
        # H4(2, 2) is tempered and H2(3, 1) is not; both live on the
        # trace-zero slice of a 4-dimensional ambient space.  so(1,1) x so(1,1)
        # in so(2,2), so(2,2) in sl(4) and sp(2) in sl(4) have a torus of rank
        # 2, not the matrix size 4; the tensor question's sl(4) has 4
        # coordinates on a slice of dimension 2
        spec = write(tmp_path, "s.json", inp)
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

    def test_unbuildable_metadata_before_evidence_length(self, tmp_path, capsys):
        # so(1, 0) poses no question, and a direction cannot be measured
        # against a spec that is never built: the metadata is the input error
        doc = {"schema_version": 2, "tempered": False, "deficit_summary": {},
               "evidence": {"kind": "witness", "direction": [1, 0], "value": -1},
               "pair_spec": {"metadata": {"family": "classical_in_sl", "kind": "so",
                                          "signature": [1, 0]}}}
        code, out, err = run(capsys, ["recheck", write(tmp_path, "v.json", doc)])
        assert code == 2 and not out
        assert err == "error: pair_spec.metadata: need p + q >= 2\n"


class TestAmbientCeiling:
    # empty modules on a free space of dimension n give a certificate of
    # the 2n +- basis rays of length n, so n is held to QUESTION_CEILING
    @pytest.mark.parametrize("dim", [65, 10 ** 9])
    def test_past_the_ceiling_is_refused_at_once(self, tmp_path, capsys, dim):
        path = write(tmp_path, "s.json", {"pair_spec": {"space": {"ambient_dim": dim}}})
        start = time.perf_counter()
        code, out, err = run(capsys, ["check", path])
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert "pair_spec.space.ambient_dim" in err

    def test_at_the_ceiling_decides_and_rechecks(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", {"pair_spec": {"space": {"ambient_dim": 64}}})
        code, out, _ = run(capsys, ["check", path])
        doc = json.loads(out)
        assert code == 0 and doc["tempered"] is True
        assert len(doc["evidence"]["rays"]) == 128
        code, out, _ = run(capsys, ["recheck", write(tmp_path, "v.json", doc)])
        assert code == 0 and json.loads(out)["consistent"] is True

    def test_matrix_torus_past_the_ceiling_is_refused(self, tmp_path, capsys):
        # the torus basis gives the space its ambient dimension, so check
        # writes no document that recheck would refuse
        path = write(tmp_path, "s.json", matrix_pair(torus_basis=[[[1, 0], [0, -1]]] * 65))
        code, out, err = run(capsys, ["check", path])
        assert code == 2 and out == ""
        assert "matrix_pair.torus_basis: more than 64 elements" in err

    @pytest.mark.parametrize("dim", [65, 10 ** 9])
    def test_recheck_refuses_a_document_past_the_ceiling(self, tmp_path, capsys, dim):
        path = write(tmp_path, "s.json", {"pair_spec": {"space": {"ambient_dim": 2}}})
        doc = json.loads(run(capsys, ["check", path])[1])
        doc["pair_spec"]["space"]["ambient_dim"] = dim
        start = time.perf_counter()
        code, _, err = run(capsys, ["recheck", write(tmp_path, "v.json", doc)])
        assert time.perf_counter() - start < 1
        assert code == 2
        assert "pair_spec.space.ambient_dim" in err


class TestQuestionBinding:
    def _check(self, tmp_path, capsys, payload):
        code, out, err = run(capsys, ["check", write(tmp_path, "s.json", payload)])
        assert code == 0, err
        return json.loads(out)

    def test_family_document_is_its_metadata(self, tmp_path, capsys):
        doc = self._check(tmp_path, capsys, {"family": {
            "name": "sl_block", "pattern": "H11", "sizes": [3, 1, 2]}})
        assert doc["schema_version"] == 2
        assert doc["pair_spec"] == {"metadata": {
            "family": "sl_block", "sizes": [3, 1, 2],
            "diagonal_kind": ["full", "full", "full"], "upper_blocks": [[0, 2]]}}

    def test_pair_spec_input_naming_a_builder(self, tmp_path, capsys):
        # the question alone, or with its space and modules, as a document
        # carries it: both are rebuilt and give the input's document, byte
        # for byte, whichever input mode named the builder call
        for payload in (
                {"family": {"name": "product_in_sp", "parts": [2, 1], "realify": True}},
                {"tensor_product": {"variant": 2, "params": [5, 1, 2]}},
                {"family": {"name": "classical_in_sl", "kind": "so", "params": [2, 1],
                            "realify": True}}):
            code, out, err = run(capsys, ["check", write(tmp_path, "s.json", payload)])
            assert code == 0, err
            pair = json.loads(out)["pair_spec"]
            spec = serialize.read_input({"pair_spec": pair})
            assert spec == serialize.read_input(payload)
            for given in (pair, serialize.pair_spec_to_json(spec)):
                again = run(capsys, ["check", write(tmp_path, "p.json",
                                                    {"pair_spec": given})])
                assert again == (0, out, ""), given

    @pytest.mark.parametrize("command", ["check", "recheck"])
    def test_rejected_tensor_question_names_the_metadata(self, tmp_path, capsys,
                                                         command):
        # k = n poses no question; the error names the field the file has,
        # not the tensor_product.params of a tensor_product input
        payload = {"pair_spec": {"metadata": {
            "question": "tensor_product", "variant": 1, "k": 3, "l": 1, "n": 3}}}
        if command == "recheck":
            payload = {**self._check(tmp_path, capsys, {"tensor_product": {
                "variant": 1, "params": [2, 2, 4]}}), **payload}
        code, out, err = run(capsys, [command, write(tmp_path, "v.json", payload)])
        assert code == 2 and not out
        assert err == "error: pair_spec.metadata: need 0 < k, l < n\n"

    def test_mislabelled_pair_spec_input_exits_two(self, tmp_path, capsys):
        pair = serialize.pair_spec_to_json(build_sl_block(TABLE2_PATTERNS["H2"](3, 1, 2)))
        pair["metadata"]["diagonal_kind"] = ["full", "full", "full"]
        code, out, err = run(capsys, ["check", write(tmp_path, "s.json",
                                                     {"pair_spec": pair})])
        assert code == 2 and not out
        assert err.startswith("error: pair_spec.space: not the space "
                              "pair_spec.metadata names")

    def test_matrix_input_keeps_its_weights(self, tmp_path, capsys):
        doc = self._check(tmp_path, capsys, matrix_pair(metadata={"family": "mine"}))
        assert set(doc["pair_spec"]) == {"schema_version", "space", "h_module",
                                         "g_module", "metadata"}
        named = matrix_pair(metadata={
            "family": "sl_block", "sizes": [1, 1],
            "diagonal_kind": ["identity", "identity"], "upper_blocks": [[0, 1]]})
        code, out, err = run(capsys, ["check", write(tmp_path, "m.json", named)])
        assert code == 2 and not out
        assert err.startswith("error: matrix_pair.space: not the space "
                              "matrix_pair.metadata names")

    @pytest.mark.parametrize("pattern, sizes, huge", [
        ("H11", [3, 1, 2], [10 ** 20, 1, 1]),
        ("H4", [2, 2], [1, 10 ** 20]),
    ], ids=["witness", "rayless_certificate"])
    def test_huge_question_is_refused_at_once(self, tmp_path, capsys, pattern,
                                              sizes, huge):
        doc = self._check(tmp_path, capsys, {"family": {
            "name": "sl_block", "pattern": pattern, "sizes": sizes}})
        if doc["tempered"]:
            doc["evidence"]["rays"] = doc["evidence"]["ray_values"] = []
        doc["pair_spec"]["metadata"]["sizes"] = huge
        path = write(tmp_path, "v.json", doc)
        start = time.perf_counter()
        code, _, err = run(capsys, ["recheck", path])
        assert time.perf_counter() - start < 1
        assert code in (1, 2)
        assert "pair_spec.metadata.sizes" in err
