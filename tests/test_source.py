import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import temperkit


def test_no_assert_statements():
    # python -O strips assert statements, so no check may rely on one
    found = []
    for path in sorted(Path(temperkit.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_import_loads_no_numpy():
    # numpy and scipy serve only `volume`, which imports them when called;
    # the tests' grid_oracle lives outside the package
    src = str(Path(temperkit.__file__).parents[1])
    program = ("import sys, temperkit, temperkit.serialize, temperkit.cli\n"
               "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", program], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "[]"


def test_import_loads_no_dataclasses():
    # dataclasses loads inspect, ast, dis and tokenize, and each decorated
    # class compiles its methods at import; the records are plain classes
    src = str(Path(temperkit.__file__).parents[1])
    program = ("import sys\n"
               "bare = set(sys.modules)\n"
               "import temperkit, temperkit.serialize, temperkit.cli\n"
               "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - bare)))")
    out = subprocess.run([sys.executable, "-c", program], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "[]"


def test_cli_reads_no_question():
    # serialize is the one question reader; the command line parses
    # arguments and passes a spec file's object to serialize.read_input
    tree = ast.parse((Path(temperkit.__file__).parent / "cli.py").read_text())
    imported, named = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            named.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
    assert not any(module.split(".")[-1] == "generators" for module in imported)
    assert not named & {"generators", "tensor_product_spec", "extract_weights"}


# check and recheck one family question, then list every loaded temperkit
# module that holds a matrix-mode name, and whether matrix mode was loaded
MATRIX_GUARD = """
import contextlib, io, sys
import temperkit, temperkit.serialize, temperkit.cli
spec, doc = sys.argv[1:]
with open(doc, "w") as fh, contextlib.redirect_stdout(fh):
    codes = [temperkit.cli.main(["check", spec])]
with contextlib.redirect_stdout(io.StringIO()) as out:
    codes.append(temperkit.cli.main(["recheck", doc]))
names = {"MatrixPairInput", "extract_weights", "to_sparse"}
held = sorted(f"{name}.{key}" for name, module in list(sys.modules.items())
              if name.split(".")[0] == "temperkit" for key in vars(module) if key in names)
print(codes, out.getvalue().strip(), held, "temperkit.matrices" in sys.modules)
"""


def test_family_questions_load_no_matrix_mode(tmp_path):
    # matrix mode is one module, which only a matrix_pair question loads
    src = str(Path(temperkit.__file__).parents[1])
    spec = tmp_path / "s.json"
    spec.write_text('{"family": {"name": "sl_block", "pattern": "H2", "sizes": [3, 1]}}')
    out = subprocess.run([sys.executable, "-c", MATRIX_GUARD, str(spec),
                          str(tmp_path / "v.json")], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == '[0, 0] {"consistent":true,"problems":[]} [] False'


def test_matrix_pair_questions_decide_as_before(tmp_path):
    # the 2x2 sl(2) with h = span(E01), and the preset, as their documents read
    from temperkit.cli import main
    D, E01, E10 = [[1, 0], [0, -1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]]
    sl2 = {"ambient_dim": 2, "g_basis": [D, E01, E10], "h_basis": [E01],
           "torus_basis": [D], "diagonalizer": [[1, 0], [0, 1]]}
    found = []
    for question in (sl2, {"preset": "sp21"}):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"matrix_pair": question}))
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(["check", str(path)])
        doc = json.loads(out.getvalue())
        found.append((code, doc["tempered"], doc["evidence"], doc["deficit_summary"]))
    assert found == [
        (0, True, {"kind": "certificate", "ray_values": [0, 0], "rays": [[1], [-1]],
                   "symmetry_reduced": False},
         {"chambers": 1, "hyperplanes": 0, "rays": 2, "torus_dim": 1}),
        (0, False, {"direction": [1], "kind": "witness", "value": -2},
         {"hyperplanes": 1, "torus_dim": 1}),
    ]


# perfbench's set-up program (the import and the H1(1,1) verdict), then check
# and recheck one family question; list every loaded temperkit module that
# holds a name that temperkit.families defines, and whether it was loaded
FAMILY_GUARD = """
import contextlib, io, sys
import temperkit as tk
v = tk.check(tk.build_sl_block(tk.TABLE1_PATTERNS['H1'](1, 1)))
import temperkit.cli
spec, doc, *names = sys.argv[1:]
with open(doc, "w") as fh, contextlib.redirect_stdout(fh):
    codes = [temperkit.cli.main(["check", spec])]
with contextlib.redirect_stdout(io.StringIO()) as out:
    codes.append(temperkit.cli.main(["recheck", doc]))
held = sorted(f"{name}.{key}" for name, module in list(sys.modules.items())
              if name.split(".")[0] == "temperkit" for key in vars(module) if key in names)
print(v.tempered, codes, out.getvalue().strip(), held, "temperkit.families" in sys.modules)
"""


def test_verdicts_load_no_family_module(tmp_path):
    # the scans, predicates, tensor questions and defining-module builders
    # are one module, which the set-up verdict and a family question skip
    package = Path(temperkit.__file__).parent
    names = []
    for node in ast.parse((package / "families.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [target.id for target in node.targets]
        elif isinstance(node, ast.AnnAssign):
            names.append(node.target.id)
    assert {"FAMILIES", "tensor_question", "build_so_pair", "_module"} <= set(names)
    spec = tmp_path / "s.json"
    spec.write_text('{"family": {"name": "sl_block", "pattern": "H2", "sizes": [3, 1]}}')
    out = subprocess.run([sys.executable, "-c", FAMILY_GUARD, str(spec),
                          str(tmp_path / "v.json"), *names], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(package.parent))).stdout
    assert out.strip() == 'True [0, 0] {"consistent":true,"problems":[]} [] False'


@pytest.mark.parametrize("imports", [
    ["import temperkit.serialize", "import temperkit.cli", "import temperkit.families",
     "from temperkit.check import FAMILIES"],
    ["from temperkit.check import FAMILIES", "import temperkit.families",
     "import temperkit.cli", "import temperkit.serialize"],
])
def test_check_stays_the_verdict_function(imports):
    # the first import of a submodule binds it on the package, so
    # temperkit.check is the function only if the package loads the module
    src = str(Path(temperkit.__file__).parents[1])
    program = "\n".join([*imports, "import temperkit",
                         "print(temperkit.check.__module__, temperkit.check.__name__,"
                         " len(FAMILIES))"])
    out = subprocess.run([sys.executable, "-c", program], capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "temperkit.check check 6"


def test_dir_lists_every_public_name():
    # the package's __getattr__ serves some of them, which dir() would miss
    assert set(temperkit.__all__) <= set(dir(temperkit))


def _refuse(*args, **kwargs):
    raise AssertionError("a slow path was taken")


def test_build_sl_block_reduces_nothing(monkeypatch):
    # the block torus's rows are written reduced and each class's reduced
    # coordinate is written out, so neither row reduction nor _reduce runs
    from temperkit import generators, linalg, model
    for module in (linalg, model):
        monkeypatch.setattr(module, "rref", _refuse)
    monkeypatch.setattr(model.TorusSpace, "_reduce", _refuse)
    for pattern in (generators.TABLE1_PATTERNS["H2"](3, 2),
                    generators.TABLE2_PATTERNS["H4"](2, 1, 3),
                    generators.BlockPattern((2, 0, 3, 1), ("identity", "full", "full", "identity"),
                                            frozenset({(0, 3), (2, 3)}))):
        spec = generators.build_sl_block(pattern)
        assert spec.h_module.total_dim + spec.g_module.total_dim == pattern.n ** 2 - 1


def test_clean_recheck_makes_no_fractions_of_its_values(monkeypatch):
    # the replay compares each point's exact total and scale with the
    # recorded value; evaluate_at's Fractions serve problem lines only
    from temperkit import model, serialize
    from temperkit.check import check
    from temperkit.generators import TABLE1_PATTERNS, build_sl_block
    docs = []
    for p, q in ((2, 2), (4, 1)):
        spec = build_sl_block(TABLE1_PATTERNS["H4"](p, q))
        docs.append(json.loads(serialize.dumps(serialize.verdict_to_json(check(spec), spec))))
    assert {doc["evidence"]["kind"] for doc in docs} == {"certificate", "witness"}
    monkeypatch.setattr(model, "evaluate_at", _refuse)
    monkeypatch.setattr(serialize, "evaluate_at", _refuse, raising=False)
    for doc in docs:
        assert serialize.recheck_document(doc) == []


def test_decision_makes_no_second_canonical_pass(monkeypatch):
    # f's stored rows are zero at the pivots, so read at the free columns
    # they are already its canonical form on the slice: deciding, with the
    # chamber's walls, never canonicalizes terms again
    from temperkit import model, verify
    from temperkit.generators import (TABLE1_PATTERNS, TABLE2_PATTERNS, build_sl_block,
                                      matrix_input_for_block_pattern)
    from temperkit.matrices import extract_weights
    space = model.TorusSpace(3, [(2, 3, 0)])    # _scale 2
    roots = [((1, 0, -1), 1), ((-1, 0, 1), 1)]
    specs = [build_sl_block(TABLE2_PATTERNS["H10"](2, 1, 2)),
             extract_weights(matrix_input_for_block_pattern(TABLE1_PATTERNS["H4"](3, 2))),
             model.PairSpec(g_module=model.WeightModule(space, [((0, 1, -1), 2), ((0, -1, 1), 2)]),
                            h_module=model.WeightModule(space, roots),
                            v_module=model.WeightModule(space, roots))]
    fs = [model.deficit(spec) for spec in specs]
    want = [verify.is_nonnegative(f, spec) for f, spec in zip(fs, specs)]
    assert all(w.symmetry_reduced for w in want)
    monkeypatch.setattr(model, "_canonical_terms", _refuse)
    monkeypatch.setattr(verify, "_canonical_terms", _refuse, raising=False)
    assert [verify.is_nonnegative(f, spec) for f, spec in zip(fs, specs)] == want


# recheck documents with the package __init__ bypassed (a bare temperkit
# module whose __path__ is the package directory), then list which decision
# modules were loaded
RECHECK_GUARD = """
import json, sys, types
package = types.ModuleType("temperkit")
package.__path__ = [sys.argv[1]]
sys.modules["temperkit"] = package
import temperkit.serialize
problems = [temperkit.serialize.recheck_document(doc) for doc in json.load(sys.stdin)]
print(problems, sorted(m for m in ("temperkit.check", "temperkit.verify", "temperkit.cones")
                       if m in sys.modules))
"""


def test_recheck_loads_no_decision_module():
    # a document is replayed through evaluation only, so the decider's
    # modules stay unloaded whatever question the document names
    from temperkit import serialize
    from temperkit.check import check
    inputs = [
        {"family": {"name": "sl_block", "pattern": "H11", "sizes": [2, 1, 2]}},
        {"family": {"name": "product_in_sl", "parts": [2, 1]}},
        {"family": {"name": "product_in_sp", "parts": [2, 1]}},
        {"family": {"name": "so_pair", "signature": [2, 1, 1, 1]}},
        {"family": {"name": "classical_in_sl", "kind": "so", "params": [2, 1]}},
        {"family": {"name": "classical_in_sl", "kind": "sp", "params": [2]}},
        {"tensor_product": {"variant": 2, "params": [2, 1, 2]}},
        {"family": {"name": "product_in_sp", "parts": [2, 1], "realify": True}},
        {"pair_spec": {"space": {"ambient_dim": 3, "constraints": [["1", "1", "1"]]},
                       "h_module": {"weights": [{"form": ["1", "-1", "0"], "mult": 1},
                                                {"form": ["-1", "1", "0"], "mult": 1}]},
                       "g_module": {"weights": [{"form": ["1", "0", "-1"], "mult": 1},
                                                {"form": ["-1", "0", "1"], "mult": 1}]}}},
    ]
    docs = []
    for data in inputs:
        spec = serialize.read_input(data)
        docs.append(serialize.verdict_to_json(check(spec), spec))
    assert "h_module" in docs[-1]["pair_spec"]
    package = Path(temperkit.__file__).parent
    out = subprocess.run([sys.executable, "-c", RECHECK_GUARD, str(package)],
                         input=json.dumps(docs), capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH="")).stdout
    assert out.strip() == f"{[[]] * len(inputs)} []"


# recheck one document through the command line, with the package
# __init__ run as every real import runs it, then list which decision
# modules were loaded
CLI_RECHECK_GUARD = """
import contextlib, io, sys
import temperkit.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = temperkit.cli.main(["recheck", sys.argv[1]])
print(code, sorted(m for m in ("temperkit.check", "temperkit.verify", "temperkit.cones")
                   if m in sys.modules))
"""


@pytest.mark.xfail(strict=True, reason="ROADMAP item 20: the package __init__ and "
                   "cli import check, which imports verify and cones")
def test_cli_recheck_loads_no_decision_module(tmp_path):
    from temperkit import serialize
    from temperkit.check import check
    spec = serialize.read_input(
        {"family": {"name": "sl_block", "pattern": "H11", "sizes": [2, 1, 2]}})
    doc = tmp_path / "v.json"
    doc.write_text(serialize.dumps(serialize.verdict_to_json(check(spec), spec)))
    src = str(Path(temperkit.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", CLI_RECHECK_GUARD, str(doc)],
                         capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "0 []"


def test_block_recheck_builds_no_module(monkeypatch):
    # a block question written as its metadata alone is replayed on its
    # closed-form deficit (generators.block_deficit): no weight module is
    # built and model.deficit is never called
    from temperkit import model, serialize
    from temperkit.check import check
    docs = []
    for family in ({"name": "sl_block", "pattern": "H11", "sizes": [2, 1, 2]},
                   {"name": "sl_block", "pattern": "H2", "sizes": [3, 1]},
                   {"name": "product_in_sl", "parts": [2, 1, 1]},
                   {"name": "product_in_sl", "parts": [2, 1], "realify": True}):
        spec = serialize.read_input({"family": family})
        docs.append(json.loads(serialize.dumps(serialize.verdict_to_json(check(spec), spec))))
    assert all(doc["pair_spec"].keys() == {"metadata"} for doc in docs)
    assert {doc["evidence"]["kind"] for doc in docs} == {"certificate", "witness"}
    for module in (model, serialize):
        monkeypatch.setattr(module, "deficit", _refuse)
    monkeypatch.setattr(model.WeightModule, "_from_integers", _refuse)
    monkeypatch.setattr(model.WeightModule, "__init__", _refuse)
    for doc in docs:
        assert serialize.recheck_document(doc) == []


def test_family_recheck_builds_no_module_and_no_function(monkeypatch):
    # every family question and tensor product written as its metadata
    # alone is replayed on its raw closed form: no weight module is built
    # for any of them, and no PLFunction, so no canonical form
    from temperkit import model, serialize
    from temperkit.check import check
    docs = []
    for question in ({"name": "so_pair", "signature": [2, 1, 1, 2]},
                     {"name": "so_pair", "signature": [6, 0, 1, 2]},
                     {"name": "so_pair", "signature": [2, 1, 1, 1], "realify": True},
                     {"name": "product_in_sp", "parts": [2, 1, 1]},
                     {"name": "product_in_sp", "parts": [1, 1], "realify": True},
                     {"name": "classical_in_sl", "kind": "so", "params": [2, 1]},
                     {"name": "classical_in_sl", "kind": "sp", "params": [2]},
                     {"name": "sl_block", "pattern": "H11", "sizes": [2, 1, 2]},
                     {"name": "product_in_sl", "parts": [2, 1], "realify": True},
                     {"variant": 1, "params": [2, 3, 5]},
                     {"variant": 2, "params": [5, 1, 2]},
                     {"variant": 3, "params": [1, 3, 1]}):
        mode = "family" if "name" in question else "tensor_product"
        spec = serialize.read_input({mode: question})
        docs.append(json.loads(serialize.dumps(serialize.verdict_to_json(check(spec), spec))))
    assert all(doc["pair_spec"].keys() == {"metadata"} for doc in docs)
    assert {doc["evidence"]["kind"] for doc in docs[:7]} == {"certificate", "witness"}
    for module in (model, serialize):
        monkeypatch.setattr(module, "deficit", _refuse)
    monkeypatch.setattr(model.WeightModule, "_from_integers", _refuse)
    monkeypatch.setattr(model.WeightModule, "__init__", _refuse)
    monkeypatch.setattr(model.PLFunction, "_from_integers", _refuse)
    monkeypatch.setattr(model.PLFunction, "__new__", _refuse)
    monkeypatch.setattr(model, "_canonical_terms", _refuse)
    for doc in docs:
        assert serialize.recheck_document(doc) == []
