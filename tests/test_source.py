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
