import ast
import os
import subprocess
import sys
from pathlib import Path

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
