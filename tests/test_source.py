import ast
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
