"""Rules for the package source itself."""

import ast
from pathlib import Path

import polyprimelab


def test_no_assert_statements():
    # `python -O` strips assert statements, so a check in the package must raise
    paths = sorted(Path(polyprimelab.__file__).parent.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
