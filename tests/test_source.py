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


def test_log_weights_come_from_numtheory():
    # every log weight is made by numtheory.ap_primes: no other module takes np.log
    paths = sorted(Path(polyprimelab.__file__).parent.glob("*.py"))
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        if path.name != "numtheory.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute)
        and node.attr == "log"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    ]
    assert found == []
