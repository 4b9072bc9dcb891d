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


def _scan(node, scope, defs, used):
    """Each definition under `node`, as its qualified name, into `defs`, and
    each name an `ast.Name` or `ast.Attribute` reads into `used`, unless a
    definition of that name encloses the read."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.append(".".join((*scope, child.name)))
            _scan(child, (*scope, child.name), defs, used)
            continue
        name = {ast.Name: "id", ast.Attribute: "attr"}.get(type(child))
        if name and getattr(child, name) not in scope:
            used.add(getattr(child, name))
        _scan(child, scope, defs, used)


def test_every_definition_is_referenced():
    # code that only tests reach is not the package's: each function, method
    # and class it defines is referenced by the package outside its own
    # definition, or named here with its reason.  The language calls dunders.
    allowed = {
        "save_coloring",  # the only writer of the coloring format that `search` reads
        "_Parser.error",  # argparse calls it on a usage error
    }
    defs, used = [], set()
    for path in sorted(Path(polyprimelab.__file__).parent.glob("*.py")):
        _scan(ast.parse(path.read_text(), str(path)), (), defs, used)
    assert allowed <= set(defs)
    unreferenced = []
    for name in defs:
        last = name.rsplit(".", 1)[-1]
        dunder = last.startswith("__") and last.endswith("__")
        if last not in used and not dunder and name not in allowed:
            unreferenced.append(name)
    assert unreferenced == []
