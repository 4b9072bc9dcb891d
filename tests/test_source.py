"""Rules for the package source itself."""

import ast
from pathlib import Path

import polyprimelab
from polyprimelab.polynomials import VARIANTS


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


def _owners(predicate) -> set[str]:
    """The top-level definitions of the package holding a node that
    `predicate` accepts, as "module:name" ("module:<module>" outside every
    definition)."""
    return {
        f"{path.stem}:{getattr(top, 'name', '<module>')}"
        for path in sorted(Path(polyprimelab.__file__).parent.glob("*.py"))
        for top in ast.parse(path.read_text(), str(path)).body
        for node in ast.walk(top)
        if predicate(node)
    }


def test_every_transform_is_counted():
    # the benchmark counts transforms by wrapping spectral.dft and
    # spectral.idft: numpy's FFT is reached only inside spectral._chirp_dft,
    # and only those two reach _chirp_dft
    def numpy_fft(node):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or "", *(alias.name for alias in node.names)]
            return any("fft" in name for name in names)
        return (isinstance(node, ast.Attribute) and node.attr == "fft"
                and getattr(node.value, "id", None) in ("np", "numpy"))

    assert _owners(numpy_fft) == {"spectral:_chirp_dft"}
    assert _owners(lambda node: getattr(node, "id", None) == "_chirp_dft"
                   or getattr(node, "attr", None) == "_chirp_dft") == {"spectral:dft", "spectral:idft"}


def test_coloring_domain_derived_in_coloring():
    # a coloring's domain elements are derived once, by coloring: no other
    # module scans a color table for them with np.flatnonzero or np.nonzero
    def domain_scan(node):
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("flatnonzero", "nonzero")
                and getattr(node.func.value, "id", None) in ("np", "numpy")
                and any(getattr(inner, "attr", None) == "color_at"
                        for arg in node.args for inner in ast.walk(arg)))

    assert {owner.split(":")[0] for owner in _owners(domain_scan)} <= {"coloring"}


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


def _variant_comparisons(path: Path) -> tuple[list[str], int]:
    """(where `path` compares a coloring variant outside its declaration
    `CHAIN_VARIANTS`, the number of such declarations): a comparand that is
    INTEGER_COLORING, PRIME_COLORING, a variant's name or an attribute
    `.variant`."""
    found, declarations = [], 0
    for node in ast.parse(path.read_text(), str(path)).body:
        targets = getattr(node, "targets", [getattr(node, "target", None)])
        if [getattr(t, "id", None) for t in targets] == ["CHAIN_VARIANTS"]:
            declarations += 1
            continue
        found += [
            f"{path.name}:{compare.lineno}"
            for compare in ast.walk(node)
            if isinstance(compare, ast.Compare)
            and any(
                getattr(side, "id", None) in ("INTEGER_COLORING", "PRIME_COLORING")
                or getattr(side, "attr", None) == "variant"
                or getattr(side, "value", None) in VARIANTS
                for side in (compare.left, *compare.comparators)
            )
        ]
    return found, declarations


def test_variants_compared_only_in_their_declaration():
    # each coloring variant's differences are declared once, in
    # counting.CHAIN_VARIANTS: no other code of counting or experiments
    # branches on the variant
    package = Path(polyprimelab.__file__).parent
    counting, counting_declared = _variant_comparisons(package / "counting.py")
    experiments, experiments_declared = _variant_comparisons(package / "experiments.py")
    assert (counting_declared, experiments_declared) == (1, 0)
    assert counting + experiments == []
