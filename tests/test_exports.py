"""Every name the package exports has a caller in the program (``src/`` or
``bench/``), not only in the tests: the names are read from the package
``__init__`` and the references from the syntax trees, without importing."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stableheat"

#: exported names kept without a caller, with the reason
KEPT_WITHOUT_CALLER = {
    "fat_witness": "the kappa-fat sweep (ROADMAP item 4) decides whether it stays",
}


def _exported() -> set:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for a in node.names}


def _referenced() -> set:
    """Names read as a bare name or an attribute anywhere in ``src/`` or
    ``bench/`` outside the package ``__init__``, except inside the top-level
    definition of the same name (a recursive call is not a caller)."""
    refs = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "bench").glob("*.py")]:
        if path == PACKAGE / "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            own = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if isinstance(node, (ast.Name, ast.Attribute)) and name != own:
                    refs.add(name)
    return refs


def test_every_exported_name_has_a_caller_outside_the_tests():
    exported, referenced = _exported(), _referenced()
    assert exported - referenced - set(KEPT_WITHOUT_CALLER) == set()
    # an entry that gained a caller, or is no longer exported, leaves the list
    assert set(KEPT_WITHOUT_CALLER) <= exported - referenced
