"""Rules the package source keeps, read from its syntax trees: geometry makes
no LAPACK call (no numpy.linalg anywhere in the package), runtime domain
checks raise errors instead of using assert statements, and no module keeps a
private helper that nothing calls."""

import ast
from pathlib import Path

import leafwise

PACKAGE = Path(leafwise.__file__).parent


def _violations(tree: ast.AST) -> list:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            found.append((node.lineno, "assert statement"))
        elif isinstance(node, ast.Attribute) and node.attr == "linalg":
            found.append((node.lineno, "numpy.linalg attribute"))
        elif isinstance(node, ast.Import) and any(
                a.name.startswith("numpy.linalg") for a in node.names):
            found.append((node.lineno, "import numpy.linalg"))
        elif isinstance(node, ast.ImportFrom) and (
                (node.module or "").startswith("numpy.linalg")
                or node.module == "numpy" and any(a.name == "linalg" for a in node.names)):
            found.append((node.lineno, "import from numpy.linalg"))
    return found


def test_package_has_no_linalg_call_and_no_assert():
    bad = ("assert x > 0\nimport numpy.linalg\nfrom numpy import linalg\n"
           "from numpy.linalg import eigh\ny = np.linalg.inv(a)\n")
    assert [line for line, _ in _violations(ast.parse(bad))] == [1, 2, 3, 4, 5]
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    found = [f"{path.name}:{line}: {what}" for path in files
             for line, what in _violations(ast.parse(path.read_text(), str(path)))]
    assert not found, found


def _names_used(tree: ast.AST, skip: ast.AST | None = None) -> set:
    """Every name a tree reads, as a variable, an attribute or an import,
    outside the subtree ``skip``."""
    skipped = set() if skip is None else {id(node) for node in ast.walk(skip)}
    used = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def _dead_private_helpers(trees: dict) -> list:
    """Module-level private functions and classes that no module references
    outside their own definition."""
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")
                    and not any(node.name in _names_used(other, node if other is tree else None)
                                for other in trees.values())):
                dead.append(f"{module}: {node.name}")
    return dead


def test_package_has_no_dead_private_helper():
    bad = {"a": "def _used():\n    pass\n\n\ndef _dead():\n    return _dead()\n\n\n"
                "class _Gone:\n    pass\n",
           "b": "from a import _used\n"}
    assert _dead_private_helpers({k: ast.parse(v) for k, v in bad.items()}) == [
        "a: _dead", "a: _Gone"]
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    dead = _dead_private_helpers(trees)
    assert not dead, dead
