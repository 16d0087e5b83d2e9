"""Rules the package source keeps, read from its syntax trees: geometry makes
no LAPACK call (no numpy.linalg anywhere in the package) and runtime domain
checks raise errors instead of using assert statements."""

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
