"""Rules the package source keeps, read from its syntax trees: geometry makes
no LAPACK call (no numpy.linalg anywhere in the package), runtime domain
checks raise errors instead of using assert statements, no module keeps a
private helper that nothing calls, sympy's lambdify is reached only through
``suppliers.numpy_kernel``, so every kernel is compiled without a docstring
from the source that its build's Taylor tape printed, no NumPyPrinter is
constructed anywhere in the package, so no kernel source is printed from a
sympy expression, grid quadrature weights are read only by
``FoliatedPatch.integrate``, so every grid integral runs through it, and no
module imports a scipy quadrature routine or reads quadrature weights
outside ``Grid.weights`` and the two integrators, so every integral along a
profile runs through ``RevolutionProfile.integrate`` and the rest have
closed forms, and only ``functionals._lower`` reads Q_r and its partials, so
the conformal density Q_r^{n/r} has one definition, and sympy's diff is
called only by ``suppliers._partial``, the tape's function rule, so the only
symbolic derivatives are the partials of the functions that the tape
composes, and only ``FoliatedPatch.geometry_from_jets`` builds a
``PointGeometry`` and nothing keys a memo on the bytes of an array, so
every geometry has its patch's orientation and leaf dimension, and
itertools' permutations is named only in ``AnalyticSupplier.__init__``, so
the jet slots of a kernel are enumerated once per build, not per call, and
only ``FoliatedPatch.block_size`` reads the block constant ``BLOCK_ENTRIES``,
so no other code bakes in a block's point count, and no function body holds
a class statement, so every field is one ``operators.Field`` and no call
defines a class of its own, and no einsum call takes more than four
operands, because numpy's unoptimised einsum loops over every index of
all its operands at once, and np.moveaxis is named only in
``AnalyticSupplier.jets``, ``normal_jets`` and ``christoffel_bracket``, so
every jet keeps the one derivative-first layout and no code re-lays one out
to suit a product rule."""

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


def _lambdify_uses(tree: ast.AST, allowed: str | None) -> list:
    """Lines that name lambdify (call, attribute, import or alias) outside the
    module-level function ``allowed``."""
    inside = {id(node) for fn in tree.body
              if isinstance(fn, ast.FunctionDef) and fn.name == allowed
              for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if (isinstance(node, ast.Attribute) and node.attr == "lambdify"
                or isinstance(node, ast.Name) and node.id == "lambdify"
                or isinstance(node, ast.alias) and "lambdify" in node.name
                or isinstance(node, ast.ImportFrom) and "lambdify" in (node.module or "")):
            found.append(node.lineno)
    return sorted(set(found))


def test_lambdify_only_inside_numpy_kernel():
    bad = ("import sympy as sp\nfrom sympy import lambdify\n"
           "from sympy.utilities.lambdify import lambdastr\n\n\n"
           "def numpy_kernel(args, expr):\n    return sp.lambdify(args, expr)\n\n\n"
           "def other(args, expr):\n    return sp.lambdify(args, expr)\n\n\n"
           "make = sp.lambdify\n")
    assert _lambdify_uses(ast.parse(bad), "numpy_kernel") == [2, 3, 11, 14]
    assert _lambdify_uses(ast.parse(bad), None) == [2, 3, 7, 11, 14]
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             for line in _lambdify_uses(ast.parse(path.read_text(), str(path)),
                                        "numpy_kernel" if path.name == "suppliers.py" else None)]
    assert not found, found


def _numpy_printer_calls(tree: ast.AST) -> list:
    """Lines that construct a NumPyPrinter (``NumPyPrinter(...)`` by name or
    attribute)."""
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Call)
                   and (isinstance(node.func, ast.Name) and node.func.id == "NumPyPrinter"
                        or isinstance(node.func, ast.Attribute)
                        and node.func.attr == "NumPyPrinter")})


def test_no_numpy_printer_in_the_package():
    bad = ("import sympy.printing.numpy as spn\nfrom sympy.printing.numpy import NumPyPrinter\n"
           "\n\nclass KernelPrinter(NumPyPrinter):\n    def fresh(self):\n"
           "        return NumPyPrinter(SETTINGS)\n\n\n"
           "def numpy_kernel(args, expr):\n"
           "    return sp.lambdify(args, expr, printer=NumPyPrinter(SETTINGS))\n\n\n"
           "PRINTER = spn.NumPyPrinter()\n")
    assert _numpy_printer_calls(ast.parse(bad)) == [7, 11, 14]
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             for line in _numpy_printer_calls(ast.parse(path.read_text(), str(path)))]
    assert not found, found


def _inside_methods(tree: ast.AST, allowed: set) -> set:
    """The ids of the nodes inside the methods and module-level functions
    ``allowed``, named "Class.method" or "function"."""
    defs = [(fn.name, fn) for fn in tree.body if isinstance(fn, ast.FunctionDef)]
    defs += [(f"{cls.name}.{fn.name}", fn) for cls in tree.body if isinstance(cls, ast.ClassDef)
             for fn in cls.body if isinstance(fn, ast.FunctionDef)]
    return {id(node) for name, fn in defs if name in allowed for node in ast.walk(fn)}


def _weight_reads(tree: ast.AST, allowed: set, grid_only: bool = False) -> list:
    """Lines that read ``<expr>.weights`` (only ``<expr>.grid.weights`` if
    ``grid_only``) outside the methods ``allowed``, named "Class.method"."""
    inside = _inside_methods(tree, allowed)
    return sorted({node.lineno for node in ast.walk(tree)
                   if id(node) not in inside and isinstance(node, ast.Attribute)
                   and node.attr == "weights"
                   and (not grid_only or isinstance(node.value, ast.Attribute)
                        and node.value.attr == "grid")})


def test_grid_weights_read_only_inside_patch_integrate():
    bad = ("class FoliatedPatch:\n    def integrate(self, fn):\n        return self.grid.weights\n"
           "\n    def other(self):\n        return self.grid.weights\n\n\n"
           "def total(patch):\n    return np.sum(patch.grid.weights)\n")
    assert _weight_reads(ast.parse(bad), {"FoliatedPatch.integrate"}, grid_only=True) == [6, 10]
    assert _weight_reads(ast.parse(bad), set(), grid_only=True) == [3, 6, 10]
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             for line in _weight_reads(
                 ast.parse(path.read_text(), str(path)),
                 {"FoliatedPatch.integrate"} if path.name == "patch.py" else set(),
                 grid_only=True)]
    assert not found, found


#: scipy.integrate's quadrature routines, past and present
QUAD_ROUTINES = {"quad", "quad_vec", "dblquad", "tplquad", "nquad", "fixed_quad",
                 "quadrature", "romberg", "qmc_quad"}

#: the methods that may read quadrature weights, by module
WEIGHT_READERS = {"patch.py": {"Grid.weights", "FoliatedPatch.integrate"},
                  "revolution.py": {"RevolutionProfile.integrate"}}


def _quad_uses(tree: ast.AST) -> list:
    """Lines that import or name a scipy quadrature routine."""
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.alias)
                   and node.name.rsplit(".", 1)[-1] in QUAD_ROUTINES
                   or isinstance(node, ast.Attribute) and node.attr in QUAD_ROUTINES})


def test_no_quad_and_weights_read_only_by_the_integrators():
    bad = ("from scipy.integrate import quad, solve_ivp\nimport scipy.integrate\n\n\n"
           "class RevolutionProfile:\n    def integrate(self, fn):\n"
           "        return axis.weights\n\n\n"
           "def norm(j):\n    axis = gauss_axis(0.0, pi, 200)\n"
           "    return scipy.integrate.fixed_quad(f, 0, 1)[0] + np.sum(axis.weights)\n")
    tree = ast.parse(bad)
    assert _quad_uses(tree) == [1, 12]
    assert _weight_reads(tree, WEIGHT_READERS["revolution.py"]) == [12]
    assert _weight_reads(tree, set()) == [7, 12]
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             for tree in [ast.parse(path.read_text(), str(path))]
             for line in _quad_uses(tree) + _weight_reads(
                 tree, WEIGHT_READERS.get(path.name, set()))]
    assert not found, found


#: the symfunc kernels of Q_r, which only ``functionals._lower`` may read
Q_R_KERNELS = {"q_r_from_sigma"}


def _q_r_reads(tree: ast.AST, allowed: str | None) -> list:
    """Lines that read a Q_r kernel (a call, or a name or attribute that could
    be called later) outside the module-level function ``allowed``; imports
    and definitions are not reads."""
    inside = {id(node) for fn in tree.body
              if isinstance(fn, ast.FunctionDef) and fn.name == allowed
              for node in ast.walk(fn)}
    return sorted({node.lineno for node in ast.walk(tree) if id(node) not in inside
                   and (isinstance(node, ast.Name) and node.id in Q_R_KERNELS
                        or isinstance(node, ast.Attribute) and node.attr in Q_R_KERNELS)})


def test_q_r_read_only_inside_lower():
    bad = ("from .symfunc import q_r_from_sigma\n\n\n"
           "def _lower(q, r, s):\n    return q_r_from_sigma(q, r, s)\n\n\n"
           "def density(q, r, s):\n    return abs(q_r_from_sigma(q, r, s))\n\n\n"
           "kernel = symfunc.q_r_from_sigma\n")
    assert _q_r_reads(ast.parse(bad), "_lower") == [9, 12]
    assert _q_r_reads(ast.parse(bad), None) == [5, 9, 12]
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             for line in _q_r_reads(ast.parse(path.read_text(), str(path)),
                                    "_lower" if path.name == "functionals.py" else None)]
    assert not found, found


def _sympy_diff_uses(tree: ast.AST, allowed: str | None) -> list:
    """Lines that name sympy's diff (``<name>.diff`` on any name but numpy's,
    or ``diff`` imported from sympy) outside the module-level function
    ``allowed``."""
    inside = {id(node) for fn in tree.body
              if isinstance(fn, ast.FunctionDef) and fn.name == allowed
              for node in ast.walk(fn)}
    return sorted({node.lineno for node in ast.walk(tree) if id(node) not in inside
                   and (isinstance(node, ast.Attribute) and node.attr == "diff"
                        and not (isinstance(node.value, ast.Name)
                                 and node.value.id in ("np", "numpy"))
                        or isinstance(node, ast.ImportFrom)
                        and (node.module or "").split(".")[0] == "sympy"
                        and any(a.name == "diff" for a in node.names))})


def test_sympy_diff_only_inside_the_function_rule():
    bad = ("import numpy as np\nimport sympy\nimport sympy as sp\nfrom sympy import diff\n\n\n"
           "def _partial(head, beta):\n    return sp.diff(head, *beta)\n\n\n"
           "def table(expr, x, nodes):\n    a = sympy.diff(expr, x)\n    b = expr.diff(x)\n"
           "    return a, b, np.diff(nodes), numpy.diff(nodes)\n")
    assert _sympy_diff_uses(ast.parse(bad), "_partial") == [4, 12, 13]
    assert _sympy_diff_uses(ast.parse(bad), None) == [4, 8, 12, 13]
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             for line in _sympy_diff_uses(ast.parse(path.read_text(), str(path)),
                                          "_partial" if path.name == "suppliers.py" else None)]
    assert not found, found


def _geometry_builds(tree: ast.AST, allowed: set) -> list:
    """Lines that call ``PointGeometry`` (by name or attribute) outside the
    methods ``allowed``, named "Class.method", or call ``<expr>.tobytes``
    anywhere."""
    inside = _inside_methods(tree, allowed)
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if (name == "PointGeometry" and id(node) not in inside
                or name == "tobytes" and isinstance(func, ast.Attribute)):
            found.add(node.lineno)
    return sorted(found)


def test_point_geometry_built_only_by_the_patch():
    bad = ("from .patch import PointGeometry\nimport leafwise.patch as pt\n\n\n"
           "class FoliatedPatch:\n    def geometry_from_jets(self, x, jets):\n"
           "        return PointGeometry(x, jets, *normal_jets(jets), s=self.s)\n\n"
           "    def other(self, x, jets):\n"
           "        return PointGeometry(x, jets, *normal_jets(jets), s=x.shape[1])\n\n\n"
           "def base_part(x, jets, memo):\n"
           "    memo[x.tobytes()] = pt.PointGeometry(x, jets, *normal_jets(jets), s=1)\n"
           "    return memo, x.tobytes\n")
    allowed = {"FoliatedPatch.geometry_from_jets"}
    assert _geometry_builds(ast.parse(bad), allowed) == [10, 14]
    assert _geometry_builds(ast.parse(bad), set()) == [7, 10, 14]
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             for line in _geometry_builds(ast.parse(path.read_text(), str(path)),
                                          allowed if path.name == "patch.py" else set())]
    assert not found, found


def _permutations_uses(tree: ast.AST, allowed: set) -> list:
    """Lines that name ``permutations`` (call, attribute or import) outside
    the methods ``allowed``, named "Class.method"."""
    inside = _inside_methods(tree, allowed)
    return sorted({node.lineno for node in ast.walk(tree)
                   if id(node) not in inside
                   and (isinstance(node, ast.Attribute) and node.attr == "permutations"
                        or isinstance(node, ast.Name) and node.id == "permutations"
                        or isinstance(node, ast.alias) and node.name == "permutations")})


def test_permutations_only_in_the_analytic_build():
    bad = ("import itertools\nfrom itertools import permutations\n\n\n"
           "class AnalyticSupplier:\n    def __init__(self, idx):\n"
           "        self.slots = set(itertools.permutations(idx))\n\n"
           "    def jets(self, idx):\n        return set(itertools.permutations(idx))\n\n\n"
           "def fill(idx):\n    return list(permutations(idx))\n")
    allowed = {"AnalyticSupplier.__init__"}
    assert _permutations_uses(ast.parse(bad), allowed) == [2, 10, 14]
    assert _permutations_uses(ast.parse(bad), set()) == [2, 7, 10, 14]
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             for line in _permutations_uses(ast.parse(path.read_text(), str(path)),
                                            allowed if path.name == "suppliers.py" else set())]
    assert not found, found


def _block_constant_reads(tree: ast.AST, allowed: set) -> list:
    """Lines that read ``BLOCK_ENTRIES`` (a name, an attribute or an import)
    outside the methods ``allowed``, named "Class.method"; its assignment is
    not a read."""
    inside = _inside_methods(tree, allowed)
    return sorted({node.lineno for node in ast.walk(tree) if id(node) not in inside
                   and (isinstance(node, ast.Name) and node.id == "BLOCK_ENTRIES"
                        and not isinstance(node.ctx, ast.Store)
                        or isinstance(node, ast.Attribute) and node.attr == "BLOCK_ENTRIES"
                        or isinstance(node, ast.alias) and node.name == "BLOCK_ENTRIES")})


def test_block_constant_read_only_by_the_block_size():
    bad = ("from .patch import BLOCK_ENTRIES\nimport leafwise.patch as pt\n\n"
           "BLOCK_ENTRIES = 2**17\n\n\n"
           "class FoliatedPatch:\n    @property\n    def block_size(self):\n"
           "        return BLOCK_ENTRIES // self.n**2\n\n"
           "    def integrate(self, fn):\n        return BLOCK_ENTRIES // 16\n\n\n"
           "def chunks(points):\n    return len(points) // (pt.BLOCK_ENTRIES // 4)\n")
    allowed = {"FoliatedPatch.block_size"}
    assert _block_constant_reads(ast.parse(bad), allowed) == [1, 13, 17]
    assert _block_constant_reads(ast.parse(bad), set()) == [1, 10, 13, 17]
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             for line in _block_constant_reads(ast.parse(path.read_text(), str(path)),
                                               allowed if path.name == "patch.py" else set())]
    assert not found, found


def _classes_in_functions(tree: ast.AST) -> list:
    """Lines of class statements inside a function body, at any depth."""
    return sorted({node.lineno for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn) if isinstance(node, ast.ClassDef)})


def test_no_class_defined_inside_a_function():
    bad = ("class Field:\n    class Inner:\n        pass\n\n"
           "    def method(self):\n        class Local:\n            pass\n\n\n"
           "def make(u):\n    class _Field(Field):\n        pass\n\n"
           "    async def later():\n        def inner():\n            class Deep:\n"
           "                pass\n\n    return _Field\n")
    assert _classes_in_functions(ast.parse(bad)) == [6, 11, 16]
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             for line in _classes_in_functions(ast.parse(path.read_text(), str(path)))]
    assert not found, found


def _wide_einsums(tree: ast.AST, most: int = 4) -> list:
    """Lines of einsum calls (by name or attribute) with more than ``most``
    operands after the subscripts; a starred argument counts as one."""
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Call)
                   and (isinstance(node.func, ast.Name) and node.func.id == "einsum"
                        or isinstance(node.func, ast.Attribute) and node.func.attr == "einsum")
                   and len(node.args) - 1 > most})


def test_no_einsum_takes_more_than_four_operands():
    bad = ("import numpy as np\nfrom numpy import einsum\n\n\n"
           "def chain(a, b):\n    return np.einsum('pi,pij,pjk,pkl->pl', a, b, b, b)\n\n\n"
           "def wide(a, b):\n    return np.einsum('pi,pij,pjk,pkl,pl->p', a, b, b, b, a)\n\n\n"
           "x = einsum('i,ij,jk,kl,lm,m->', a, b, b, b, b, a)\n")
    assert _wide_einsums(ast.parse(bad)) == [10, 13]
    assert _wide_einsums(ast.parse(bad), most=3) == [6, 10, 13]
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             for line in _wide_einsums(ast.parse(path.read_text(), str(path)))]
    assert not found, found


#: the code that may re-lay jets out with np.moveaxis, by module: the analytic
#: point-last buffers, the point-last rows ``normal_jets`` sums over, and the
#: Christoffel bracket's index permutation
MOVEAXIS_USERS = {"suppliers.py": {"AnalyticSupplier.jets", "normal_jets"},
                  "patch.py": {"christoffel_bracket"}}


def _moveaxis_uses(tree: ast.AST, allowed: set) -> list:
    """Lines that name ``moveaxis`` (call, attribute or import) outside the
    methods and functions ``allowed``."""
    inside = _inside_methods(tree, allowed)
    return sorted({node.lineno for node in ast.walk(tree)
                   if id(node) not in inside
                   and (isinstance(node, ast.Attribute) and node.attr == "moveaxis"
                        or isinstance(node, ast.Name) and node.id == "moveaxis"
                        or isinstance(node, ast.alias) and node.name == "moveaxis")})


def test_moveaxis_only_where_jets_change_memory_layout():
    bad = ("import numpy as np\nfrom numpy import moveaxis\n\n\n"
           "def normal_jets(jets):\n    return np.moveaxis(jets.d1, 0, -1)\n\n\n"
           "class AnalyticSupplier:\n    def jets(self, buf):\n"
           "        return np.moveaxis(buf, -1, 0)\n\n\n"
           "def relaid(a):\n    return moveaxis(a, 1, -1)\n")
    tree = ast.parse(bad)
    assert _moveaxis_uses(tree, MOVEAXIS_USERS["suppliers.py"]) == [2, 15]
    assert _moveaxis_uses(tree, {"normal_jets"}) == [2, 11, 15]
    assert _moveaxis_uses(tree, set()) == [2, 6, 11, 15]
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             for line in _moveaxis_uses(ast.parse(path.read_text(), str(path)),
                                        MOVEAXIS_USERS.get(path.name, set()))]
    assert not found, found
