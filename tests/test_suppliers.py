"""The Taylor-tape kernel table of AnalyticSupplier: derivatives equal to
sympy's diff evaluated in 30-digit arithmetic, order-3 jets against plain
lambdify kernels of sp.diff on every catalog surface, on spheres of
dimension 2-5, on the inverted bumpy torus and on rule-probing expressions,
and profile derivatives alike, and, bit for bit, the same sources calling
sin, cos and exp of the coordinates themselves; each subexpression walked
once per memo, no Derivative made once a function's partials are known,
broadcasting of constant and zero components, one lambdify call per
derivative component, each over the one argument list X and handed the
printed source as a string, no str() printing of expressions while a
surface compiles, sources that bind each line they read twice where they
first read it and that a fresh build prints again, that name only their
arguments, bound lines and numpy functions, and
whose kernels compute what lambdify's own printing of sp.diff computes;
symbols no kernel can resolve, components with no Taylor rule and inputs
that failed only later refused at build, no kernel applying sin, cos or exp
to a bare coordinate, each such column computed once per jets call, and the
same jets under the block pool and under concurrent jets calls; jets equal
to a point-first fill of the same kernels and laid out point-last in memory,
and points that are not a finite (k >= 1, n) array refused with DomainError,
by the analytic, the revolution and the finite-difference suppliers alike;
and ``normal_jets`` bit-identical to Python sums of broadcast rows and a
Laplace expansion that multiplies each term by its sign; and the jets of
every supplier kind laid out derivative-first, d1[:, i] and d2[:, i] the
central differences of r and d1 along axis i."""

import ast
import itertools
import re
import sys
import threading
from collections import Counter
from math import comb

import numpy as np
import pytest
import sympy as sp
from sympy.core._print_helpers import Printable
from sympy.core.cache import clear_cache
from sympy.core.function import Derivative

from leafwise import catalog, functionals as fl, patch, suppliers
from leafwise import revolution as rev
from leafwise.errors import DomainError
from leafwise.variation import random_trig_variation

# one builder per distinct catalog function
SURFACES = sorted({fn: name for name, fn in reversed(catalog.CATALOG.items())}.values())


def build_recorded(build, monkeypatch):
    """build()'s value, the (coords, exprs) of each AnalyticSupplier that it
    builds, and the (args, source) of each kernel that it compiles: what the
    kernel's one lambdify call receives."""
    builds, sources = [], []
    init, lambdify = suppliers.AnalyticSupplier.__init__, sp.lambdify

    def recording(self, coords, exprs):
        builds.append((coords, exprs))
        init(self, coords, exprs)

    def compiling(args, source, **kwargs):
        sources.append((args, source))
        return lambdify(args, source, **kwargs)

    monkeypatch.setattr(suppliers.AnalyticSupplier, "__init__", recording)
    monkeypatch.setattr(sp, "lambdify", compiling)
    built = build()
    monkeypatch.undo()
    return built, builds, sources


def plain_jets(coords, exprs, x):
    """r, d1, d2, d3 from one plain lambdify per component of its value and
    every derivative, common subexpressions shared (``cse=True``), each
    sorted index tuple differentiated once, from its sorted prefix, and its
    value filled into every permutation, derivative axes first."""
    n, m, mpts = len(coords), len(exprs), x.shape[0]
    out = [np.empty((mpts,) + (n,) * k + (m,)) for k in range(4)]
    for a, e in enumerate(exprs):
        derivs = {(): e}
        for k in range(1, 4):
            for idx in itertools.combinations_with_replacement(range(n), k):
                derivs[idx] = sp.diff(derivs[idx[:-1]], coords[idx[-1]])
        values = sp.lambdify(coords, list(derivs.values()), modules="numpy", cse=True)(*x.T)
        for idx, v in zip(derivs, values):
            for perm in set(itertools.permutations(idx)):
                out[len(idx)][(slice(None),) + perm + (a,)] = v
    return out


def assert_close_to_plain(got, want):
    """Each order within 1e-14 of the largest plain value of that order."""
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= 1e-14 * np.max(np.abs(w))


def point_first_jets(supplier, x, order):
    """r, d1, d2 (and d3 at order 3) of an AnalyticSupplier filled point-first:
    every kernel's value written to each permutation of its index, the
    kernels taking the coordinate columns and then the sin/cos/exp columns."""
    coords = [x[:, i] for i in range(supplier.n)]
    args = coords + [f(coords[i]) for f, i in supplier._columns]
    top = 3 if order >= 3 else 2
    out = [np.empty((x.shape[0],) + (supplier.n,) * k + (supplier.m,)) for k in range(top + 1)]
    for (a, idx), kernel in supplier._kernels.items():
        if len(idx) <= top:
            v = kernel(*args)
            for perm in set(itertools.permutations(idx)):
                out[len(idx)][(slice(None),) + perm + (a,)] = v
    return out


def sample(points, count=40):
    return points[:: max(1, len(points) // count)]


@pytest.mark.parametrize("name", SURFACES)
def test_derivatives_equal_sympy_diff(name, monkeypatch):
    # every derivative up to order 3 against sp.diff's, evaluated in 30-digit
    # arithmetic at three points, so only the jets' own rounding is left
    surface, builds, _ = build_recorded(catalog.CATALOG[name], monkeypatch)
    (coords, exprs), = builds
    x = sample(surface.grid.points, 3)[:3]
    jets = surface.supplier.jets(x, order=3)
    for k, got in enumerate((jets.r, jets.d1, jets.d2, jets.d3)):
        scale = np.max(np.abs(got))
        for a, expr in enumerate(exprs):
            for idx in itertools.combinations_with_replacement(range(len(coords)), k):
                d = sp.diff(expr, *(coords[i] for i in idx)) if idx else expr
                for p, point in enumerate(x):
                    exact = float(d.evalf(30, subs=dict(zip(coords, map(sp.Float, point)))))
                    assert abs(got[(p,) + idx + (a,)] - exact) <= 1e-14 * scale, (idx, a)


def test_derivative_rules_beyond_the_catalog():
    # a symbolic exponent, atan2, tanh, log, exp of a product, pi, a Rational
    # and a square root against the plain lambdify kernels of sp.diff
    x, y = sp.symbols("x y")
    exprs = [x + sp.Rational(1, 3) * y**2, sp.atan2(y, x + 3) + sp.tanh(x * y) + x**y,
             sp.log(2 + x**2) * sp.exp(x * y) + sp.pi * sp.sqrt(1 + y**2)]
    pts = np.random.default_rng(1).uniform(0.3, 1.2, size=(20, 2))
    jets = suppliers.AnalyticSupplier((x, y), exprs).jets(pts, order=3)
    assert_close_to_plain((jets.r, jets.d1, jets.d2, jets.d3), plain_jets((x, y), exprs, pts))


def test_tape_walks_each_subexpression_once(monkeypatch):
    # the components of a build share one memo, and each composition one for
    # its partials: a subexpression's jet is taken once per memo however many
    # components, derivative orders and partials read it
    walked, memos = Counter(), []
    rule = suppliers.Tape._rule

    def counting(self, expr, memo):
        memos.append(memo)  # alive, so no two memos share an id
        walked[id(memo), expr] += 1
        return rule(self, expr, memo)

    monkeypatch.setattr(suppliers.Tape, "_rule", counting)
    clear_cache()
    surface, builds, _ = build_recorded(catalog.sheared_torus4, monkeypatch)
    (_, exprs), = builds
    assert walked and max(walked.values()) == 1, walked.most_common(3)
    subtrees = {e for expr in exprs for e in sp.preorder_traversal(expr)}
    assert subtrees <= {expr for _, expr in walked}


def test_build_constructs_no_derivative_object(monkeypatch):
    # a function's partials are derived once per process, so a build after
    # the first makes no Derivative, even with sympy's cache cleared
    catalog.sheared_torus4()
    made = []
    new = Derivative.__new__

    def counting(cls, *args, **kwargs):
        made.append(cls)
        return new(cls, *args, **kwargs)

    clear_cache()
    monkeypatch.setattr(Derivative, "__new__", counting)
    catalog.sheared_torus4(eps=0.03)
    assert made == []


#: an entry of a kernel's argument list read in its source: X[i] is
#: coordinate i for i < n and the column supplier._columns[i - n] after them
ARG = re.compile(r"\bX\[(\d+)\]")


def calling_coordinate_functions(supplier, source):
    """source with each column X[n + j] read as the call f(X[i]) of its
    column (f, i) = supplier._columns[j]."""
    def call(match):
        j = int(match[1]) - supplier.n
        if j < 0:
            return match[0]
        f, i = supplier._columns[j]
        return f"{f.__name__}(X[{i}])"
    return ARG.sub(call, source)


@pytest.mark.parametrize("name", SURFACES)
def test_jets_match_plain_lambdify_kernels(name, monkeypatch):
    surface, builds, sources = build_recorded(catalog.CATALOG[name], monkeypatch)
    (coords, exprs), = builds
    n, m = len(coords), len(exprs)
    assert len(sources) == m * comb(n + 3, 3)
    x = sample(surface.grid.points)
    jets = surface.supplier.jets(x, order=3)
    by_order = (jets.r, jets.d1, jets.d2, jets.d3)
    assert_close_to_plain(by_order, plain_jets(coords, exprs, x))
    # the same sources calling sin, cos and exp of the coordinates
    # themselves give the same bits
    args = [x[:, i] for i in range(n)]
    for (a, idx), (names, source) in zip(surface.supplier._kernels, sources):
        plain = suppliers.numpy_kernel(
            names, calling_coordinate_functions(surface.supplier, source))
        assert np.array_equal(by_order[len(idx)][(slice(None),) + idx + (a,)], plain(*args))
    low = surface.supplier.jets(x, order=2)
    assert low.d3 is None
    assert np.array_equal(low.d2, jets.d2)


def _inverted_exprs():
    """x0..x2 and catalog.bumpy_torus4's expressions e divided by |e|^2, the
    deep expressions of test_leibniz's inversion test."""
    x = sp.symbols("x0 x1 x2")
    rr = 0.55 * (1 + 0.03 * sp.cos(x[0] + 2 * x[1] - x[2]))
    w2 = 1.3 * (1 + 0.7 * 0.03 * sp.sin(2 * x[0] - x[2])) + rr * sp.cos(x[2])
    w1 = sp.Float(3.0) + w2 * sp.cos(x[1])
    exprs = [w1 * sp.cos(x[0]), w1 * sp.sin(x[0]), w2 * sp.sin(x[1]), rr * sp.sin(x[2])]
    return x, [e / sum(f**2 for f in exprs) for e in exprs]


@pytest.mark.parametrize("case", ["sphere2", "sphere3", "sphere4", "sphere5", "inverted"])
def test_jets_beyond_the_catalog_match_plain_lambdify_kernels(case):
    if case == "inverted":
        coords, exprs = _inverted_exprs()
        x = catalog.bumpy_torus4(m1=4, m2=4, m3=4).grid.points
    else:
        coords, exprs = catalog.sphere_exprs(int(case[-1]), 1.3)
        x = sample(catalog.sphere(n=int(case[-1]), m_polar=4, m_azimuth=8).grid.points)
    jets = suppliers.AnalyticSupplier(coords, exprs).jets(x, order=3)
    assert_close_to_plain((jets.r, jets.d1, jets.d2, jets.d3), plain_jets(coords, exprs, x))


@pytest.mark.parametrize("expr, rho_range", [
    (sp.sqrt(1.3**2 - sp.Symbol("rho")**2), (0.3, 1.0)),
    (sp.acosh(sp.Symbol("rho")), (1.15, 2.0)),
    (0.8 * sp.Symbol("rho"), (0.2, 2.0))], ids=["sqrt", "acosh", "cone"])
def test_profile_derivatives_match_plain_lambdify_kernels(expr, rho_range):
    rho = sp.Symbol("rho")
    built = rev.profile_from_sympy(2, expr, rho, rho_range)
    r = np.linspace(*rho_range, 40)
    for k, fn in enumerate((built.f, built.f1, built.f2, built.f3)):
        want = np.broadcast_to(sp.lambdify([rho], sp.diff(expr, rho, k), "numpy")(r), r.shape)
        assert np.max(np.abs(fn(r) - want)) <= 1e-14 * np.max(np.abs(want)), k


@pytest.mark.parametrize("name", SURFACES)
def test_jets_equal_the_point_first_fill_and_keep_points_last(name):
    surface = catalog.CATALOG[name]()
    supplier = surface.supplier
    pts = surface.grid.points
    x = pts[:: max(1, len(pts) // 40)]
    for order in (2, 3):
        jets = supplier.jets(x, order=order)
        got = [a for a in (jets.r, jets.d1, jets.d2, jets.d3) if a is not None]
        want = point_first_jets(supplier, x, order)
        assert len(got) == len(want) == order + 1
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
            assert np.moveaxis(a, 0, -1).flags.c_contiguous


def summed_normal_jets(jets, orientation):
    """normal_jets with g and h as Python sums of broadcast rows over a and
    the cofactor normal as a Laplace expansion that multiplies each term by
    (-1)^(j+k): the oracle of its einsums and signed sums."""
    t = np.ascontiguousarray(np.moveaxis(jets.d1, 0, -1))
    d2t = np.moveaxis(jets.d2, 0, -1)
    n, m = t.shape[:2]
    minors = {(a,): t[0, a] for a in range(m)}
    for k in range(1, n):
        minors = {rows: sum((-1.0) ** (j + k) * t[k, a] * minors[rows[:j] + rows[j + 1:]]
                            for j, a in enumerate(rows))
                  for rows in itertools.combinations(range(m), k + 1)}
    raw = np.stack([(-1.0) ** (a + n) * minors[tuple(b for b in range(m) if b != a)]
                    for a in range(m)], axis=1)
    length = np.sqrt(np.einsum("pa,pa->p", raw, raw))
    nvec = orientation * raw / length[:, None]
    nt = np.ascontiguousarray(nvec.T)
    gt = sum(t[:, None, a] * t[None, :, a] for a in range(m))
    ht = sum(nt[a] * d2t[:, :, a] for a in range(m))
    g, h = (np.ascontiguousarray(np.moveaxis(a, -1, 0)) for a in (gt, ht))
    return nvec, g, h, suppliers.cholesky_frame(gt), length


@pytest.mark.parametrize("name", SURFACES)
def test_normal_jets_equal_summed_rows_bit_for_bit(name):
    surface = catalog.CATALOG[name]()
    for order in (2, 3):
        jets = surface.supplier.jets(surface.grid.points, order=order)
        got = suppliers.normal_jets(jets, surface.normal_orientation)
        want = summed_normal_jets(jets, surface.normal_orientation)
        for field, a, b in zip(("normal", "g", "h", "frame", "sqrt_det_g"), got, want):
            assert np.array_equal(a, b), (field, order)
            assert np.array_equal(np.signbit(a), np.signbit(b)), (field, order)


def test_jets_reject_points_that_are_not_a_finite_chart_array():
    sphere = catalog.sphere(n=2, m_polar=4, m_azimuth=8)
    x = sphere.grid.points[:3]
    nan = x.copy()
    nan[1, 0] = np.nan
    for bad in (np.column_stack([x, x[:, 0]]), x[:, :1], x[:0], nan):
        with pytest.raises(DomainError, match=r"finite \(k >= 1, 2\) array"):
            sphere.supplier.jets(bad)
    assert np.array_equal(sphere.supplier.jets(x[1]).d2, sphere.supplier.jets(x[1:2]).d2)


def test_revolution_and_finite_difference_jets_reject_bad_points():
    profile = rev.profile_from_sympy(2, sp.Symbol("rho") ** 2, sp.Symbol("rho"), (0.5, 1.5))
    revolution = rev.RevolutionSupplier(profile)
    fd = suppliers.FiniteDifferenceSupplier(lambda x: revolution.jets(x, order=0).r, n=2)
    x = np.array([[0.1, 0.7], [2.0, 1.2]])
    nan = x.copy()
    nan[1, 1] = np.nan
    for supplier in (revolution, fd):
        for bad in (np.column_stack([x, x[:, 0]]), x[:, :1], x[:0], nan):
            with pytest.raises(DomainError, match=r"finite \(k >= 1, 2\) array"):
                supplier.jets(bad)
        assert np.array_equal(supplier.jets(x[1]).d2, supplier.jets(x[1:2]).d2)


def test_constant_and_zero_components_broadcast():
    x, y = sp.symbols("x y")
    pts = np.random.default_rng(0).uniform(-1, 1, size=(7, 2))
    jets = suppliers.AnalyticSupplier((x, y), [x, y, 0 * x]).jets(pts, order=3)
    assert np.array_equal(jets.r, np.column_stack([pts, np.zeros(7)]))
    assert np.array_equal(jets.d1, np.broadcast_to(np.eye(2, 3), (7, 2, 3)))
    assert not jets.d2.any() and not jets.d3.any()

    rho_sym = sp.Symbol("rho")
    cone = rev.profile_from_sympy(2, 0.8 * rho_sym, rho_sym, (0.2, 2.0))
    rho = np.linspace(0.3, 1.9, 5)
    assert np.array_equal(cone.f1(rho), np.full(5, 0.8))
    assert np.array_equal(cone.f2(rho), np.zeros(5))
    assert cone.f3(rho.reshape(5, 1)).shape == (5, 1)
    assert suppliers.numpy_kernel([sp.Symbol("X")], "2.0")(rho).shape == (5,)


def test_compile_prints_no_expression_with_str(monkeypatch):
    printed = []
    to_str = Printable.__str__

    def counting(self):
        if not isinstance(self, sp.Symbol):
            printed.append(type(self).__name__)
        return to_str(self)

    monkeypatch.setattr(Printable, "__str__", counting)
    catalog.sheared_torus4()
    assert printed == []


def _edge_supplier():
    """An AnalyticSupplier whose components share subexpressions and mix
    equal-valued Floats of precision 15 and 30, x with and without
    assumptions, constants, powers and two-argument functions."""
    x, y = sp.symbols("x y", real=True)
    third = (sp.Float(1 / 3, 15), sp.Float(1 / 3, 30))
    plain_x = sp.Symbol("x")
    exprs = [third[0] * sp.cos(x) + third[1] * sp.sin(y) + third[1] * sp.cos(x) * plain_x,
             sp.sqrt(1 + x**2) * sp.cos(x * y) + x**y + third[0] * plain_x**2,
             sp.atan2(y, 2 + x) + sp.log(2 + sp.cos(x * y)) * sp.exp(y)]
    return suppliers.AnalyticSupplier((x, y), exprs)


def build_case(name, monkeypatch):
    """(supplier, coords, exprs, sources) of a catalog surface or the edge cases."""
    if name == "edge-cases":
        supplier, builds, sources = build_recorded(_edge_supplier, monkeypatch)
    else:
        surface, builds, sources = build_recorded(catalog.CATALOG[name], monkeypatch)
        supplier = surface.supplier
    (coords, exprs), = builds
    return supplier, coords, exprs, sources


@pytest.mark.parametrize("name", SURFACES + ["edge-cases"])
def test_memo_printer_prints_the_fresh_source(name, monkeypatch):
    # each source binds each tape line that it reads more than once where it
    # first reads it and reads it by name after that, and is the source that
    # a fresh build prints, with sympy's cache cleared
    supplier, _, _, sources = build_case(name, monkeypatch)
    clear_cache()
    assert build_case(name, monkeypatch)[3] == sources
    for _, source in sources:
        bound = re.findall(r"\((_t\d+) := ", source)
        assert sorted(bound) == sorted(f"_t{i}" for i in range(len(bound))), source
        for t in bound:
            reads = [m.start() for m in re.finditer(rf"\b{t}\b(?! :=)", source)]
            assert reads and min(reads) > source.index(f"({t} := "), source
    if name == "edge-cases":
        text = "\n".join(s for _, s in sources)
        sin_y = f"X[{supplier.n + supplier._columns.index((np.sin, 1))}]"
        assert "0.3333333333333333*" in text and sin_y in text and "arctan2(" in text


#: the numpy functions a kernel source may call
NUMPY_CALLS = set(suppliers._NUMPY_NAMES.values())


@pytest.mark.parametrize("name", SURFACES + ["edge-cases"])
def test_kernel_printer_prints_what_numpy_printer_prints(name, monkeypatch):
    # each source names only its arguments, the lines it binds and numpy's
    # functions, and each kernel computes what lambdify prints with its
    # NumPyPrinter for sp.diff's derivative of the component, to 1e-14 of the
    # largest value of that order
    supplier, coords, exprs, sources = build_case(name, monkeypatch)
    for args, source in sources:
        names = {node.id for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Name)}
        bound = set(re.findall(r"\((_t\d+) := ", source))
        assert names <= {str(a) for a in args} | bound | NUMPY_CALLS, source
    if name == "edge-cases":
        # the tape reads x with and without assumptions as one coordinate
        x = np.random.default_rng(3).uniform(0.3, 1.2, size=(20, 2))
        exprs = [e.xreplace({sp.Symbol("x"): coords[0]}) for e in exprs]
    else:
        x = sample(catalog.CATALOG[name]().grid.points)
    want = plain_jets(coords, exprs, x)
    values = [x[:, i] for i in range(supplier.n)]
    values += [f(values[i]) for f, i in supplier._columns]
    for (a, idx), kernel in supplier._kernels.items():
        plain = want[len(idx)][(slice(None),) + idx + (a,)]
        assert np.max(np.abs(kernel(*values) - plain)) <= 1e-14 * np.max(np.abs(want[len(idx)]))


@pytest.mark.parametrize("build, kernels", [(catalog.sheared_torus4, 80),
                                             (lambda: catalog.sphere(n=4), 175)])
def test_lambdify_compiles_the_printed_source(build, kernels, monkeypatch):
    # lambdify receives each kernel's printed source, so it walks no
    # expression tree; still one call per derivative component
    received = []
    lambdify = sp.lambdify

    def recording(args, expr, **kwargs):
        received.append(type(expr))
        return lambdify(args, expr, **kwargs)

    monkeypatch.setattr(sp, "lambdify", recording)
    build()
    assert received == [str] * kernels


def test_symbols_a_kernel_cannot_resolve_are_refused_at_build():
    x, y, a, rho = sp.symbols("x y a rho")
    with pytest.raises(DomainError, match=r"free symbol a of a\*x\*y is not a coordinate"):
        suppliers.AnalyticSupplier((x, y), [x, y, a * x * y])
    with pytest.raises(DomainError, match=r"free symbol a of a\*rho\*\*2 is not a coordinate"):
        rev.profile_from_sympy(3, a * rho**2, rho, (0.5, 1.5))
    # coordinates that do not print as their own names
    for c in (sp.Dummy("x"), sp.Symbol("lambda"), sp.Symbol("x.1")):
        with pytest.raises(DomainError, match="is not a Symbol named by a Python identifier"):
            suppliers.AnalyticSupplier((c, y), [c, y, c * y])


def test_components_the_kernels_cannot_print_are_refused_at_build():
    x, y, rho = sp.symbols("x y rho")
    f = sp.Function("f")
    for bad, message in ((sp.UnevaluatedExpr(x) * y, r"UnevaluatedExpr\(x\) in"),
                         (sp.UnevaluatedExpr(2) * x, r"UnevaluatedExpr\(2\) in"),
                         (f(x) * y, r"undefined function f\(x\) in y\*f\(x\)"),
                         # no free symbol and no derivative to print: without the
                         # check, the first jets call raises NameError
                         (f(2) * x, r"undefined function f\(2\) in x\*f\(2\)"),
                         (sp.Abs(x) * y,
                          r"component 2: no Taylor rule for Abs\(x\) in y\*Abs\(x\)")):
        with pytest.raises(DomainError, match=message):
            suppliers.AnalyticSupplier((x, y), [x, y, bad])
    with pytest.raises(DomainError, match=r"UnevaluatedExpr\(rho\) in"):
        rev.profile_from_sympy(3, sp.UnevaluatedExpr(rho) * rho, rho, (0.5, 1.5))
    with pytest.raises(DomainError, match=r"undefined function f\(rho\) in rho\*f\(rho\)"):
        rev.profile_from_sympy(3, f(rho) * rho, rho, (0.5, 1.5))


def _refused(case):
    x, y = sp.symbols("x y")
    if case == "too-few-components":  # geometry raised KeyError in cofactor_normal
        return suppliers.AnalyticSupplier((x, y), [x, y])
    if case == "repeated-coordinates":  # lambdify raised SyntaxError
        return suppliers.AnalyticSupplier((x, x), [x, x, x**2])
    bad = {"imaginary-unit": sp.I * x,  # jets raised TypeError
           "complex-infinity": 1 / (x - x),  # lambdify raised KeyError
           "nan": sp.nan * x,  # r was NaN
           # these built, and the first jets call raised NameError
           "abs": x * sp.Abs(sp.Symbol("y", real=True)), "polygamma": sp.polygamma(1, x * y),
           # no Taylor rule: newly refused
           "piecewise": sp.Piecewise((x, y > 0), (x**2, True))}[case]
    return suppliers.AnalyticSupplier((x, y), [x, y, bad])


@pytest.mark.parametrize("case, message", [
    ("too-few-components", r"2 coordinates has 3 components, got 2"),
    ("repeated-coordinates", r"coordinates \(x, x\) repeat a name"),
    ("imaginary-unit", r"component 2: I in I\*x is not a finite real number"),
    ("complex-infinity", r"component 2: zoo in zoo is not a finite real number"),
    ("nan", r"component 2: nan in nan is not a finite real number"),
    ("abs", r"component 2: no Taylor rule for Abs\(y\) in x\*Abs\(y\)"),
    ("polygamma", r"component 2: no Taylor rule for polygamma\(1, x\*y\)"),
    ("piecewise", r"component 2: no Taylor rule for Piecewise\(\(x, y > 0\)")])
def test_components_that_fail_later_are_refused_at_build(case, message):
    with pytest.raises(DomainError, match=message):
        _refused(case)


@pytest.mark.parametrize("name", SURFACES)
def test_no_kernel_applies_a_coordinate_function_to_a_bare_coordinate(name, monkeypatch):
    surface, _, sources = build_recorded(catalog.CATALOG[name], monkeypatch)
    bare = re.compile(r"\b(?:sin|cos|exp)\(X\[(\d+)\]\)")
    for _, source in sources:
        assert all(int(i) >= surface.supplier.n for i in bare.findall(source)), source


@pytest.mark.parametrize("build", [
    catalog.sheared_torus4, lambda: catalog.sphere(n=4),
    lambda: rev.profile_from_sympy(2, sp.acosh(sp.Symbol("rho")), sp.Symbol("rho"), (1.15, 2.0))],
    ids=["sheared-torus4", "sphere4", "profile"])
def test_each_kernel_compiles_over_one_argument(build, monkeypatch):
    # lambdify sorts a kernel's argument symbols at a cost that grows with
    # their count, so each kernel reads the one list X of its arguments
    _, _, sources = build_recorded(build, monkeypatch)
    assert sources and all([str(a) for a in args] == ["X"] for args, _ in sources)


def test_sphere_kernels_read_sin_and_cos_columns_of_every_angle(monkeypatch):
    sphere, _, sources = build_recorded(lambda: catalog.sphere(n=4), monkeypatch)
    # the kernels read no angle itself, only its sin and cos: 8 columns
    read = {int(i) for _, source in sources for i in ARG.findall(source)}
    assert read == set(range(4, 4 + 8))
    assert sorted((f.__name__, i) for f, i in sphere.supplier._columns) == (
        [("cos", i) for i in range(4)] + [("sin", i) for i in range(4)])


def test_jets_compute_each_coordinate_function_once_per_column(monkeypatch):
    sphere = catalog.sphere(n=4, m_polar=4, m_azimuth=6)
    supplier = sphere.supplier
    x = sphere.grid.points
    want = supplier.jets(x)
    calls = []

    def counted(f, i):
        def column(values):
            calls.append((f.__name__, i))
            assert np.array_equal(values, x[:, i])
            return f(values)
        return column

    # 75 order-2 kernels read sin and cos of the 4 angles: 8 columns
    monkeypatch.setattr(supplier, "_columns", [(counted(f, i), i) for f, i in supplier._columns])
    got = supplier.jets(x)
    assert sorted(calls) == [("cos", i) for i in range(4)] + [("sin", i) for i in range(4)]
    for k in ("r", "d1", "d2"):
        assert np.array_equal(getattr(got, k), getattr(want, k))


def test_kernels_called_outside_jets_share_nothing():
    rho = sp.Symbol("rho")
    expr = sp.exp(-rho) * sp.cos(rho) + sp.sin(2 * rho) + sp.sin(rho)
    profile = rev.profile_from_sympy(3, expr, rho, (0.5, 1.5))
    r = np.linspace(0.5, 1.5, 50)
    for k, fn in enumerate((profile.f, profile.f1, profile.f2, profile.f3)):
        plain = sp.lambdify([rho], sp.diff(expr, rho, k), modules="numpy")(r)
        assert np.max(np.abs(fn(r) - plain)) <= 1e-14 * np.max(np.abs(plain))
    # a kernel reads its argument afresh on every call
    kernel = suppliers.numpy_kernel([sp.Symbol("X")], "sin(X[0])")
    kernel(r)
    r += 1.0
    assert np.array_equal(kernel(r), np.sin(r))


def test_pool_and_serial_energies_agree_bit_for_bit():
    sphere = catalog.sphere(n=4, m_polar=16, m_azimuth=32)
    assert sphere.grid.points.shape[0] > sphere.block_size
    pooled = fl.evaluate(fl.w_nps(4), sphere)
    patch._in_worker.active = True  # blocks run one by one in this thread
    try:
        serial = fl.evaluate(fl.w_nps(4), sphere)
    finally:
        patch._in_worker.active = False
    assert pooled == serial
    assert abs(pooled - 8 * np.pi**2 / 3) < 1e-12 * pooled


def test_concurrent_jets_match_serial_jets():
    sphere = catalog.sphere(n=4, m_polar=6, m_azimuth=8)
    blocks = np.array_split(sphere.grid.points, 6)  # more threads than cores
    serial = [sphere.supplier.jets(b, order=3) for b in blocks]
    mismatches, completed = [], []

    def work(i):
        for _ in range(10):
            got = sphere.supplier.jets(blocks[i], order=3)
            if not all(np.array_equal(getattr(got, k), getattr(serial[i], k))
                       for k in ("r", "d1", "d2", "d3")):
                mismatches.append(i)
        completed.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(blocks))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(completed) == list(range(len(blocks))) and mismatches == []


def layout_supplier(kind):
    """A supplier of each kind over a bumpy torus or a revolution profile
    (n = 2), jets to order 2."""
    torus = catalog.bumpy_torus3(m_leaf=6, m_tube=6)
    base = torus.supplier
    if kind == "analytic":
        return base
    if kind == "finite-difference":
        return suppliers.FiniteDifferenceSupplier(lambda x: base.jets(x, order=0).r, n=2)
    if kind == "reparametrized":
        def psi_jets(xp):  # y = (x'0 + 0.2 sin x'1, x'1), jac[p, a, i] = d y^i / d x'^a
            s, c = 0.2 * np.sin(xp[:, 1]), 0.2 * np.cos(xp[:, 1])
            y, jac = xp + np.column_stack([s, 0 * s]), np.tile(np.eye(2), (len(xp), 1, 1))
            p2, p3 = np.zeros((len(xp), 2, 2, 2)), np.zeros((len(xp), 2, 2, 2, 2))
            jac[:, 1, 0], p2[:, 1, 1, 0], p3[:, 1, 1, 1, 0] = c, -s, -c
            return y, jac, p2, p3
        return suppliers.ReparametrizedSupplier(base, psi_jets)
    if kind == "scaled":
        return suppliers.ScaledImmersion(base, 1.7)
    if kind == "inverted":
        return suppliers.InvertedImmersion(base)
    if kind == "revolution":
        rho = sp.Symbol("rho")
        return rev.RevolutionSupplier(rev.profile_from_sympy(2, rho**2 + 0.3 * rho**3, rho,
                                                             (0.5, 1.5)))
    u = random_trig_variation(2, np.random.default_rng(4), amplitude=0.5)
    return suppliers.NormalDeformation(torus.geometry, u.jets, 0.3)


@pytest.mark.parametrize("kind", ["analytic", "finite-difference", "reparametrized", "scaled",
                                  "inverted", "revolution", "normal-deformation"])
def test_jets_put_the_derivative_axes_first(kind):
    # d1[:, i] is a central difference of r along axis i, d2[:, i] one of d1
    supplier = layout_supplier(kind)
    x = np.random.default_rng(2).uniform((0.0, 0.7), (2 * np.pi, 1.3), size=(9, 2))
    jets = supplier.jets(x)
    step = 1e-3
    for low, high in (("r", "d1"), ("d1", "d2")):
        for i in range(2):
            def at(o):
                return getattr(supplier.jets(x + o * step * np.eye(2)[i]), low)

            fd = (8.0 * (at(1) - at(-1)) - (at(2) - at(-2))) / (12 * step)
            got = getattr(jets, high)[:, i]
            assert got.shape == fd.shape
            assert np.max(np.abs(got - fd)) < 1e-6 * max(1.0, np.max(np.abs(fd))), (high, i)
