"""The compiled kernel table of AnalyticSupplier: derivative expressions equal
to sympy's diff, also through nodes that bind a variable, with no Derivative
object built and each free-symbol set computed once, order-3 jets against plain
lambdify kernels and, bit for bit, against the same kernels calling sin, cos
and exp of the coordinates themselves on every catalog surface, broadcasting
of constant and zero components, one lambdify call per derivative component,
each handed the printed source as a string, no str() printing of
expressions while a surface compiles, kernel sources from the build's
memoised printer string-equal to lambdify's own printing of the sympy
expression with a fresh printer and the same columns, and each kernel
expression printed by a KernelPrinter as by a plain NumPyPrinter, symbols
that such a source could not resolve and components it could not print
refused at build, no kernel applying sin, cos or exp to a bare coordinate, each
such column computed once per jets call, and the same jets under the block
pool and under concurrent jets calls; jets equal to a point-first fill of
the same kernels and laid out point-last in memory, and points that are not
a finite (k >= 1, n) array refused with DomainError, by the analytic, the
revolution and the finite-difference suppliers alike; and ``normal_jets``
bit-identical to Python sums of broadcast rows and a Laplace expansion that
multiplies each term by its sign; and the jets of every supplier kind laid
out derivative-first, d1[:, i] and d2[:, i] the central differences of r and
d1 along axis i."""

import inspect
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
from sympy.printing.numpy import NumPyPrinter

from leafwise import catalog, functionals as fl, patch, suppliers
from leafwise import revolution as rev
from leafwise.errors import DomainError
from leafwise.variation import random_trig_variation

# one builder per distinct catalog function
SURFACES = sorted({fn: name for name, fn in reversed(catalog.CATALOG.items())}.values())


def build_recorded(name, monkeypatch):
    """Build a catalog surface, recording each supplier's (coords, exprs)
    and the sympy expression of each kernel its build compiles."""
    builds = []
    init = suppliers.AnalyticSupplier.__init__
    numpy_kernel = suppliers.numpy_kernel

    def counting(args, expr, printer):
        builds[-1][2].append(expr)
        return numpy_kernel(args, expr, printer)

    def recording(self, coords, exprs):
        builds.append([coords, exprs, []])
        init(self, coords, exprs)

    monkeypatch.setattr(suppliers, "numpy_kernel", counting)
    monkeypatch.setattr(suppliers.AnalyticSupplier, "__init__", recording)
    surface = catalog.CATALOG[name]()
    monkeypatch.undo()
    return surface, builds


def plain_jets(coords, exprs, x):
    """r, d1, d2, d3 from one plain lambdify per distinct derivative, every
    index tuple differentiated in its own order, derivative axes first."""
    n, m, mpts = len(coords), len(exprs), x.shape[0]
    args = [x[:, i] for i in range(n)]
    kernels = {}

    def ev(e):
        if e not in kernels:
            kernels[e] = sp.lambdify(coords, e, modules="numpy")
        return np.broadcast_to(np.asarray(kernels[e](*args), dtype=float), (mpts,))

    r = np.empty((mpts, m))
    d1 = np.empty((mpts, n, m))
    d2 = np.empty((mpts, n, n, m))
    d3 = np.empty((mpts, n, n, n, m))
    for a, e in enumerate(exprs):
        r[:, a] = ev(e)
        for i in range(n):
            ei = sp.diff(e, coords[i])
            d1[:, i, a] = ev(ei)
            for j in range(n):
                eij = sp.diff(ei, coords[j])
                d2[:, i, j, a] = ev(eij)
                for k in range(n):
                    d3[:, i, j, k, a] = ev(sp.diff(eij, coords[k]))
    return r, d1, d2, d3


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


def assert_derivatives_equal_diff(coords, exprs):
    """Every derivative of every component up to order 3, by sorted index,
    from ``suppliers.derivative`` with one memo is == to sp.diff's."""
    memo = {}
    for expr in exprs:
        start = sp.sympify(expr)
        ours, theirs = {(): start}, {(): start}
        for k in range(1, 4):
            for idx in itertools.combinations_with_replacement(range(len(coords)), k):
                x = coords[idx[-1]]
                ours[idx] = suppliers.derivative(ours[idx[:-1]], x, memo)
                theirs[idx] = sp.diff(theirs[idx[:-1]], x)
                assert ours[idx] == theirs[idx], (expr, idx)


@pytest.mark.parametrize("name", SURFACES)
def test_derivatives_equal_sympy_diff(name, monkeypatch):
    _, builds = build_recorded(name, monkeypatch)
    for coords, exprs, _ in builds:
        assert_derivatives_equal_diff(coords, exprs)


def test_derivative_rules_beyond_the_catalog():
    # Pow with a symbolic exponent, Abs and Piecewise through sp.diff, and
    # polygamma, whose fdiff has no rule for its order argument
    x, y, t = sp.symbols("x y t")
    expr = (sp.sqrt(1 + x**2) * sp.cos(x * y) + x**y + sp.Abs(y)
            + sp.Piecewise((x, y > 0), (x**2, True)) + sp.polygamma(x, y))
    # nodes that bind a variable, whose free symbols are not their args'
    bound = [sp.Integral(sp.sin(t * x), (t, 0, y)) * x, sp.Subs(sp.cos(t) * x, t, y) * x**2,
             sp.Sum(x**t, (t, 1, 3)) * y]
    assert_derivatives_equal_diff((x, y), [expr] + bound)


def test_derivative_computes_each_free_symbol_set_once(monkeypatch):
    # the free symbols of every subexpression are read through the build's
    # memo, not recomputed on each (subexpression, coordinate) it meets
    computed = Counter()

    def counting(getter):
        def free_symbols(self):
            caller = sys._getframe(1).f_code
            if caller.co_filename == suppliers.__file__ and caller.co_name in (
                    "derivative", "free_symbols"):
                computed[type(self), self] += 1
            return getter(self)
        return property(free_symbols)

    for cls in (sp.Basic, sp.Symbol):
        monkeypatch.setattr(cls, "free_symbols", counting(cls.free_symbols.fget))
    clear_cache()
    catalog.sheared_torus4()
    monkeypatch.undo()
    assert computed and max(computed.values()) == 1, computed.most_common(3)


def test_build_constructs_no_derivative_object(monkeypatch):
    made = []
    new = Derivative.__new__

    def counting(cls, *args, **kwargs):
        made.append(cls)
        return new(cls, *args, **kwargs)

    clear_cache()
    monkeypatch.setattr(Derivative, "__new__", counting)
    catalog.sheared_torus4()
    assert made == []


@pytest.mark.parametrize("name", SURFACES)
def test_jets_match_plain_lambdify_kernels(name, monkeypatch):
    surface, builds = build_recorded(name, monkeypatch)
    assert len(builds) == 1
    coords, exprs, kernel_exprs = builds[0]
    n, m = len(coords), len(exprs)
    assert len(kernel_exprs) == m * comb(n + 3, 3)
    pts = surface.grid.points
    x = pts[:: max(1, len(pts) // 40)]
    jets = surface.supplier.jets(x, order=3)
    by_order = (jets.r, jets.d1, jets.d2, jets.d3)
    for got, want in zip(by_order, plain_jets(coords, exprs, x)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    # the same kernels printed without columns, each calling sin, cos and exp
    # of the coordinates itself, give the same bits
    printer = suppliers.KernelPrinter()
    args = [x[:, i] for i in range(n)]
    for ((a, idx), _), expr in zip(surface.supplier._kernels.items(), kernel_exprs):
        plain = suppliers.numpy_kernel(coords, expr, printer)
        assert np.array_equal(by_order[len(idx)][(slice(None),) + idx + (a,)], plain(*args))
    low = surface.supplier.jets(x, order=2)
    assert low.d3 is None
    assert np.array_equal(low.d2, jets.d2)


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
    assert suppliers.numpy_kernel([rho_sym], sp.Integer(2),
                                  suppliers.KernelPrinter())(rho).shape == (5,)


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


def recorded_sources(build, monkeypatch):
    """build()'s value and the (args, expr, source) of every kernel that it
    compiles: the arguments and the sympy expression ``numpy_kernel``
    receives, and the source of the function that its one lambdify call
    returns."""
    calls, sources = [], []
    numpy_kernel, lambdify = suppliers.numpy_kernel, sp.lambdify

    def recording(args, expr, printer):
        calls.append((args, expr))
        return numpy_kernel(args, expr, printer)

    def compiling(args, expr, **kwargs):
        fn = lambdify(args, expr, **kwargs)
        sources.append(inspect.getsource(fn))
        return fn

    for module in (suppliers, rev):
        monkeypatch.setattr(module, "numpy_kernel", recording)
    monkeypatch.setattr(sp, "lambdify", compiling)
    built = build()
    monkeypatch.undo()
    assert len(sources) == len(calls)
    return built, [(args, expr, source) for (args, expr), source in zip(calls, sources)]


def _edge_supplier():
    """An AnalyticSupplier of expressions that probe the printer's memo."""
    # equal-valued Floats of precision 15 and 30 (equal hashes, different
    # printed digits), x with and without assumptions, and the Abs, Piecewise
    # and polygamma nodes of test_derivative_rules_beyond_the_catalog; the
    # coordinates are real and polygamma's order constant, so no derivative
    # is a Derivative, which no numpy printer prints
    x, y = sp.symbols("x y", real=True)
    third = (sp.Float(1 / 3, 15), sp.Float(1 / 3, 30))
    assert third[0] != third[1] and hash(third[0]) == hash(third[1])
    plain_x = sp.Symbol("x")
    exprs = [third[0] * sp.cos(x) + third[1] * sp.sin(y) + third[1] * sp.cos(x) * plain_x,
             sp.sqrt(1 + x**2) * sp.cos(x * y) + x**y + sp.Abs(y) + third[0] * plain_x**2,
             sp.Piecewise((x, y > 0), (x**2, True)) + sp.polygamma(1, x * y)]
    return suppliers.AnalyticSupplier((x, y), exprs)


def column_symbols(supplier, args):
    """{sin/cos/exp(coordinate): argument symbol} of a supplier's columns,
    read off its kernels' arguments, the coordinates and then the columns."""
    return {getattr(sp, f.__name__)(args[i]): args[supplier.n + k]
            for k, (f, i) in enumerate(supplier._columns)}


@pytest.mark.parametrize("name", SURFACES + ["edge-cases"])
def test_memo_printer_prints_the_fresh_source(name, monkeypatch):
    build = _edge_supplier if name == "edge-cases" else catalog.CATALOG[name]
    built, calls = recorded_sources(build, monkeypatch)
    supplier = built if name == "edge-cases" else built.supplier
    assert calls
    for args, expr, source in calls:
        assert isinstance(expr, sp.Basic)
        # lambdify prints the sympy expression itself with a fresh printer
        printer = suppliers.KernelPrinter(column_symbols(supplier, args))
        fresh = sp.lambdify(args, expr, modules="numpy", docstring_limit=0, printer=printer)
        assert source == inspect.getsource(fresh), expr
    if name == "edge-cases":
        sources = "".join(source for _, _, source in calls)
        assert "0.333333333333333*" in sources and "0.333333333333333314829616256247*" in sources
        assert "cos_x" in sources and "sin_y" in sources


@pytest.mark.parametrize("name", SURFACES + ["edge-cases"])
def test_kernel_printer_prints_what_numpy_printer_prints(name, monkeypatch):
    # an oracle for KernelPrinter's overrides (its memo and the skipped
    # UnevaluatedExpr walk): each kernel expression prints as a plain
    # NumPyPrinter with the same settings prints it
    build = _edge_supplier if name == "edge-cases" else catalog.CATALOG[name]
    _, calls = recorded_sources(build, monkeypatch)
    printer = suppliers.KernelPrinter()
    for _, expr, _ in calls:
        assert printer.doprint(expr) == NumPyPrinter(suppliers._KERNEL_PRINTER).doprint(expr), expr


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
                         (sp.Abs(x) * y, r"component 2 \(y\*Abs\(x\)\): cannot print "
                                         r".*Derivative\(re\(x\), x\)")):
        with pytest.raises(DomainError, match=message):
            suppliers.AnalyticSupplier((x, y), [x, y, bad])
    with pytest.raises(DomainError, match=r"UnevaluatedExpr\(rho\) in"):
        rev.profile_from_sympy(3, sp.UnevaluatedExpr(rho) * rho, rho, (0.5, 1.5))
    with pytest.raises(DomainError, match=r"undefined function f\(rho\) in rho\*f\(rho\)"):
        rev.profile_from_sympy(3, f(rho) * rho, rho, (0.5, 1.5))


@pytest.mark.parametrize("name", SURFACES)
def test_no_kernel_applies_a_coordinate_function_to_a_bare_coordinate(name, monkeypatch):
    surface, calls = recorded_sources(catalog.CATALOG[name], monkeypatch)
    coords = calls[0][0][:surface.supplier.n]
    bare = re.compile(r"\b(sin|cos|exp)\((%s)\)" % "|".join(c.name for c in coords))
    for _, _, source in calls:
        assert not bare.search(source), source


def test_sphere_kernels_read_sin_and_cos_columns_of_every_angle(monkeypatch):
    sphere, calls = recorded_sources(lambda: catalog.sphere(n=4), monkeypatch)
    bodies = "".join(source.split("\n", 1)[1] for _, _, source in calls)
    read = sorted(set(re.findall(r"\b(sin|cos|exp)_(t\d)\b", bodies)))
    assert read == [("cos", f"t{i}") for i in range(4)] + [("sin", f"t{i}") for i in range(4)]
    assert sorted((f.__name__, i) for f, i in sphere.supplier._columns) == sorted(
        (f, int(t[1])) for f, t in read)


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
    exprs = [expr]
    for _ in range(3):
        exprs.append(sp.diff(exprs[-1], rho))
    for fn, e in zip((profile.f, profile.f1, profile.f2, profile.f3), exprs):
        plain = sp.lambdify([rho], e, modules="numpy", docstring_limit=0,
                            printer=NumPyPrinter(suppliers._KERNEL_PRINTER))
        assert np.array_equal(fn(r), plain(r))
    # a kernel reads its argument afresh on every call
    kernel = suppliers.numpy_kernel([rho], sp.sin(rho), suppliers.KernelPrinter())
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
