"""Derivative suppliers for immersions r : U ⊂ R^n -> R^{n+1}.

A supplier produces the jet of an immersion (value and partial derivatives
up to third order) at a batch of parameter points.  Analytic suppliers
compile one numpy kernel per derivative component of sympy expressions,
printed without a docstring or a term sort, and evaluate them with numpy;
the finite-difference supplier wraps any callable.  Derived suppliers build
normal deformations r + t*u*N, ambient homotheties and Möbius inversions
(to order 3) on top of a base supplier.  The jets of r + t*u*N are linear in
t, with coefficients read off one order-3 base geometry (``deformed_jets``),
so a t-ladder deforms the geometry its caller already holds.  ``leibniz``
is the one product rule for jets: the inversion, the deformation, dg, dh
and d2N of ``PointGeometry`` and the metric products of ``operators`` and
``deltas`` state their jets through it.

The derivative expressions come from ``derivative``, a chain rule over the
sympy expression tree that follows sympy's own rules for Add, Mul, Pow and
elementary functions and hands any other node to ``sp.diff``.  One memo
{(subexpression, symbol): derivative} serves a whole supplier build, so a
subexpression that several components and derivative orders share is
differentiated once, its free symbols are computed once, no Leibniz term
of a factor with zero derivative is formed, and no ``Derivative`` object
or assumption query is made on the way; the expressions are == to
sp.diff's, so the printed kernels are the same.  Printing is memoised per
build as well: the kernels of one build share one ``KernelPrinter``, which
prints each subexpression once, and every kernel source is string-equal to
a fresh printer's.  Each kernel is compiled from the string that the
build's printer printed, so lambdify walks no expression tree, and the
printer skips CodePrinter's UnevaluatedExpr rewrite walk: the subtrees
that the kernels share are walked once per build, not once per kernel.

Every jet of the package is laid out derivative-first: the derivative axes
come right after the point axis and the value axes last, so d1[p, i, a] =
d_i r^a, d1[:, i] is the tangent vector r_i, and the jets of the tangent
vectors are the slices (d1, d2, d3).  Analytic jets are stored point-last:
each derivative order is one C-contiguous (n, ..., m, M) buffer, so a
kernel's value, one float per point, fills each of its slots (i, j, ..., a)
as one contiguous row, and the slots of every kernel, one per permutation of
its sorted index, are computed once per build.  The ``Jets`` fields keep the
point-first shapes as np.moveaxis views of those buffers, and
``normal_jets``, which sums over point-last rows, reads them in place; it
copies the first derivatives of any other supplier to that layout, and
returns g, h and the frame point-first and C-contiguous, as the stacked
matrix products of ``PointGeometry`` read them.

The derivative kernels of one immersion repeat the same few coordinate
functions: every kernel of a sphere or torus chart takes sin and cos of
its coordinates.  A build therefore prints sin, cos and exp of a bare
coordinate as kernel arguments, one column each, and ``jets`` computes each
column once per call (Griewank & Walther, Evaluating Derivatives, 2nd ed.,
SIAM 2008: share common subexpressions between the derivative
evaluations), so every kernel is a pure function of its arguments.  The
same numpy ufunc runs on the same coordinate column as in a kernel that
calls it itself, so the jets are bit-identical to such kernels'.
"""

from __future__ import annotations

import itertools
import keyword
from dataclasses import dataclass

import numpy as np
import sympy as sp
from sympy.core.function import AppliedUndef, ArgumentIndexError
from sympy.printing.codeprinter import PrintMethodNotImplementedError
from sympy.printing.numpy import NumPyPrinter

from .errors import DomainError, SingularImmersionError


@dataclass
class Jets:
    """Immersion jet at a batch of points, derivative axes first as in every
    jet of the package (``leibniz``, ``stencil_jets``): r (M, m) with
    m = n+1, d1[p, i, a] = d_i r^a (M, n, m), d2[p, i, j, a] (M, n, n, m)
    and d3[p, i, j, k, a] (M, n, n, n, m) or None when not requested.  The
    arrays may be point-first views of point-last buffers
    (``AnalyticSupplier`` returns np.moveaxis(buf, -1, 0) of a C-contiguous
    (n, ..., m, M) buf), so no consumer may assume they are C-contiguous.
    """

    r: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    d3: np.ndarray | None = None


def leibniz(subscripts: str, a, b, order: int = 2) -> tuple:
    """Jets (value, first, ..., order-th derivative) of the pointwise product
    np.einsum(subscripts, a, b) of the jets a and b: the derivative along the
    axes S is the sum over T ⊆ S of d_T a d_{S-T} b (Griewank & Walther,
    Evaluating Derivatives, 2nd ed., SIAM 2008, ch. 13), one two-operand
    einsum per term.  a[k] holds the k-th derivatives, the derivative axes
    right after the point axis as in ``stencil_jets``; ``subscripts`` names
    the value axes only, in lower case (P, K, L, M are taken; order <= 3)."""
    inputs, out = subscripts.split("->")
    sa, sb = inputs.split(",")
    jets = []
    for k in range(order + 1):
        axes = "KLM"[:k]
        terms = []
        for size in range(k + 1):
            for t in map("".join, itertools.combinations(axes, size)):
                rest = "".join(c for c in axes if c not in t)
                terms.append(np.einsum(f"P{t}{sa},P{rest}{sb}->P{axes}{out}",
                                       a[size], b[k - size]))
        jets.append(sum(terms))
    return tuple(jets)


def stencil_steps(step, n: int) -> np.ndarray:
    """step broadcast to n floats; DomainError unless each is finite and > 0."""
    steps = np.broadcast_to(np.asarray(step, dtype=float), (n,)).copy()
    if not np.all(np.isfinite(steps) & (steps > 0)):
        raise DomainError(f"stencil steps must be finite and > 0, got {step!r}")
    return steps


def sample_points(x, n: int) -> np.ndarray:
    """x as a float (k, n) array of parameter points, one point given as a
    vector; DomainError unless it is a finite (k >= 1, n) array."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] != n or not np.all(np.isfinite(x)):
        raise DomainError(f"sample points must be a finite (k >= 1, {n}) array, "
                          f"got shape {x.shape}")
    return x


# lambdify's own numpy printer settings plus order="none": Add terms print in
# expr.args order, skipping the canonical term sort and its assumption queries
_KERNEL_PRINTER = {"fully_qualified_modules": False, "inline": True,
                   "allow_unknown_functions": True, "order": "none"}


class KernelPrinter(NumPyPrinter):
    """The kernels' numpy printer: lambdify's settings plus order="none"
    (``_KERNEL_PRINTER``), printing each (type, subexpression) once.

    The derivative table of one immersion shares its subtrees through the
    memo of ``derivative``, and printing one (placing parentheses, reading
    signs) costs far more than looking it up, so one printer serves a whole
    build and returns the string it printed before for an expression of the
    same type that is == to it (== tells Floats of different precision and
    Symbols of different assumptions apart).  The printer is strict, so an
    unsupported node raises rather than adding a comment to the source, and
    the module imports it registers stay on the printer: every source is
    string-equal to the one a fresh printer prints.

    ``columns`` {expression: symbol} seeds the memo, so each of those
    expressions prints as its symbol's name, an argument of the kernel.

    ``doprint`` skips CodePrinter's ``_handle_UnevaluatedExpr``, a replace
    walk of each kernel's whole tree that only rewrites
    re(UnevaluatedExpr(real)): ``check_kernel_symbols`` refuses an
    UnevaluatedExpr at build and derivatives add none, so no kernel holds
    one and the walk would return its argument unchanged.
    """

    def __init__(self, columns=None):
        super().__init__(_KERNEL_PRINTER)
        self._printed = {(type(e), e): s.name for e, s in (columns or {}).items()}

    def _print(self, expr, **kwargs):
        if kwargs or not isinstance(expr, sp.Basic):
            return super()._print(expr, **kwargs)
        key = (type(expr), expr)
        text = self._printed.get(key)
        if text is None:
            text = self._printed[key] = super()._print(expr)
        return text

    def _handle_UnevaluatedExpr(self, expr):
        return expr


def check_kernel_symbols(coords, exprs):
    """DomainError unless a kernel compiled from the printed source of exprs
    resolves every name in it: each coordinate a Symbol (not a Dummy) named
    by a Python identifier that is no keyword, so it prints as its own name,
    the kernel's argument, and each free symbol of exprs named like a
    coordinate, no UnevaluatedExpr in exprs, which ``KernelPrinter`` does
    not rewrite, and no applied undefined function (f(x), f(2)), which no
    kernel can call.  Derivatives add no free symbol, no UnevaluatedExpr and
    no undefined function, so the components of a build are checked once."""
    names = set()
    for c in coords:
        if (not isinstance(c, sp.Symbol) or isinstance(c, sp.Dummy)
                or not c.name.isidentifier() or keyword.iskeyword(c.name)):
            raise DomainError(f"coordinate {c!r} is not a Symbol named by a Python identifier")
        names.add(c.name)
    for expr in exprs:
        held = next((e for e in sp.preorder_traversal(expr)
                     if isinstance(e, (sp.UnevaluatedExpr, AppliedUndef))), None)
        if isinstance(held, sp.UnevaluatedExpr):
            raise DomainError(f"UnevaluatedExpr({held.args[0]}) in {expr}: "
                              "a kernel cannot hold an UnevaluatedExpr")
        if held is not None:
            raise DomainError(f"undefined function {held} in {expr}: "
                              "a kernel cannot call an undefined function")
        for symbol in expr.free_symbols:
            if str(symbol) not in names:
                raise DomainError(f"free symbol {symbol} of {expr} is not a coordinate "
                                  f"({', '.join(c.name for c in coords)})")


def numpy_kernel(args, expr, printer: KernelPrinter):
    """One numpy kernel of a sympy expression in the symbols args.

    The kernel takes one array per symbol and returns a float array of the
    first argument's shape; a value of another shape (a constant) is
    broadcast to it.  ``printer``, the ``KernelPrinter`` that the kernels of
    one build share, prints expr without sorting terms, and lambdify
    compiles that string, with no docstring: it walks no expression tree of
    its own, so the subtrees the kernels share are walked once per build,
    by the printer.  The source is the one lambdify prints from expr
    itself; its names are the arguments and numpy's functions only, which
    ``check_kernel_symbols`` makes sure of.  An expression the printer
    cannot print (an unevaluated Derivative, as in the derivative of |x| for
    a complex symbol x, say) raises DomainError.
    """
    try:
        source = printer.doprint(expr)
    except (PrintMethodNotImplementedError, ValueError) as err:
        raise DomainError(f"cannot print {expr} as a numpy kernel: "
                          f"{str(err).splitlines()[0]}") from None
    fn = sp.lambdify(args, source, modules="numpy", docstring_limit=0, printer=printer)

    def kernel(*values):
        values = [np.asarray(v, dtype=float) for v in values]
        value = np.asarray(fn(*values), dtype=float)
        shape = values[0].shape
        return value if value.shape == shape else np.broadcast_to(value, shape)

    return kernel


def derivative(expr, x, memo: dict):
    """d expr / d x for a sympy expression and symbol, equal (==) to
    ``sp.diff(expr, x)``, by the chain rule over the expression tree with
    each (subexpression, x) differentiated once per ``memo``.

    The rules are sp.diff's own: Add term by term, Mul by the n = 1 Leibniz
    rule of ``Mul._eval_derivative``, which skips each factor whose
    derivative is zero, Pow as e (d(p) log b + d(b) p / b) without the
    d(p) log b term when d(p) is zero, and a function that keeps
    ``Function._eval_derivative`` (sin, cos, exp, log, atan2, ...) as the sum
    of fdiff(i) d(a_i) over the arguments whose derivative is not zero.  Any
    other node (Abs, Piecewise, a function with its own rule) goes to
    sp.diff.  sp.diff builds a ``Derivative`` at every level of the tree and
    queries assumptions on each; this builds none.

    ``memo`` maps (expr, x) to d expr / d x and (expr, None) to the free
    symbols of expr, read through ``free_symbols``, so a subexpression's
    free-symbol set is computed once per memo, not once per derivative of
    every expression that holds it.
    """
    key = (expr, x)
    if key in memo:
        return memo[key]
    args = expr.args
    if x not in free_symbols(expr, memo):
        d = sp.S.Zero
    elif expr == x:
        d = sp.S.One
    elif isinstance(expr, sp.Add):
        d = expr.func(*[derivative(a, x, memo) for a in args])
    elif isinstance(expr, sp.Mul):
        terms = []
        for i, a in enumerate(args):
            da = derivative(a, x, memo)
            if da:
                terms.append(sp.Mul(*(args[:i] + (da,) + args[i + 1:])))
        d = sp.Add(*terms)
    elif isinstance(expr, sp.Pow):
        b, p = args
        dp = derivative(p, x, memo)
        d = derivative(b, x, memo) * p / b
        d = expr * (dp * sp.log(b) + d if dp else d)
    elif (isinstance(expr, sp.Function)
          and type(expr)._eval_derivative is sp.Function._eval_derivative):
        terms = []
        for i, a in enumerate(args, 1):
            da = derivative(a, x, memo)
            if not da.is_zero:
                try:
                    df = expr.fdiff(i)
                except ArgumentIndexError:
                    df = sp.Function.fdiff(expr, i)
                terms.append(df * da)
        d = sp.Add(*terms)
    else:
        d = sp.diff(expr, x)
    memo[key] = d
    return d


def free_symbols(expr, memo: dict):
    """expr.free_symbols, kept in ``memo`` under (expr, None): for a node
    that keeps ``Basic.free_symbols`` (Add, Mul, Pow, sin, ...) the union of
    its arguments' memoised sets, and any other node's own set (an Integral,
    Sum or Subs binds variables), so each subexpression's set is computed
    once per memo.  The sets are shared and never mutated."""
    key = (expr, None)
    symbols = memo.get(key)
    if symbols is None:
        if type(expr).free_symbols is sp.Basic.free_symbols:
            symbols = set().union(*(free_symbols(a, memo) for a in expr.args))
        else:
            symbols = expr.free_symbols
        memo[key] = symbols
    return symbols


class AnalyticSupplier:
    """Closed-form jets compiled from sympy component expressions.

    One kernel per component a and sorted derivative index idx of order 0..3,
    kept in one table {(a, idx): kernel}, and the rows its value fills, one
    per permutation of idx, in the point-last buffer of its order
    (``_rows``, computed once per build).  jets() evaluates each kernel once.
    The derivative expressions come from ``derivative`` with one memo for the
    whole build.

    A kernel's arguments are the coordinates and then the columns
    (``_columns``, (ufunc, coordinate index) pairs): sin and cos of each
    coordinate that either of them is applied to in a component, and exp of
    each coordinate it is applied to.  The printer prints sin(x_i), cos(x_i)
    and exp(x_i) as the names of those arguments, and jets() computes each
    column once per call.
    """

    def __init__(self, coords, exprs):
        exprs = [sp.sympify(e) for e in exprs]
        check_kernel_symbols(coords, exprs)
        self.n = len(coords)
        self.m = len(exprs)
        self._kernels = {}
        self._rows = {}
        self._columns = []
        applied = set().union(*(e.atoms(sp.sin, sp.cos, sp.exp) for e in exprs))
        columns = {}
        for i, c in enumerate(coords):
            # sin and cos of a coordinate differentiate into each other
            for f, g in ((sp.sin, sp.cos), (sp.cos, sp.sin), (sp.exp, sp.exp)):
                if f(c) in applied or g(c) in applied:
                    self._columns.append((getattr(np, f.__name__), i))
                    columns[f(c)] = sp.Symbol(f"{f.__name__}_{c.name}")
        args = list(coords) + list(columns.values())
        memo, printer = {}, KernelPrinter(columns)
        for a, expr in enumerate(exprs):
            derivs = {(): expr}
            for k in range(4):
                for idx in itertools.combinations_with_replacement(range(self.n), k):
                    if k:
                        derivs[idx] = derivative(derivs[idx[:-1]], coords[idx[-1]], memo)
                    try:
                        self._kernels[a, idx] = numpy_kernel(args, derivs[idx], printer)
                    except DomainError as err:
                        raise DomainError(f"component {a} ({expr}): {err}") from None
                    slots = [perm + (a,) for perm in set(itertools.permutations(idx))]
                    self._rows[a, idx] = np.ravel_multi_index(np.transpose(slots),
                                                              (self.n,) * k + (self.m,))

    def jets(self, x: np.ndarray, order: int = 2) -> Jets:
        x = sample_points(x, self.n)
        npts = x.shape[0]
        coords = [x[:, i] for i in range(self.n)]
        args = coords + [f(coords[i]) for f, i in self._columns]
        top = 3 if order >= 3 else 2
        bufs = [np.empty((self.n,) * k + (self.m, npts)) for k in range(top + 1)]
        rows = [buf.reshape(-1, npts) for buf in bufs]
        for (a, idx), kernel in self._kernels.items():
            if len(idx) <= top:
                rows[len(idx)][self._rows[a, idx]] = kernel(*args)
        return Jets(*(np.moveaxis(buf, -1, 0) for buf in bufs))


# 4th-order central stencils (Fornberg, Math. Comp. 51, 1988) on offsets
# -2..2 steps: first-derivative and second-derivative weights
_OFF = (-2, -1, 0, 1, 2)
_W1_4 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_W2_4 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0


def stencil_jets(sample, steps, order: int = 2):
    """Value and 4th-order central-difference derivatives of a sampled field.

    sample(shift) returns the field at the points moved by shift, a tuple of
    (axis, offset) pairs in units of steps[axis]; the empty shift is the
    field at the points themselves.  Each distinct shift is sampled once:
    1 + 4d samples for order 1 and 1 + 4d + 8d(d-1) for order 2 over
    d = len(steps) axes.  Returns (f, df) or (f, df, d2f) with the
    derivative axes right after the point axis: df[:, i] = d_i f and
    d2f[:, i, j] = d_i d_j f.  Mixed derivatives use the tensor product of
    the first-derivative stencil.
    """
    cache = {}

    def at(*shift):
        key = tuple((axis, o) for axis, o in shift if o)
        if key not in cache:
            cache[key] = sample(key)
        return cache[key]

    f0 = at()
    dim = len(steps)
    df = np.empty((f0.shape[0], dim) + f0.shape[1:])
    for i in range(dim):
        df[:, i] = sum(w * at((i, o)) for o, w in zip(_OFF, _W1_4) if w) / steps[i]
    if order < 2:
        return f0, df
    d2f = np.empty((f0.shape[0], dim, dim) + f0.shape[1:])
    for i in range(dim):
        d2f[:, i, i] = sum(w * at((i, o)) for o, w in zip(_OFF, _W2_4)) / steps[i] ** 2
    for i in range(dim):
        for j in range(i + 1, dim):
            acc = sum(wi * wj * at((i, oi), (j, oj))
                      for oi, wi in zip(_OFF, _W1_4) if wi
                      for oj, wj in zip(_OFF, _W1_4) if wj)
            d2f[:, i, j] = d2f[:, j, i] = acc / (steps[i] * steps[j])
    return f0, df, d2f


def callable_jets(fn, x: np.ndarray, steps, order: int = 2):
    """stencil_jets of a callable field, sampled at x + offset*steps[axis]*e_axis."""
    x = np.atleast_2d(np.asarray(x, dtype=float))

    def sample(shift):
        xs = x.copy()
        for axis, o in shift:
            xs[:, axis] += o * steps[axis]
        return np.asarray(fn(xs), dtype=float)

    return stencil_jets(sample, steps, order)


class FiniteDifferenceSupplier:
    """Jets of a black-box immersion callable via central stencils.

    First and second derivatives use 4th-order stencils; third derivatives
    difference the second-derivative output with a 2nd-order stencil.  The
    step is per-axis and should be small relative to the feature scale of
    the immersion but large enough to stay clear of rounding noise.
    """

    def __init__(self, fn, n: int, step=1e-2):
        self.fn = fn
        self.n = n
        self.step = stencil_steps(step, n)

    def jets(self, x: np.ndarray, order: int = 2) -> Jets:
        x = sample_points(x, self.n)
        r0, d1, d2 = callable_jets(self.fn, x, self.step)
        d3 = None
        if order >= 3:
            # d3[:, i, j, k] differences d2[:, i, j] along axis k
            d3 = np.empty((x.shape[0],) + (self.n,) * 3 + r0.shape[1:])
            for k, h in enumerate(10.0 * self.step):
                shift = h * np.eye(self.n)[k]
                d3[:, :, :, k] = (callable_jets(self.fn, x + shift, self.step)[2]
                                  - callable_jets(self.fn, x - shift, self.step)[2]) / (2 * h)
            d3 = 0.5 * (d3 + np.swapaxes(d3, 2, 3))
        return Jets(r=r0, d1=d1, d2=d2, d3=d3)


def cofactor_normal(t: np.ndarray) -> np.ndarray:
    """Generalized cross product of the n tangent vectors, given point-last as
    t[i, a] = d_i r^a (n, n+1, M): the signed n x n minors
    raw[:, a] = (-1)^(a+n) det(t without column a), shape (M, n+1).

    The minors come from Laplace expansion along the last tangent vector over
    every subset of components, all n+1 minors at once, elementwise over the
    point axis: exact, no pivoting.  Each of the fewer than m 2^(m-1) terms
    (m = n+1 components) is one product, added or subtracted by the parity of
    its sign, so no array is multiplied by -1; each sum starts from 0.0, so a
    zero minor is +0.0 whatever the sign of its first term.
    """
    n, m = t.shape[:2]
    minors = {(a,): t[0, a] for a in range(m)}  # rows -> minor of the first len(rows) vectors
    for k in range(1, n):
        expanded = {}
        for rows in itertools.combinations(range(m), k + 1):
            acc = 0.0
            for j, a in enumerate(rows):
                term = t[k, a] * minors[rows[:j] + rows[j + 1:]]
                acc = acc - term if (j + k) % 2 else acc + term
            expanded[rows] = acc
        minors = expanded
    cofactors = [minors[tuple(b for b in range(m) if b != a)] for a in range(m)]
    return np.stack([-c if (a + n) % 2 else c for a, c in enumerate(cofactors)], axis=1)


def cholesky_frame(gt: np.ndarray) -> np.ndarray:
    """E = L^-T for the Cholesky factor g = L L^T of a batch of metrics,
    given point-last as gt[i, j] = g_ij (n, n, M); E is point-first, (M, n, n).

    The columns of E are the g-orthonormal frame that Gram-Schmidt builds
    from the coordinate vectors in index order, so for leafwise-first
    coordinates the leading s columns span the leaves and their leading s x s
    block is the frame of the leaf metric; g^-1 = E E^T.  Computed
    elementwise over the point axis; a non-positive pivot raises
    SingularImmersionError.
    """
    n = gt.shape[0]
    low = {}
    for j in range(n):
        pivot = gt[j, j] - sum(low[j, k] ** 2 for k in range(j))
        if not np.all(pivot > 0):
            raise SingularImmersionError("metric is not positive definite on the patch")
        low[j, j] = np.sqrt(pivot)
        for i in range(j + 1, n):
            low[i, j] = (gt[i, j] - sum(low[i, k] * low[j, k] for k in range(j))) / low[j, j]
    # E^T = L^-1 by forward substitution, one column of L^-1 at a time
    e = np.zeros((gt.shape[-1], n, n))
    for j in range(n):
        col = {j: 1.0 / low[j, j]}
        for i in range(j + 1, n):
            col[i] = -sum(low[i, k] * col[k] for k in range(j, i)) / low[i, i]
        for i, v in col.items():
            e[:, j, i] = v
    return e


def normal_jets(jets: Jets, orientation: float = 1.0):
    """Unit normal of the immersion, the first and second fundamental forms,
    the adapted frame and the volume density: (normal, g, h, frame,
    sqrt det g), what every geometry reads, each point-first and the first
    four C-contiguous.

    The raw normal is the generalized cross product of the tangent vectors
    (``cofactor_normal``); its length equals sqrt(det g) by Cauchy-Binet.
    ``frame`` is ``cholesky_frame(g)``.  The orientation flag flips the sign
    of the returned normal.  g^-1, the Weingarten map A = g^-1 h and
    dN = -A^k_i r_k are left to ``PointGeometry``, which builds them on
    first use.  No LAPACK call: every kernel is elementwise over the point
    axis, g_ij = sum_a d_i r^a d_j r^a and h_ij = sum_a N^a d_i d_j r^a
    among them, each one einsum over point-last rows of the jets: one long
    call that releases the GIL, bit-identical to a Python sum of the rows
    on every catalog surface.  Those are read in
    place from ``AnalyticSupplier`` jets; the first derivatives of any other
    supplier are copied to that layout and its second derivatives read
    through a strided view.
    """
    t = np.ascontiguousarray(np.moveaxis(jets.d1, 0, -1))  # t[i, a] = d_i r^a over points
    d2t = np.moveaxis(jets.d2, 0, -1)  # d2t[i, j, a] = d_i d_j r^a over points
    raw = cofactor_normal(t)
    length = np.sqrt(np.einsum("pa,pa->p", raw, raw))
    if np.any(length <= 0) or not np.all(np.isfinite(length)):
        raise SingularImmersionError("immersion Jacobian is rank-deficient")
    nvec = orientation * raw / length[:, None]
    nt = np.ascontiguousarray(nvec.T)
    gt = np.einsum("iap,jap->ijp", t, t)
    ht = np.einsum("ap,ijap->ijp", nt, d2t)
    g, h = (np.ascontiguousarray(np.moveaxis(a, -1, 0)) for a in (gt, ht))
    return nvec, g, h, cholesky_frame(gt), length


def deformed_jets(geo, u, du, d2u, t: float) -> Jets:
    """Jets to second order of r_t = r + t*u*N at the points of an order-3
    base geometry ``geo``, u with gradient du and Hessian d2u there: linear
    in t, the jets of u*N by ``leibniz`` with the normal N and its
    derivatives ``dn`` and ``d2n`` read off ``geo``."""
    jets = geo.jets
    shift = leibniz(",a->a", (u, du, d2u), (geo.normal, geo.dn, geo.d2n))
    return Jets(*(a + t * da for a, da in zip((jets.r, jets.d1, jets.d2), shift)))


class NormalDeformation:
    """Immersion family r_t = r + t*u*N over a base patch.

    Supplies jets up to second order of the deformed immersion at a fixed
    deformation parameter t: ``deformed_jets`` of the base geometry at
    order 3 (the second jet of N needs it), ``base_geometry`` being the base
    patch's bound ``geometry``, so N has the patch's orientation.
    """

    def __init__(self, base_geometry, u_jets_fn, t: float):
        self.base_geometry = base_geometry
        self.u_jets_fn = u_jets_fn
        self.t = float(t)

    def jets(self, x: np.ndarray, order: int = 2) -> Jets:
        if order >= 3:
            raise DomainError("deformed immersions supply jets up to order 2 only")
        geo = self.base_geometry(x, order=3)
        return deformed_jets(geo, *self.u_jets_fn(geo.x), self.t)


class ReparametrizedSupplier:
    """Chart change r' = r o psi by the chain rule (exact, all orders).

    psi_jets_fn(x') must return the jets (y, J, d2psi, d3psi) of psi,
    derivative axes first like every jet: J[p, a, i] = d y^i / d x'^a,
    d2psi[p, a, b, i] and d3psi[p, a, b, c, i].
    """

    def __init__(self, base, psi_jets_fn):
        self.base = base
        self.psi_jets_fn = psi_jets_fn

    def jets(self, x: np.ndarray, order: int = 2) -> Jets:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y, jac, p2, p3 = self.psi_jets_fn(x)
        bj = self.base.jets(y, order=order)
        d1 = np.einsum("pim,pai->pam", bj.d1, jac)
        d2 = np.einsum("pijm,pai,pbj->pabm", bj.d2, jac, jac) + np.einsum(
            "pim,pabi->pabm", bj.d1, p2)
        d3 = None
        if order >= 3:
            d3 = (
                np.einsum("pijkm,pai,pbj,pck->pabcm", bj.d3, jac, jac, jac)
                + np.einsum("pijm,pabi,pcj->pabcm", bj.d2, p2, jac)
                + np.einsum("pijm,paci,pbj->pabcm", bj.d2, p2, jac)
                + np.einsum("pijm,pai,pbcj->pabcm", bj.d2, jac, p2)
                + np.einsum("pim,pabci->pabcm", bj.d1, p3)
            )
        return Jets(r=bj.r, d1=d1, d2=d2, d3=d3)


class ScaledImmersion:
    """Ambient homothety x -> c*x of a base supplier."""

    def __init__(self, base, c: float):
        self.base = base
        self.c = float(c)
        if not np.isfinite(self.c) or self.c == 0.0:
            raise DomainError(f"homothety factor must be finite and nonzero, got {c!r}")

    def jets(self, x: np.ndarray, order: int = 2) -> Jets:
        bj = self.base.jets(x, order=order)
        return Jets(*(None if a is None else self.c * a for a in (bj.r, bj.d1, bj.d2, bj.d3)))


class InvertedImmersion:
    """Möbius inversion x -> x/|x|^2 of a base supplier, to order 3: the
    product r (1/w) by ``leibniz``, w = |r|^2 = leibniz("a,a->", r, r), with
    the jets of 1/w by the chain rule of t -> 1/t.

    The base surface must stay away from the origin.
    """

    def __init__(self, base):
        self.base = base

    def jets(self, x: np.ndarray, order: int = 2) -> Jets:
        top = 3 if order >= 3 else 2
        bj = self.base.jets(x, order=top)
        # contiguous copies: the einsums below round by the memory layout of
        # their operands, which the base supplier chooses
        r = [np.ascontiguousarray(a) for a in (bj.r, bj.d1, bj.d2, bj.d3)[: top + 1]]
        w = leibniz("a,a->", r, r, top)
        if np.any(w[0] < 1e-14):
            raise DomainError("surface passes through the inversion center")
        # d^k (1/t) = (-1)^k k! / t^(k+1)
        iw = 1.0 / w[0]
        f1, f2 = -iw**2, 2.0 * iw**3
        inv = [iw, f1[:, None] * w[1],
               np.einsum("P,PK,PL->PKL", f2, w[1], w[1]) + f1[:, None, None] * w[2]]
        if top == 3:
            pairs = (np.einsum("PKL,PM->PKLM", w[2], w[1]) + np.einsum("PKM,PL->PKLM", w[2], w[1])
                     + np.einsum("PLM,PK->PKLM", w[2], w[1]))
            inv.append(np.einsum("P,PK,PL,PM->PKLM", -6.0 * iw**4, w[1], w[1], w[1])
                       + f2[:, None, None, None] * pairs + f1[:, None, None, None] * w[3])
        return Jets(*leibniz("a,->a", r, inv, top))
