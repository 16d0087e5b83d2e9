"""Derivative suppliers for immersions r : U ⊂ R^n -> R^{n+1}.

A supplier produces the jet of an immersion (value and partial derivatives
up to third order) at a batch of parameter points.  Analytic suppliers
compile one numpy kernel per derivative component of sympy expressions and
evaluate them with numpy; the finite-difference supplier wraps any
callable.  Derived suppliers build normal deformations r + t*u*N, ambient
homotheties and Möbius inversions (to order 3) on top of a base supplier.
The jets of r + t*u*N are linear in t, with coefficients read off one
order-3 base geometry (``deformed_jets``), so a complex step t = i h
deforms the geometry its caller already holds.  ``leibniz`` is the one
product rule for jets: the inversion, the deformation, dg, dh and d2N of
``PointGeometry`` and the metric products of ``operators`` and ``deltas``
state their jets through it.

The kernel sources come from one truncated Taylor tape per build
(``Tape``; Griewank & Walther, Evaluating Derivatives, 2nd ed., SIAM 2008,
ch. 13; Bettencourt, Johnson & Duvenaud, Taylor-mode automatic
differentiation for higher-order derivatives in JAX, 2019): one walk of the
component trees, each shared subtree once, gives every Taylor coefficient to
order 3 as a float or a straight-line numpy expression, and the kernel of a
derivative prints its coefficient times the index's factorials from only the
lines it reads, each line read twice bound once with ``:=``.  A kernel
reads one list X: the coordinate arrays, then the columns sin, cos and exp of
a bare coordinate, which ``jets`` computes once per call with the ufunc a
kernel would call, so every kernel is a pure function of X and the jets are
bit-identical to kernels that call those functions themselves.

Every jet of the package is laid out derivative-first: the derivative axes
come right after the point axis and the value axes last, so d1[p, i, a] =
d_i r^a and the jets of the tangent vectors are the slices (d1, d2, d3).
Analytic jets are point-first views of point-last buffers, one C-contiguous
(n, ..., m, M) buffer per order, so a kernel's value fills each slot of its
index as one contiguous row, and ``normal_jets`` sums over those rows in
place; it returns g, h and the frame point-first and C-contiguous, as the
stacked matrix products of ``PointGeometry`` read them.
"""

from __future__ import annotations

import functools
import itertools
import keyword
import math
from dataclasses import dataclass

import numpy as np
import sympy as sp
from sympy.core.function import AppliedUndef

from .errors import DomainError, SingularImmersionError


@dataclass
class Jets:
    """Immersion jet at a batch of points, derivative axes first as in every
    jet of the package (``leibniz``, ``stencil_jets``): r (M, m) with
    m = n+1, d1[p, i, a] = d_i r^a (M, n, m), d2[p, i, j, a] (M, n, n, m)
    and d3[p, i, j, k, a] (M, n, n, n, m) or None when not requested.  The
    arrays may be point-first views of point-last buffers, as
    ``AnalyticSupplier`` returns them, so no consumer may assume they are
    C-contiguous."""

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


#: the sympy functions that the tape composes, by the numpy function a line calls
_NUMPY_NAMES = {sp.sin: "sin", sp.cos: "cos", sp.tan: "tan", sp.exp: "exp", sp.log: "log",
                sp.sinh: "sinh", sp.cosh: "cosh", sp.tanh: "tanh", sp.asin: "arcsin",
                sp.acos: "arccos", sp.atan: "arctan", sp.asinh: "arcsinh",
                sp.acosh: "arccosh", sp.atanh: "arctanh", sp.atan2: "arctan2"}
_ARGS = (sp.Dummy("u"), sp.Dummy("v"))  # the arguments of a head the tape composes
_PARTIALS = {}  # (head, beta) -> d^beta head, derived once per process


def _partial(head, beta):
    """d^beta head of a sympy expression head(*_ARGS), kept in ``_PARTIALS``."""
    if (head, beta) not in _PARTIALS:
        _PARTIALS[head, beta] = sp.diff(head, *(u for u, b in zip(_ARGS, beta) for _ in range(b)))
    return _PARTIALS[head, beta]


@functools.lru_cache
def _exponents(n: int):
    """The sorted derivative indices of orders 0..3 in n coordinates, and the
    Cauchy product table: table[i][j] = k where idx_k is idx_i + idx_j sorted."""
    indices = [idx for k in range(4)
               for idx in itertools.combinations_with_replacement(range(n), k)]
    position = {idx: i for i, idx in enumerate(indices)}
    return indices, [{j: position[s] for j, b in enumerate(indices)
                      if (s := tuple(sorted(a + b))) in position} for a in indices]


def _prefix(c: float) -> str:
    return "" if c == 1.0 else "-" if c == -1.0 else f"{c!r}*"


class Tape:
    """Truncated Taylor jets, to order 3, of sympy expressions in the
    coordinates: {position of a sorted index idx (``_exponents``): the
    coefficient of prod_i dx_idx_i}, structural zeros left out.  A coefficient
    is a float or (c, k), c times the line k: a tuple of source text and the
    numbers of the lines it reads, equal lines being one line.  ``jet`` walks
    a tree once per memo: Add adds, Mul takes the Cauchy product, Pow with a
    constant exponent and the functions of ``_NUMPY_NAMES`` compose,
    f(u0 + du) = sum_beta d^beta f(u0) du^beta / beta!, the partials walked
    with the dummies bound to u0, and b**p is exp(p log b).  Any other node,
    a constant that is no finite real and a free symbol that is no coordinate
    raise DomainError.  Coordinate i, matched by name, prints as X[i]; with
    ``columns``, sin, cos and exp of a bare coordinate print as X[n + j], the
    j-th entry (ufunc, i) of ``columns``."""

    def __init__(self, coords, columns: bool = True):
        for c in coords:
            if (not isinstance(c, sp.Symbol) or isinstance(c, sp.Dummy)
                    or not c.name.isidentifier() or keyword.iskeyword(c.name)):
                raise DomainError(f"coordinate {c!r} is not a Symbol named by a Python identifier")
        self.coords = {c.name: i for i, c in enumerate(coords)}
        if len(self.coords) < len(coords):
            raise DomainError(f"coordinates {tuple(coords)} repeat a name")
        self.indices, self.table = _exponents(len(coords))
        self.lines, self.shared, self.sums, self.memo, self.expr = [], {}, {}, {}, None
        self.columns = [] if columns else None  # None: print sin(X[i]) itself
        self.args = [(1.0, self.line((f"X[{i}]",))) for i in range(len(coords))]

    def line(self, parts: tuple) -> int:
        if parts not in self.shared:
            self.shared[parts] = len(self.lines)
            self.lines.append(parts)
        return self.shared[parts]

    def jet(self, expr, memo: dict) -> dict:
        if expr not in memo:
            memo[expr] = self._rule(expr, memo)
        return memo[expr]

    def _rule(self, expr, memo):
        if expr.is_Symbol:
            if expr.name not in self.coords:
                raise DomainError(f"free symbol {expr} of {self.expr} is not a coordinate "
                                  f"({', '.join(self.coords)})")
            i = self.coords[expr.name]
            return {0: self.args[i], i + 1: 1.0}
        if expr.is_Atom:
            return self.constant(expr)
        if expr.is_Add:
            return self.collect(t for arg in expr.args for t in self.jet(arg, memo).items())
        if expr.is_Mul:
            return functools.reduce(self.product, [self.jet(a, memo) for a in expr.args])
        if expr.is_Pow:
            b, p = expr.args
            if p.is_Atom and not p.is_Symbol:
                return self.compose(_ARGS[0]**p, "power", [self.jet(b, memo)],
                                    self.constant(p).get(0, 0.0))
            log = self.compose(sp.log(_ARGS[0]), "log", [self.jet(b, memo)])
            return self.compose(sp.exp(_ARGS[0]), "exp", [self.product(self.jet(p, memo), log)])
        if type(expr) not in _NUMPY_NAMES:
            kind = "undefined function" if isinstance(expr, AppliedUndef) else "no Taylor rule for"
            raise DomainError(f"{kind} {type(expr).__name__}({', '.join(map(str, expr.args))}) "
                              f"in {self.expr}")
        return self.compose(type(expr)(*_ARGS[:len(expr.args)]), _NUMPY_NAMES[type(expr)],
                            [self.jet(a, memo) for a in expr.args])

    def constant(self, expr) -> dict:
        try:
            value = float(expr)
        except (TypeError, OverflowError):
            value = math.nan
        if not math.isfinite(value):
            raise DomainError(f"{expr} in {self.expr} is not a finite real number")
        return {0: value} if value else {}

    def compose(self, head, name: str, jets: list, *constants) -> dict:
        """Jets of head(u) for the jets of its arguments u, head(u0) being the
        numpy call name(u0, *constants)."""
        base = [jet.get(0, 0.0) for jet in jets]
        terms, powers = [(0, self.call(name, base + list(constants)))], []
        for jet in jets:
            delta, power = {i: c for i, c in jet.items() if i}, [{0: 1.0}]
            while delta and power[-1] and len(power) < 4:
                power.append(self.product(power[-1], delta))
            powers.append(power)
        memo = {u: {0: b} if b else {} for u, b in zip(_ARGS, base)}
        for beta in itertools.product(*(range(len(p)) for p in powers)):
            if not 0 < sum(beta) < 4:
                continue
            term = functools.reduce(self.product, [p[b] for p, b in zip(powers, beta)])
            partial = self.jet(_partial(head, beta), memo).get(0) if term else None
            if partial is not None:
                scale = self.mul(partial, 1.0 / math.prod(map(math.factorial, beta)))
                terms += [(i, self.mul(scale, c)) for i, c in term.items()]
        return self.collect(terms)

    def call(self, name: str, args: list):
        """The coefficient name(*args): a float if every argument is one, else
        a line ("power" prints as **)."""
        if not any(type(a) is tuple for a in args):
            with np.errstate(all="ignore"):
                value = float(getattr(np, name)(*args))
            if not math.isfinite(value):
                raise DomainError(f"{name}{tuple(args)} in {self.expr} is not finite")
            return value
        if self.columns is not None and name in ("sin", "cos", "exp") and args[0] in self.args:
            column = getattr(np, name), self.args.index(args[0])
            if column not in self.columns:
                self.columns.append(column)
            return 1.0, self.line((f"X[{len(self.args) + self.columns.index(column)}]",))
        ops = [repr(a) if type(a) is not tuple else a[1] if a[0] == 1.0
               else self.line((_prefix(a[0]), a[1])) for a in args]
        if name == "power":
            return 1.0, self.line((ops[0], f"**{ops[1]}"))
        return 1.0, self.line((f"{name}(", ops[0]) + tuple(x for op in ops[1:] for x in (", ", op))
                              + (")",))

    def mul(self, a, b):
        if type(a) is not tuple:
            return a * b if type(b) is not tuple else (a * b[0], b[1])
        if type(b) is not tuple:
            return a[0] * b, a[1]
        return a[0] * b[0], self.line((min(a[1], b[1]), "*", max(a[1], b[1])))

    def add(self, cs: list):
        """The sum of the coefficients cs: their constants folded, and one line
        of their lines with a common factor +-c kept out of it."""
        if len(cs) == 1:
            return cs[0]
        const, scales = 0.0, {}
        for c in cs:
            if type(c) is tuple:
                scales[c[1]] = scales.get(c[1], 0.0) + c[0]
            else:
                const += c
        terms = sorted((k, s) for k, s in scales.items() if s)
        if not terms:
            return const
        common = 1.0 if const or any(abs(s) != abs(terms[0][1]) for _, s in terms) else terms[0][1]
        if len(terms) == 1 and not const:
            return common, terms[0][0]
        terms = [(k, s / common) for k, s in terms]
        parts = []
        for k, s in terms:
            sign = ("-" if s < 0 else "") if not parts else " - " if s < 0 else " + "
            parts += [sign + _prefix(abs(s)), k]
        if const:
            parts.append(f" - {-const!r}" if const < 0 else f" + {const!r}")
        k = self.line(tuple(parts))
        self.sums[k] = [(s, t) for t, s in terms] + ([const] if const else [])
        return common, k

    def collect(self, terms) -> dict:
        """The jet of the (position, coefficient) pairs terms."""
        sums = {}
        for i, c in terms:
            sums.setdefault(i, []).append(c)
        return {i: s for i, cs in sums.items() if (s := self.add(cs)) != 0.0}

    def product(self, a: dict, b: dict) -> dict:
        """The Cauchy product of two jets, truncated at order 3."""
        return self.collect((row[j], self.mul(ca, cb)) for i, ca in a.items()
                            for row in (self.table[i],) for j, cb in b.items() if j in row)

    def source(self, coefficient, factor: float) -> str:
        """The numpy source of coefficient * factor, a sum's factor taken into
        its terms: one expression of only the lines it reads, each line it reads
        more than once bound as ``(_t<j> := ...)`` where the text first reads it,
        which Python evaluates first, and read by name after that."""
        if type(coefficient) is not tuple:
            return repr(coefficient * factor)
        c, k = coefficient[0] * factor, coefficient[1]
        if c != 1.0 and k in self.sums:
            c, k = self.add([self.mul(t, c) for t in self.sums[k]])
        reads, names = {}, {}

        def count(k):
            reads[k] = reads.get(k, 0) + 1
            for p in self.lines[k] if reads[k] == 1 else ():
                if type(p) is int:
                    count(p)

        def text(k, bare):
            parts = self.lines[k]
            if k in names or len(parts) == 1:
                return names.get(k, parts[0])
            call = type(parts[0]) is str and parts[0].endswith("(")
            body = "".join(p if type(p) is str else text(p, call) for p in parts)
            if reads[k] > 1:
                names[k] = f"_t{len(names)}"
                return f"({names[k]} := {body})"
            return body if call or bare else f"({body})"

        count(k)
        return _prefix(c) + text(k, c == 1.0)


def numpy_kernel(args, source: str):
    """One numpy kernel of a printed source that indexes the one symbol of
    args, compiled by one lambdify call with no docstring.  It reads the list
    of its array arguments and returns a float array of the first one's shape."""
    fn = sp.lambdify(args, source, modules="numpy", docstring_limit=0)

    def kernel(*values):
        values = [np.asarray(v, dtype=float) for v in values]
        value, shape = np.asarray(fn(values), dtype=float), values[0].shape
        return value if value.shape == shape else np.broadcast_to(value, shape)

    return kernel


def taylor_kernels(coords, exprs, columns: bool = True):
    """{(a, idx): kernel} for each component a and sorted index idx of order
    0..3, in that order, and the columns of their one ``Tape``: the kernel of
    (a, idx) returns d_idx expr_a of the coordinates and then the columns."""
    tape = Tape(coords, columns)
    jets = []
    for a, expr in enumerate(exprs):
        tape.expr = sp.sympify(expr)
        try:
            jets.append(tape.jet(tape.expr, tape.memo))
        except DomainError as err:
            raise DomainError(f"component {a}: {err}") from None
    return {(a, idx): numpy_kernel([sp.Symbol("X")], tape.source(
                jet.get(i, 0.0), math.prod(math.factorial(idx.count(j)) for j in set(idx))))
            for a, jet in enumerate(jets) for i, idx in enumerate(tape.indices)}, tape.columns


class AnalyticSupplier:
    """Closed-form jets of sympy components, one more than the coordinates:
    the kernels of ``taylor_kernels`` and the rows each one's value fills, one
    per permutation of its index, in the point-last buffer of its order
    (``_rows``).  jets() evaluates each kernel once, on the coordinates and
    then the columns (``_columns``), which it computes once per call."""

    def __init__(self, coords, exprs):
        self.n, self.m = len(coords), len(exprs)
        if self.m != self.n + 1:
            raise DomainError(f"an immersion of {self.n} coordinates has {self.n + 1} "
                              f"components, got {self.m}")
        self._kernels, self._columns = taylor_kernels(coords, exprs)
        self._rows = {}
        for a, idx in self._kernels:
            slots = [perm + (a,) for perm in set(itertools.permutations(idx))]
            self._rows[a, idx] = np.ravel_multi_index(np.transpose(slots),
                                                      (self.n,) * len(idx) + (self.m,))

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
    elementwise over the point axis in g's dtype; a pivot of non-positive
    real part raises SingularImmersionError.
    """
    n = gt.shape[0]
    low = {}
    for j in range(n):
        pivot = gt[j, j] - sum(low[j, k] ** 2 for k in range(j))
        if not np.all(np.real(pivot) > 0):
            raise SingularImmersionError("metric is not positive definite on the patch")
        low[j, j] = np.sqrt(pivot)
        for i in range(j + 1, n):
            low[i, j] = (gt[i, j] - sum(low[i, k] * low[j, k] for k in range(j))) / low[j, j]
    # E^T = L^-1 by forward substitution, one column of L^-1 at a time
    e = np.zeros((gt.shape[-1], n, n), dtype=gt.dtype)
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
    first use.  No LAPACK call: g_ij = sum_a d_i r^a d_j r^a and
    h_ij = sum_a N^a d_i d_j r^a are each one einsum over point-last rows of
    the jets, bit-identical to a Python sum of the rows on every catalog
    surface, read in place from ``AnalyticSupplier`` jets; the first
    derivatives of any other supplier are copied to that layout.
    """
    t = np.ascontiguousarray(np.moveaxis(jets.d1, 0, -1))  # t[i, a] = d_i r^a over points
    d2t = np.moveaxis(jets.d2, 0, -1)  # d2t[i, j, a] = d_i d_j r^a over points
    raw = cofactor_normal(t)
    length = np.sqrt(np.einsum("pa,pa->p", raw, raw))
    if np.any(np.real(length) <= 0) or not np.all(np.isfinite(length)):
        raise SingularImmersionError("immersion Jacobian is rank-deficient")
    nvec = orientation * raw / length[:, None]
    nt = np.ascontiguousarray(nvec.T)
    gt = np.einsum("iap,jap->ijp", t, t)
    ht = np.einsum("ap,ijap->ijp", nt, d2t)
    g, h = (np.ascontiguousarray(np.moveaxis(a, -1, 0)) for a in (gt, ht))
    return nvec, g, h, cholesky_frame(gt), length


def deformed_jets(geo, u, du, d2u, t: complex) -> Jets:
    """Jets to second order of r_t = r + t*u*N at the points of an order-3
    base geometry ``geo``, u with gradient du and Hessian d2u there: linear
    in t, the jets of u*N by ``leibniz`` with the normal N and its
    derivatives ``dn`` and ``d2n`` read off ``geo``; t may be complex."""
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
