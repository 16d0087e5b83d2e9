"""Derivative suppliers for immersions r : U ⊂ R^n -> R^{n+1}.

A supplier produces the jet of an immersion (value and partial derivatives
up to third order) at a batch of parameter points.  Analytic suppliers are
generated from sympy expressions once and evaluated with numpy; the
finite-difference supplier wraps any callable.  Derived suppliers build
normal deformations r + t*u*N, ambient homotheties and Möbius inversions
on top of a base supplier.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import sympy as sp

from .errors import DomainError, SingularImmersionError


@dataclass
class Jets:
    """Immersion jet at a batch of points.

    r has shape (M, m) with m = n+1; d1 (M, m, n); d2 (M, m, n, n);
    d3 (M, m, n, n, n) or None when not requested/available.
    """

    r: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    d3: np.ndarray | None = None


class AnalyticSupplier:
    """Closed-form jets lambdified from sympy component expressions."""

    def __init__(self, coords, exprs):
        self.n = len(coords)
        self.m = len(exprs)
        self._f = []
        self._f1 = {}
        self._f2 = {}
        self._f3 = {}
        for a, expr in enumerate(exprs):
            expr = sp.sympify(expr)
            self._f.append(sp.lambdify(coords, expr, modules="numpy"))
            for i in range(self.n):
                di = sp.diff(expr, coords[i])
                self._f1[a, i] = sp.lambdify(coords, di, modules="numpy")
                for j in range(i, self.n):
                    dij = sp.diff(di, coords[j])
                    self._f2[a, i, j] = sp.lambdify(coords, dij, modules="numpy")
                    for k in range(j, self.n):
                        dijk = sp.diff(dij, coords[k])
                        self._f3[a, i, j, k] = sp.lambdify(coords, dijk, modules="numpy")

    def _eval(self, fn, args, mpts):
        val = fn(*args)
        return np.broadcast_to(np.asarray(val, dtype=float), (mpts,))

    def jets(self, x: np.ndarray, order: int = 2) -> Jets:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        mpts = x.shape[0]
        args = [x[:, i] for i in range(self.n)]
        r = np.stack([self._eval(f, args, mpts) for f in self._f], axis=1)
        d1 = np.empty((mpts, self.m, self.n))
        for a in range(self.m):
            for i in range(self.n):
                d1[:, a, i] = self._eval(self._f1[a, i], args, mpts)
        d2 = np.empty((mpts, self.m, self.n, self.n))
        for a in range(self.m):
            for i in range(self.n):
                for j in range(i, self.n):
                    v = self._eval(self._f2[a, i, j], args, mpts)
                    d2[:, a, i, j] = v
                    d2[:, a, j, i] = v
        d3 = None
        if order >= 3:
            d3 = np.empty((mpts, self.m, self.n, self.n, self.n))
            for a in range(self.m):
                for i in range(self.n):
                    for j in range(i, self.n):
                        for k in range(j, self.n):
                            v = self._eval(self._f3[a, i, j, k], args, mpts)
                            for perm in set(itertools.permutations((i, j, k))):
                                d3[(slice(None), a) + perm] = v
        return Jets(r=r, d1=d1, d2=d2, d3=d3)


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
        self.step = np.broadcast_to(np.asarray(step, dtype=float), (n,)).copy()

    def _jets2(self, x):
        """(r, d1, d2) with the derivative axes last."""
        r0, d1, d2 = callable_jets(self.fn, x, self.step)
        return r0, np.moveaxis(d1, 1, -1), np.moveaxis(d2, (1, 2), (-2, -1))

    def jets(self, x: np.ndarray, order: int = 2) -> Jets:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        r0, d1, d2 = self._jets2(x)
        d3 = None
        if order >= 3:
            d3 = np.empty(d2.shape + (self.n,))
            for k in range(self.n):
                h = 10.0 * self.step[k]
                xp = x.copy()
                xp[:, k] += h
                xm = x.copy()
                xm[:, k] -= h
                d3[..., k] = (self._jets2(xp)[2] - self._jets2(xm)[2]) / (2 * h)
            d3 = 0.5 * (d3 + np.swapaxes(d3, -1, -2))
        return Jets(r=r0, d1=d1, d2=d2, d3=d3)


def cofactor_normal(d1: np.ndarray) -> np.ndarray:
    """Generalized cross product of the n columns of d1 (M, n+1, n): the
    signed n x n minors raw[:, a] = (-1)^(a+n) det(d1 without row a).

    The minors come from Laplace expansion along the last column over every
    subset of rows, all n+1 minors at once (m 2^(m-1) array operations for
    m = n+1 rows), elementwise over the point axis: exact, no pivoting.
    """
    m, n = d1.shape[1:]
    t = np.ascontiguousarray(np.moveaxis(d1, 0, -1))  # t[a, i] = d_i r^a over points
    minors = {(a,): t[a, 0] for a in range(m)}  # rows -> minor on the first len(rows) columns
    for k in range(1, n):
        minors = {rows: sum((-1.0) ** (j + k) * t[a, k] * minors[rows[:j] + rows[j + 1:]]
                            for j, a in enumerate(rows))
                  for rows in itertools.combinations(range(m), k + 1)}
    return np.stack([(-1.0) ** (a + n) * minors[tuple(b for b in range(m) if b != a)]
                     for a in range(m)], axis=1)


def cholesky_frame(g: np.ndarray) -> np.ndarray:
    """E = L^-T for the Cholesky factor g = L L^T of a batch of metrics.

    The columns of E are the g-orthonormal frame that Gram-Schmidt builds
    from the coordinate vectors in index order, so for leafwise-first
    coordinates the leading s columns span the leaves and their leading s x s
    block is the frame of the leaf metric; g^-1 = E E^T.  Computed
    elementwise over the point axis; a non-positive pivot raises
    SingularImmersionError.
    """
    n = g.shape[-1]
    gt = np.moveaxis(g, 0, -1)
    low = {}
    for j in range(n):
        pivot = gt[j, j] - sum(low[j, k] ** 2 for k in range(j))
        if not np.all(pivot > 0):
            raise SingularImmersionError("metric is not positive definite on the patch")
        low[j, j] = np.sqrt(pivot)
        for i in range(j + 1, n):
            low[i, j] = (gt[i, j] - sum(low[i, k] * low[j, k] for k in range(j))) / low[j, j]
    # E^T = L^-1 by forward substitution, one column of L^-1 at a time
    e = np.zeros(g.shape)
    for j in range(n):
        col = {j: 1.0 / low[j, j]}
        for i in range(j + 1, n):
            col[i] = -sum(low[i, k] * col[k] for k in range(j, i)) / low[i, i]
        for i, v in col.items():
            e[:, j, i] = v
    return e


def normal_jets(jets: Jets, orientation: float = 1.0):
    """Unit normal of the immersion, its 1-jet, the first and second
    fundamental forms and the adapted frame: (normal, dn, shape operator, g,
    g^-1, h, frame, sqrt det g).

    The raw normal is the generalized cross product of the tangent vectors
    (``cofactor_normal``); its length equals sqrt(det g) by Cauchy-Binet.
    ``frame`` is ``cholesky_frame(g)`` and g^-1 = frame frame^T.  The
    orientation flag flips the sign of the returned normal.  First
    derivatives come from the Weingarten map dN = -A^k_i r_k.  No LAPACK
    call: every kernel is elementwise over the point axis.
    """
    d1 = jets.d1
    raw = cofactor_normal(d1)
    length = np.sqrt(np.einsum("pa,pa->p", raw, raw))
    if np.any(length <= 0) or not np.all(np.isfinite(length)):
        raise SingularImmersionError("immersion Jacobian is rank-deficient")
    nvec = orientation * raw / length[:, None]

    g = np.einsum("pai,paj->pij", d1, d1)
    frame = cholesky_frame(g)
    g_inv = frame @ np.swapaxes(frame, -1, -2)
    h = np.einsum("pa,paij->pij", nvec, jets.d2)
    a_op = np.einsum("pik,pkj->pij", g_inv, h)
    dn = -np.einsum("pki,pak->pai", a_op, d1)  # dn[:, :, i] = partial_i N
    return nvec, dn, a_op, g, g_inv, h, frame, length


def metric_derivative(jets: Jets) -> np.ndarray:
    """dg[:, k, i, j] = partial_k g_ij."""
    d1, d2 = jets.d1, jets.d2
    return np.einsum("paik,paj->pkij", d2, d1) + np.einsum("pai,pajk->pkij", d1, d2)


def second_form_derivative(jets: Jets, nvec: np.ndarray, dn: np.ndarray) -> np.ndarray:
    """dh[:, k, i, j] = partial_k h_ij, from third-order immersion jets."""
    if jets.d3 is None:
        raise DomainError("the derivative of the second fundamental form needs "
                          "third-order immersion jets")
    return np.einsum("pak,paij->pkij", dn, jets.d2) + np.einsum("pa,paijk->pkij", nvec, jets.d3)


class NormalDeformation:
    """Immersion family r_t = r + t*u*N over a base supplier.

    Supplies jets up to second order of the deformed immersion at a fixed
    deformation parameter t; the base supplier must provide third-order
    jets (the second jet of N needs them).
    """

    def __init__(self, base, u_jets_fn, t: float, orientation: float = 1.0):
        self.base = base
        self.u_jets_fn = u_jets_fn
        self.t = float(t)
        self.orientation = float(orientation)

    def jets(self, x: np.ndarray, order: int = 2) -> Jets:
        if order >= 3:
            raise DomainError("deformed immersions supply jets up to order 2 only")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        bj = self.base.jets(x, order=3)
        nvec, dn, a_op, _, g_inv, h, _, _ = normal_jets(bj, self.orientation)
        # d2n[:, :, i, j] = partial_ij N, differentiating dN = -A^k_i r_k
        dg_inv = -np.einsum("pim,pkmn,pnj->pkij", g_inv, metric_derivative(bj), g_inv)
        da = np.einsum("pkim,pmj->pkij", dg_inv, h) + np.einsum(
            "pim,pkmj->pkij", g_inv, second_form_derivative(bj, nvec, dn))
        d2n = -np.einsum("pjki,pak->paij", da, bj.d1) - np.einsum("pki,pakj->paij", a_op, bj.d2)
        u, du, d2u = self.u_jets_fn(x)
        t = self.t
        r = bj.r + t * u[:, None] * nvec
        d1 = bj.d1 + t * (du[:, None, :] * nvec[:, :, None] + u[:, None, None] * dn)
        d2 = bj.d2 + t * (
            d2u[:, None, :, :] * nvec[:, :, None, None]
            + du[:, None, :, None] * dn[:, :, None, :]
            + du[:, None, None, :] * dn[:, :, :, None]
            + u[:, None, None, None] * d2n
        )
        return Jets(r=r, d1=d1, d2=d2, d3=None)


class ReparametrizedSupplier:
    """Chart change r' = r o psi by the chain rule (exact, all orders).

    psi_jets_fn(x') must return (y, J, d2psi, d3psi) with J[p,i,a] =
    d y^i / d x'^a and the higher jets shaped accordingly.
    """

    def __init__(self, base, psi_jets_fn):
        self.base = base
        self.psi_jets_fn = psi_jets_fn

    def jets(self, x: np.ndarray, order: int = 2) -> Jets:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y, jac, p2, p3 = self.psi_jets_fn(x)
        bj = self.base.jets(y, order=order)
        d1 = np.einsum("pmi,pia->pma", bj.d1, jac)
        d2 = np.einsum("pmij,pia,pjb->pmab", bj.d2, jac, jac) + np.einsum(
            "pmi,piab->pmab", bj.d1, p2)
        d3 = None
        if order >= 3:
            d3 = (
                np.einsum("pmijk,pia,pjb,pkc->pmabc", bj.d3, jac, jac, jac)
                + np.einsum("pmij,piab,pjc->pmabc", bj.d2, p2, jac)
                + np.einsum("pmij,piac,pjb->pmabc", bj.d2, p2, jac)
                + np.einsum("pmij,pia,pjbc->pmabc", bj.d2, jac, p2)
                + np.einsum("pmi,piabc->pmabc", bj.d1, p3)
            )
        return Jets(r=bj.r, d1=d1, d2=d2, d3=d3)


class ScaledImmersion:
    """Ambient homothety x -> c*x of a base supplier."""

    def __init__(self, base, c: float):
        self.base = base
        self.c = float(c)

    def jets(self, x: np.ndarray, order: int = 2) -> Jets:
        bj = self.base.jets(x, order=order)
        c = self.c
        return Jets(
            r=c * bj.r,
            d1=c * bj.d1,
            d2=c * bj.d2,
            d3=None if bj.d3 is None else c * bj.d3,
        )


class InvertedImmersion:
    """Möbius inversion x -> x/|x|^2 of a base supplier (chain rule, order 2).

    The base surface must stay away from the origin.
    """

    def __init__(self, base):
        self.base = base

    def jets(self, x: np.ndarray, order: int = 2) -> Jets:
        if order >= 3:
            raise DomainError("inverted immersions supply jets up to order 2 only")
        bj = self.base.jets(x, order=2)
        r, d1, d2 = bj.r, bj.d1, bj.d2
        w = np.einsum("pa,pa->p", r, r)
        if np.any(w < 1e-14):
            raise DomainError("surface passes through the inversion center")
        dw = 2.0 * np.einsum("pa,pai->pi", r, d1)
        d2w = 2.0 * (np.einsum("pai,paj->pij", d1, d1) + np.einsum("pa,paij->pij", r, d2))
        iw = 1.0 / w
        ri = d1 * iw[:, None, None] - r[:, :, None] * (dw * iw[:, None] ** 2)[:, None, :]
        rij = (
            d2 * iw[:, None, None, None]
            - d1[:, :, :, None] * (dw * iw[:, None] ** 2)[:, None, None, :]
            - d1[:, :, None, :] * (dw * iw[:, None] ** 2)[:, None, :, None]
            - r[:, :, None, None] * (d2w * iw[:, None, None] ** 2)[:, None, :, :]
            + 2.0
            * r[:, :, None, None]
            * (dw[:, :, None] * dw[:, None, :] * iw[:, None, None] ** 3)[:, None, :, :]
        )
        return Jets(r=r * iw[:, None], d1=ri, d2=rij, d3=None)


def scalar_jets_from_callable(fn, n: int, step=2e-3, grad=None, hess=None):
    """Build a jet function x -> (u, du, d2u) for a smooth scalar field.

    Analytic gradient/Hessian callables are used when given; otherwise
    4th-order central differences of the callable.
    """
    step = np.broadcast_to(np.asarray(step, dtype=float), (n,)).copy()

    def value(x):
        return np.broadcast_to(np.asarray(fn(x), dtype=float), (x.shape[0],))

    def jets(x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if grad is not None and hess is not None:
            return (value(x).copy(), np.asarray(grad(x), dtype=float),
                    np.asarray(hess(x), dtype=float))
        u, du, d2u = callable_jets(value, x, step)
        return u.copy(), du, d2u

    return jets
