"""Differential operators on foliated patches.

Every field is a ``Field``: scalars, leafwise and full symmetric
2-tensors and leafwise 1-forms differ only in the shape of their values and
the coordinates their jets run over, and each checks its points against
its chart dimension n.  A field is a smooth callable over the chart whose
derivatives come from 4th-order stencils on the callable along the first n
or s coordinates, decoupled from the quadrature grid, or a function that
returns its jets directly.  The double divergences and the metric jets
take their products' jets from ``suppliers.leibniz``.

Leafwise operators come in two flavours that coincide only when the
variation/field has no transverse gradient:

* intrinsic: built from the induced leaf metric and leaf Christoffels
  (these are the operators that integrate by parts along the leaves);
* block: the corresponding slice of the full-surface operator (these are
  the objects produced by differentiating the immersion, e.g. in the
  evolution equations of normal deformations).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .patch import (FoliatedPatch, PointGeometry, check_count, christoffel_bracket,
                    frame_sandwich, inverse_derivative)
from .suppliers import callable_jets, leibniz, sample_points, stencil_steps


@dataclass
class Field:
    """Smooth field on an n-dimensional chart with 2-jets: a scalar, or the
    components of a tensor (leafwise or full symmetric 2-tensor, leafwise
    1-form), the value at k points of shape (k, ...).

    ``jets`` returns (f, df, d2f) with the derivative axes right after the
    point axis, over the coordinates the field was built with.  ``jets``
    and calls take their points through ``sample_points(x, n)``: a finite
    (k >= 1, n) array, or one point as a vector, else DomainError.
    """

    jets_fn: object
    n: int
    fn: object = None

    @classmethod
    def from_callable(cls, fn, n: int, step=2e-3, axes: int | None = None) -> "Field":
        """4th-order stencil jets of fn along the first ``axes`` coordinates,
        an integer in 1..n (all n by default, s for a leafwise field)."""
        axes = n if axes is None else axes
        check_count(axes, 1, "a field's derivative axis count")
        if axes > n:
            raise DomainError(f"a field's derivative axis count must be at most n = {n}, "
                              f"got {axes}")
        steps = stencil_steps(step, axes)

        def value(x):
            v = np.asarray(fn(x), dtype=float)
            return np.broadcast_to(v, x.shape[:1] + v.shape[1:])

        def jets(x):
            f0, df, d2f = callable_jets(value, x, steps)
            return f0.copy(), df, d2f

        return cls(jets, n, fn)

    def jets(self, x: np.ndarray):
        return self.jets_fn(sample_points(x, self.n))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = sample_points(x, self.n)
        value = self.jets_fn(x)[0] if self.fn is None else np.asarray(self.fn(x), dtype=float)
        return np.broadcast_to(value, x.shape[:1] + value.shape[1:])


# the former per-kind field classes, kept as names of the one class because
# the benchmark's tracing probes wrap the jets of each
ScalarField = LeafTensorField = FullTensorField = LeafOneFormField = Field


def leaf_metric_multiple(patch: FoliatedPatch, u: Field) -> Field:
    """The leafwise tensor B = u * g_L with jets assembled algebraically.

    Avoids finite-differencing the metric through the geometry pipeline,
    which loses digits in charts whose leaf metric degenerates at excluded
    boundary points.
    """
    s = patch.s

    def jets(x):
        uu, du, d2u = u.jets(x)
        metric = _metric_jets_block(patch.geometry(x, order=3), s)
        return leibniz(",ij->ij", (uu, du[:, :s], d2u[:, :s, :s]), metric)

    return Field(jets, patch.n, lambda x: u(x)[:, None, None] * patch.geometry(x).g_ff)


# ---------------------------------------------------------------------------
# Hessians and Laplacians


def hessian_full(geo: PointGeometry, du: np.ndarray, d2u: np.ndarray) -> np.ndarray:
    """Covariant Hessian of the surface: u_ij - Gamma^k_ij u_k."""
    return d2u - np.einsum("pkij,pk->pij", geo.gamma, du)


def hessian_leaf(geo: PointGeometry, du: np.ndarray, d2u: np.ndarray) -> np.ndarray:
    """Leaf-intrinsic Hessian (induced leaf metric and connection)."""
    s = geo.s
    return d2u[:, :s, :s] - np.einsum("pkij,pk->pij", geo.gamma_leaf, du[:, :s])


def hessian_mixed_frame(geo: PointGeometry, du: np.ndarray, d2u: np.ndarray) -> np.ndarray:
    """Mixed (leaf x transverse) block of the full Hessian in the adapted frame."""
    s = geo.s
    hess = hessian_full(geo, du, d2u)
    return frame_sandwich(geo.frame[:, :, :s], hess, geo.frame[:, :, s:])


def laplacian_full(geo: PointGeometry, du: np.ndarray, d2u: np.ndarray) -> np.ndarray:
    return np.einsum("pij,pij->p", geo.g_inv, hessian_full(geo, du, d2u))


def laplacian_leaf(geo: PointGeometry, du: np.ndarray, d2u: np.ndarray) -> np.ndarray:
    """Leafwise Laplacian: trace of the leaf-intrinsic Hessian."""
    return np.einsum("pij,pij->p", geo.g_ff_inv, hessian_leaf(geo, du, d2u))


def laplacian_block(geo: PointGeometry, du: np.ndarray, d2u: np.ndarray) -> np.ndarray:
    """Leaf-metric trace of the leafwise block of the full Hessian."""
    s = geo.s
    return np.einsum("pij,pij->p", geo.g_ff_inv, hessian_full(geo, du, d2u)[:, :s, :s])


def leaf_gradient(geo: PointGeometry, du: np.ndarray) -> np.ndarray:
    """Leafwise gradient P grad(u) in leaf coordinate components."""
    s = geo.s
    return np.einsum("pij,pj->pi", geo.g_ff_inv, du[:, :s])


def leaf_laplacian(patch: FoliatedPatch, u: Field, x: np.ndarray,
                   geo: PointGeometry | None = None) -> np.ndarray:
    """Leafwise Laplacian of a scalar field at the given points."""
    if geo is None:
        geo = patch.geometry(x)
    _, du, d2u = u.jets(x)
    return laplacian_leaf(geo, du, d2u)


def hessians(patch: FoliatedPatch, u: Field, x: np.ndarray):
    """(full Hessian, leaf-intrinsic Hessian, mixed frame block) of u."""
    geo = patch.geometry(x)
    _, du, d2u = u.jets(x)
    return (
        hessian_full(geo, du, d2u),
        hessian_leaf(geo, du, d2u),
        hessian_mixed_frame(geo, du, d2u),
    )


# ---------------------------------------------------------------------------
# Projector divergence and the mean curvature of the normal distribution


def _proj_derivative(geo: PointGeometry) -> np.ndarray:
    """dP[p, k, i, j] = partial_k P^i_j: its leaf x transverse block is d(g_FF^-1 g_FT)."""
    s, n = geo.s, geo.n
    dp = np.zeros((geo.g.shape[0], n, n, n))
    g_ff_inv, dg = geo.g_ff_inv, geo.dg
    inv_jets = (g_ff_inv, inverse_derivative(g_ff_inv, dg[:, :, :s, :s]))
    dp[:, :, :s, s:] = leibniz("im,ma->ia", inv_jets, (geo.g[:, :s, s:], dg[:, :, :s, s:]), 1)[1]
    return dp


def div_projector(patch: FoliatedPatch, x: np.ndarray,
                  geo: PointGeometry | None = None):
    """((div P) o P as a 1-form, mean curvature vector of the normal bundle).

    Verifies nothing by itself; the relation (div P)(PX) = -<X, (n-s) Hperp>
    is exercised by the test-suite on sheared charts.
    """
    if geo is None:
        geo = patch.geometry(x)
    s, n = geo.s, geo.n
    if s == n:
        raise DomainError("the normal distribution is trivial when s = n")
    dp = _proj_derivative(geo)
    divp = (
        np.einsum("paab->pb", dp)
        + np.einsum("paac,pcb->pb", geo.gamma, geo.proj)
        - np.einsum("pcab,pac->pb", geo.gamma, geo.proj)
    )
    divp_p = np.einsum("pc,pcb->pb", divp, geo.proj)

    # (n-s) Hperp = P( Gv^{ab} nabla_{v_a} v_b ) for any transverse basis v
    # Gv = g(v_a, v_b) is the Schur complement of g_FF in g, L_tt L_tt^T with
    # L_tt the transverse block of the Cholesky factor, so Gv^-1 = E_tt E_tt^T
    v = geo.transverse_basis
    e_tt = geo.frame[:, s:, s:]
    gv_inv = e_tt @ np.swapaxes(e_tt, -1, -2)
    db = dp[:, :, :s, s:]
    dv = np.zeros((v.shape[0], n, n, n - s))  # dv[p,k,c,a] = partial_k v^c_a
    dv[:, :, :s, :] = -db
    nabla = np.einsum("pka,pkcb->pcab", v, dv) + np.einsum(
        "pka,pckl,plb->pcab", v, geo.gamma, v
    )
    trace = np.einsum("pab,pcab->pc", gv_inv, nabla)
    hperp = np.einsum("pic,pc->pi", geo.proj, trace) / (n - s)
    return divp_p, hperp


# ---------------------------------------------------------------------------
# Covariant double divergences (full and leafwise)


def _metric_jets_block(geo: PointGeometry, k: int):
    """(g, dg, d2g) of the metric block over the first k coordinates, the
    derivative axes first, from the 2-jet of the tangent vectors d_i r."""
    if geo.jets.d3 is None:
        raise DomainError("operation needs third-order immersion jets")
    jets = geo.contiguous_jets
    t = (jets.d1[:, :k], jets.d2[:, :k, :k], jets.d3[:, :k, :k, :k])
    return leibniz("ia,ja->ij", t, t)


def _double_divergence(patch: FoliatedPatch, b_field, x: np.ndarray,
                       geo: PointGeometry | None, leaf: bool) -> np.ndarray:
    """nabla_i nabla_j B^{ij} over the leaf block (leaf) or all coordinates:
    the 2-jet of B^{ij} = g^-1 B g^-1 and the 1-jet of Gamma by ``leibniz``,
    then T^j = nabla_i B^{ij} and nabla_j T^j."""
    if geo is None or geo.jets.d3 is None:
        geo = patch.geometry(x if geo is None else geo.x, order=3)
    _, dg, d2g = _metric_jets_block(geo, geo.s if leaf else geo.n)
    ginv = geo.g_ff_inv if leaf else geo.g_inv
    dginv = inverse_derivative(ginv, dg)
    # d_l d_k g^-1 = -(d_l g^-1) d_k g g^-1 - g^-1 d_l d_k g g^-1 - g^-1 d_k g d_l g^-1
    g1 = ginv[:, None, None]
    d2ginv = -(dginv[:, :, None] @ dg[:, None] @ g1 + g1 @ d2g @ g1
               + g1 @ dg[:, None] @ dginv[:, :, None])
    ginv_jets = (ginv, dginv, d2ginv)
    bu = leibniz("ij,jk->ik", leibniz("ij,jk->ik", ginv_jets, b_field.jets(x)), ginv_jets)
    gamma = [0.5 * a for a in leibniz("km,ijm->kij", ginv_jets,
                                      (christoffel_bracket(dg), christoffel_bracket(d2g)), 1)]
    # T^j = d_i B^{ij} + Gamma^i_ik B^kj + Gamma^j_ik B^ik, and its 1-jet
    t, dt = (np.einsum("...iij->...j", db) + first + second for db, first, second in zip(
        bu[1:], leibniz("iik,kj->j", gamma, bu, 1), leibniz("jik,ik->j", gamma, bu, 1)))
    return np.einsum("pjj->p", dt) + np.einsum("pjjk,pk->p", gamma[0], t)


def fstar_squared(patch: FoliatedPatch, b_field: Field, x: np.ndarray,
                  geo: PointGeometry | None = None) -> np.ndarray:
    """Double leafwise covariant divergence of a leafwise symmetric 2-tensor.

    Defined as the formal adjoint identity partner of the leaf-intrinsic
    Hessian: int <B, Hess^F u> dV = int u (nabla^{F*})^2 B dV on foliations
    with (div P) o P = 0.
    """
    return _double_divergence(patch, b_field, x, geo, leaf=True)


def star_squared_full(patch: FoliatedPatch, b_field: Field, x: np.ndarray,
                      geo: PointGeometry | None = None) -> np.ndarray:
    """Double covariant divergence (nabla*)^2 B of a full symmetric 2-tensor."""
    return _double_divergence(patch, b_field, x, geo, leaf=False)


def fstar_one_form(patch: FoliatedPatch, omega_field: Field,
                   x: np.ndarray, geo: PointGeometry | None = None) -> np.ndarray:
    """Leafwise adjoint nabla^{F*} omega = -div_F(omega#) of a leafwise 1-form."""
    if geo is None:
        geo = patch.geometry(x)
    w0, dw, _ = omega_field.jets(x)
    ginv = geo.g_ff_inv
    nab = dw - np.einsum("pmij,pm->pij", geo.gamma_leaf, w0)
    return -np.einsum("pij,pij->p", ginv, nab)


def leaf_gradient_pairing(geo: PointGeometry, omega0: np.ndarray,
                          du: np.ndarray) -> np.ndarray:
    """<omega, nabla^F f> for a leafwise 1-form and scalar jets of f."""
    s = geo.s
    return np.einsum("pij,pi,pj->p", geo.g_ff_inv, omega0, du[:, :s])
