"""Differential operators on foliated patches.

Fields are supplied either as smooth callables over the chart (preferred:
derivatives come from tight high-order stencils on the callable, decoupled
from the quadrature grid) or as grid samples (derivatives use 4th-order
stencils along grid axes, wrapping on periodic axes and shrinking the
evaluable region on non-periodic ones).

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

from .errors import DomainError, StencilError, ValidationError
from .patch import FoliatedPatch, Grid, PointGeometry, christoffel_bracket, frame_sandwich
from .suppliers import callable_jets, scalar_jets_from_callable, stencil_jets


@dataclass
class ScalarField:
    """Smooth scalar field on the chart with 2-jets."""

    jets_fn: object
    fn: object = None
    leafwise_only: bool = False

    @classmethod
    def from_callable(cls, fn, n: int, step=2e-3, grad=None, hess=None,
                      leafwise_only: bool = False) -> "ScalarField":
        return cls(jets_fn=scalar_jets_from_callable(fn, n, step=step, grad=grad, hess=hess),
                   fn=fn, leafwise_only=leafwise_only)

    @classmethod
    def from_grid(cls, grid: Grid, values: np.ndarray) -> "ScalarField":
        sampler = _GridSampler(grid, np.asarray(values, dtype=float))
        return cls(jets_fn=sampler.jets, fn=sampler.values_at)

    def jets(self, x: np.ndarray):
        return self.jets_fn(np.atleast_2d(np.asarray(x, dtype=float)))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self.fn is not None:
            x = np.atleast_2d(np.asarray(x, dtype=float))
            return np.broadcast_to(np.asarray(self.fn(x), dtype=float), (x.shape[0],))
        return self.jets(x)[0]


class _GridSampler:
    """4th-order axis stencils on grid samples; periodic axes wrap."""

    def __init__(self, grid: Grid, values: np.ndarray):
        if values.shape != grid.shape:
            raise ValidationError(f"field shape {values.shape} != grid shape {grid.shape}")
        for ax in grid.axes:
            d = np.diff(ax.nodes)
            if not np.allclose(d, d[0], rtol=1e-12, atol=1e-14):
                raise DomainError("grid-sampled fields need uniformly spaced axes")
        self.grid = grid
        self.values = values
        self.steps = [ax.nodes[1] - ax.nodes[0] for ax in grid.axes]

    def _locate(self, x):
        idx = []
        for d, ax in enumerate(self.grid.axes):
            j = np.rint((x[:, d] - ax.nodes[0]) / self.steps[d]).astype(int)
            if np.any(np.abs(ax.nodes[0] + j * self.steps[d] - x[:, d]) > 1e-9):
                raise DomainError("grid-sampled fields are evaluable at grid nodes only")
            idx.append(j)
        return idx

    def values_at(self, x):
        return self.values[tuple(self._locate(np.atleast_2d(x)))]

    def jets(self, x):
        idx = self._locate(np.atleast_2d(np.asarray(x, dtype=float)))

        def sample(shift):
            sel = list(idx)
            for axis, off in shift:
                ax = self.grid.axes[axis]
                j = idx[axis] + off
                if ax.periodic:
                    j = j % len(ax.nodes)
                elif np.any((j < 0) | (j >= len(ax.nodes))):
                    raise StencilError("stencil leaves the grid on a non-periodic axis")
                sel[axis] = j
            return self.values[tuple(sel)]

        return stencil_jets(sample, self.steps)


@dataclass
class LeafTensorField:
    """Leafwise symmetric (0,2)-tensor field with 2-jets along leaf axes.

    The callable returns components in leaf coordinates, shape (M, s, s).
    """

    fn: object
    s: int
    step: float = 2e-3

    def jets(self, x: np.ndarray):
        return callable_jets(self.fn, x, (self.step,) * self.s)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.atleast_2d(x)), dtype=float)


@dataclass
class FullTensorField:
    """Symmetric (0,2)-tensor field over all n coordinates, with 2-jets."""

    fn: object
    n: int
    step: float = 2e-3

    def jets(self, x: np.ndarray):
        return callable_jets(self.fn, x, (self.step,) * self.n)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.atleast_2d(x)), dtype=float)


@dataclass
class LeafOneFormField:
    """Leafwise 1-form field (components in leaf coordinates) with 1-jets."""

    fn: object
    s: int
    step: float = 2e-3

    def jets(self, x: np.ndarray):
        return callable_jets(self.fn, x, (self.step,) * self.s, order=1)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.atleast_2d(x)), dtype=float)


def leaf_metric_multiple(patch: FoliatedPatch, u: ScalarField) -> LeafTensorField:
    """The leafwise tensor B = u * g_L with jets assembled algebraically.

    Avoids finite-differencing the metric through the geometry pipeline,
    which loses digits in charts whose leaf metric degenerates at excluded
    boundary points.
    """
    s = patch.s

    class _Field(LeafTensorField):
        def jets(self, x):
            geo = patch.geometry(x, order=3)
            dgl, d2gl = _metric_jets_block(geo, s)
            uu, du, d2u = u.jets(x)
            g_l = geo.g_ff
            b0 = uu[:, None, None] * g_l
            db = np.einsum("pk,pij->pkij", du[:, :s], g_l) + uu[:, None, None, None] * dgl
            d2b = (
                np.einsum("pkl,pij->pklij", d2u[:, :s, :s], g_l)
                + np.einsum("pk,plij->pklij", du[:, :s], dgl)
                + np.einsum("pl,pkij->pklij", du[:, :s], dgl)
                + uu[:, None, None, None, None] * d2gl
            )
            return b0, db, d2b

    return _Field(fn=lambda x: u(x)[:, None, None] * patch.geometry(x).g_ff, s=s)


# ---------------------------------------------------------------------------
# Hessians and Laplacians


def hessian_full(geo: PointGeometry, du: np.ndarray, d2u: np.ndarray) -> np.ndarray:
    """Covariant Hessian of the surface: u_ij - Gamma^k_ij u_k."""
    return d2u - np.einsum("pkij,pk->pij", geo.gamma, du)


def hessian_leaf(geo: PointGeometry, du: np.ndarray, d2u: np.ndarray) -> np.ndarray:
    """Leaf-intrinsic Hessian (induced leaf metric and connection)."""
    s = geo.s
    return d2u[:, :s, :s] - np.einsum("pkij,pk->pij", geo.gamma_leaf, du[:, :s])


def hessian_block(geo: PointGeometry, du: np.ndarray, d2u: np.ndarray) -> np.ndarray:
    """Leafwise block of the full covariant Hessian."""
    s = geo.s
    return hessian_full(geo, du, d2u)[:, :s, :s]


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
    return np.einsum("pij,pij->p", geo.g_ff_inv, hessian_block(geo, du, d2u))


def leaf_gradient(geo: PointGeometry, du: np.ndarray) -> np.ndarray:
    """Leafwise gradient P grad(u) in leaf coordinate components."""
    s = geo.s
    return np.einsum("pij,pj->pi", geo.g_ff_inv, du[:, :s])


def leaf_laplacian(patch: FoliatedPatch, u: ScalarField, x: np.ndarray,
                   geo: PointGeometry | None = None) -> np.ndarray:
    """Leafwise Laplacian of a scalar field at the given points."""
    if geo is None:
        geo = patch.geometry(x)
    _, du, d2u = u.jets(x)
    return laplacian_leaf(geo, du, d2u)


def hessians(patch: FoliatedPatch, u: ScalarField, x: np.ndarray,
             geo: PointGeometry | None = None):
    """(full Hessian, leaf-intrinsic Hessian, mixed frame block) of u."""
    if geo is None:
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
    """dP[p, k, i, j] = partial_k P^i_j, from the metric 1-jet."""
    s, n = geo.s, geo.n
    dp = np.zeros((geo.g.shape[0], n, n, n))
    g_ff_inv = geo.g_ff_inv
    dg = geo.dg
    g_fx = geo.g[:, :s, s:]
    db = -np.einsum("pim,pkml,plj,pja->pkia", g_ff_inv, dg[:, :, :s, :s], g_ff_inv, g_fx)
    db += np.einsum("pim,pkma->pkia", g_ff_inv, dg[:, :, :s, s:])
    dp[:, :, :s, s:] = db
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
    """1- and 2-jets of the metric block over the first k coordinates."""
    if geo.jets.d3 is None:
        raise DomainError("operation needs third-order immersion jets")
    d1 = geo.jets.d1[:, :, :k]
    d2 = geo.jets.d2[:, :, :k, :k]
    d3 = geo.jets.d3[:, :, :k, :k, :k]
    d2g = (
        np.einsum("paikl,paj->pklij", d3, d1)
        + np.einsum("paik,pajl->pklij", d2, d2)
        + np.einsum("pail,pajk->pklij", d2, d2)
        + np.einsum("pai,pajkl->pklij", d1, d3)
    )
    return geo.dg[:, :k, :k, :k], d2g


def _double_divergence(patch: FoliatedPatch, b_field, x: np.ndarray,
                       geo: PointGeometry | None, leaf: bool) -> np.ndarray:
    """nabla_i nabla_j B^{ij} over the leaf block (leaf) or all coordinates."""
    if geo is None or geo.jets.d3 is None:
        geo = patch.geometry(x if geo is None else geo.x, order=3)
    b0, db, d2b = b_field.jets(x)
    dg, d2g = _metric_jets_block(geo, geo.s if leaf else geo.n)
    ginv = geo.g_ff_inv if leaf else geo.g_inv
    gamma = geo.gamma_leaf if leaf else geo.gamma
    dginv = -np.einsum("pim,pkmn,pnj->pkij", ginv, dg, ginv)
    dgamma = 0.5 * (
        np.einsum("plkm,pijm->plkij", dginv, christoffel_bracket(dg))
        + np.einsum("pkm,plijm->plkij", ginv, christoffel_bracket(d2g))
    )
    d2ginv = (
        -np.einsum("pim,plkmn,pnj->plkij", ginv, d2g, ginv)
        + np.einsum("pim,plmn,pnq,pkqr,prj->plkij", ginv, dg, ginv, dg, ginv)
        + np.einsum("pim,pkmn,pnq,plqr,prj->plkij", ginv, dg, ginv, dg, ginv)
    )
    bu = np.einsum("pik,pkl,plj->pij", ginv, b0, ginv)
    dbu = (
        np.einsum("pmik,pkl,plj->pmij", dginv, b0, ginv)
        + np.einsum("pik,pmkl,plj->pmij", ginv, db, ginv)
        + np.einsum("pik,pkl,pmlj->pmij", ginv, b0, dginv)
    )
    d2bu = (
        np.einsum("plkim,pmn,pnj->plkij", d2ginv, b0, ginv)
        + np.einsum("pim,plkmn,pnj->plkij", ginv, d2b, ginv)
        + np.einsum("pim,pmn,plknj->plkij", ginv, b0, d2ginv)
        + np.einsum("plim,pkmn,pnj->plkij", dginv, db, ginv)
        + np.einsum("pkim,plmn,pnj->plkij", dginv, db, ginv)
        + np.einsum("plim,pmn,pknj->plkij", dginv, b0, dginv)
        + np.einsum("pkim,pmn,plnj->plkij", dginv, b0, dginv)
        + np.einsum("pim,plmn,pknj->plkij", ginv, db, dginv)
        + np.einsum("pim,pkmn,plnj->plkij", ginv, db, dginv)
    )
    # T^j = nabla_i B^{ij}; result = nabla_j T^j
    t = (
        np.einsum("piij->pj", dbu)
        + np.einsum("piik,pkj->pj", gamma, bu)
        + np.einsum("pjik,pik->pj", gamma, bu)
    )
    dt = (
        np.einsum("pliij->plj", d2bu)
        + np.einsum("pliik,pkj->plj", dgamma, bu)
        + np.einsum("piik,plkj->plj", gamma, dbu)
        + np.einsum("pljik,pik->plj", dgamma, bu)
        + np.einsum("pjik,plik->plj", gamma, dbu)
    )
    return np.einsum("pjj->p", dt) + np.einsum("pjjk,pk->p", gamma, t)


def fstar_squared(patch: FoliatedPatch, b_field: "LeafTensorField", x: np.ndarray,
                  geo: PointGeometry | None = None) -> np.ndarray:
    """Double leafwise covariant divergence of a leafwise symmetric 2-tensor.

    Defined as the formal adjoint identity partner of the leaf-intrinsic
    Hessian: int <B, Hess^F u> dV = int u (nabla^{F*})^2 B dV on foliations
    with (div P) o P = 0.
    """
    return _double_divergence(patch, b_field, x, geo, leaf=True)


def star_squared_full(patch: FoliatedPatch, b_field: "FullTensorField", x: np.ndarray,
                      geo: PointGeometry | None = None) -> np.ndarray:
    """Double covariant divergence (nabla*)^2 B of a full symmetric 2-tensor."""
    return _double_divergence(patch, b_field, x, geo, leaf=False)


def fstar_one_form(patch: FoliatedPatch, omega_field: "LeafOneFormField",
                   x: np.ndarray, geo: PointGeometry | None = None) -> np.ndarray:
    """Leafwise adjoint nabla^{F*} omega = -div_F(omega#) of a leafwise 1-form."""
    if geo is None:
        geo = patch.geometry(x)
    w0, dw = omega_field.jets(x)
    ginv = geo.g_ff_inv
    nab = dw - np.einsum("pmij,pm->pij", geo.gamma_leaf, w0)
    return -np.einsum("pij,pij->p", ginv, nab)


def leaf_gradient_pairing(geo: PointGeometry, omega0: np.ndarray,
                          du: np.ndarray) -> np.ndarray:
    """<omega, nabla^F f> for a leafwise 1-form and scalar jets of f."""
    s = geo.s
    return np.einsum("pij,pi,pj->p", geo.g_ff_inv, omega0, du[:, :s])
