"""Foliated patches: grids, pointwise geometry and adapted frames.

A FoliatedPatch is a gridded immersion of an n-manifold chart into R^{n+1}
whose first s coordinates run along the leaves of a foliation.  All
pointwise quantities (metric, normal, second fundamental form, orthogonal
projector, foliated blocks, Christoffel symbols) are computed in batch
over arbitrary parameter points, each on first use; the grid only drives
quadrature and grid-sampled fields.  Grid integrals run in blocks of BLOCK
points, on a thread pool when the grid has more than one block.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError
from .suppliers import Jets, metric_derivative, normal_jets, second_form_derivative
from .symfunc import newton_recursion, sigma_of_matrix


@dataclass(frozen=True)
class Axis:
    """One grid axis: quadrature nodes, weights and periodicity."""

    nodes: np.ndarray
    weights: np.ndarray
    periodic: bool
    lo: float
    hi: float

    def __post_init__(self):
        if not np.all(np.diff(self.nodes) > 0):
            raise DomainError("axis nodes must be strictly increasing")


def periodic_axis(lo: float, hi: float, m: int) -> Axis:
    """Uniform nodes on [lo, hi) with trapezoid weights (spectrally accurate
    for smooth periodic integrands)."""
    nodes = lo + (hi - lo) * np.arange(m) / m
    weights = np.full(m, (hi - lo) / m)
    return Axis(nodes=nodes, weights=weights, periodic=True, lo=lo, hi=hi)


def gauss_axis(lo: float, hi: float, m: int) -> Axis:
    """Gauss-Legendre nodes and weights mapped to [lo, hi]."""
    xs, ws = np.polynomial.legendre.leggauss(m)
    nodes = 0.5 * (hi - lo) * (xs + 1.0) + lo
    weights = 0.5 * (hi - lo) * ws
    return Axis(nodes=nodes, weights=weights, periodic=False, lo=lo, hi=hi)


def uniform_axis(lo: float, hi: float, m: int) -> Axis:
    """Closed uniform grid with trapezoid weights (for sampled fields)."""
    nodes = np.linspace(lo, hi, m)
    w = np.full(m, (hi - lo) / (m - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    return Axis(nodes=nodes, weights=w, periodic=False, lo=lo, hi=hi)


@dataclass(frozen=True)
class Grid:
    """Tensor-product grid over the chart."""

    axes: tuple[Axis, ...]

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(ax.nodes) for ax in self.axes)

    @cached_property
    def points(self) -> np.ndarray:
        mesh = np.meshgrid(*[ax.nodes for ax in self.axes], indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    @cached_property
    def weights(self) -> np.ndarray:
        mesh = np.meshgrid(*[ax.weights for ax in self.axes], indexing="ij")
        w = np.ones(self.shape)
        for m in mesh:
            w = w * m
        return w.ravel()

    def node_point(self, index) -> np.ndarray:
        return np.array([ax.nodes[i] for ax, i in zip(self.axes, index)])


#: points per block of a grid integral; a block's geometry is built, used
#: and dropped before its worker takes the next one
BLOCK = 8192

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
_in_worker = threading.local()


def _block_pool() -> ThreadPoolExecutor:
    """The shared pool of grid-integral workers, one per usable CPU, started
    on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            try:
                workers = len(os.sched_getaffinity(0))
            except AttributeError:  # no affinity call on this platform
                workers = os.cpu_count() or 1
            _pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="leafwise-block",
                                       initializer=setattr, initargs=(_in_worker, "active", True))
    return _pool


def frame_sandwich(e: np.ndarray, m: np.ndarray, f: np.ndarray | None = None) -> np.ndarray:
    """E^T M F (F = E by default), batched over points, as the matmul chain
    (E^T M) F: stacked small products release the GIL and cost a fraction of
    the unoptimised three-operand einsum."""
    return np.swapaxes(e, -1, -2) @ m @ (e if f is None else f)


def christoffel_bracket(dg: np.ndarray) -> np.ndarray:
    """d_i g_jl + d_j g_il - d_l g_ij from dg[..., k, i, j] = d_k g_ij."""
    return dg + np.swapaxes(dg, -3, -2) - np.moveaxis(dg, -3, -1)


def christoffel(g_inv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Gamma^k_ij = 1/2 g^kl (d_i g_jl + d_j g_il - d_l g_ij)."""
    return 0.5 * np.einsum("pkl,pijl->pkij", g_inv, christoffel_bracket(dg))


@dataclass
class PointGeometry:
    """Pointwise geometric bundle of a foliated patch (batched).

    Index conventions: leading axis enumerates points; coordinate indices
    are ordered leafwise-first.  Frame quantities live in an orthonormal
    adapted frame (first s vectors span the leaf tangent).  The mixed-block
    norm follows the index-block convention |h_mix|^2 = sum_{i<=s<a} h(e_i,e_a)^2;
    the symmetrized tensor built from the projector has half that square
    norm and is exposed separately.

    Only the jets and the quantities of ``normal_jets`` are stored, the
    frame among them: one Cholesky factorisation g = L L^T gives
    frame = L^-T, Gram-Schmidt of the coordinate vectors in leafwise-first
    order, whose leading s x s block is the leaf frame.  Every other field
    is computed on first use and cached on the instance.
    """

    x: np.ndarray
    jets: Jets
    g: np.ndarray
    g_inv: np.ndarray
    sqrt_det_g: np.ndarray
    normal: np.ndarray
    dn: np.ndarray
    h: np.ndarray
    shape_op: np.ndarray
    frame: np.ndarray
    s: int

    @property
    def n(self) -> int:
        return self.g.shape[-1]

    @cached_property
    def dg(self) -> np.ndarray:
        """dg[p, k, i, j] = partial_k g_ij."""
        return metric_derivative(self.jets)

    @cached_property
    def dh(self) -> np.ndarray:
        """dh[p, k, i, j] = partial_k h_ij (needs third-order jets)."""
        return second_form_derivative(self.jets, self.normal, self.dn)

    @cached_property
    def gamma(self) -> np.ndarray:
        """Christoffel symbols gamma[p, k, i, j] = Gamma^k_ij of the surface."""
        return christoffel(self.g_inv, self.dg)

    @property
    def g_ff(self) -> np.ndarray:
        return self.g[:, : self.s, : self.s]

    @cached_property
    def g_ff_inv(self) -> np.ndarray:
        """g_FF^-1 = E_FF E_FF^T from the leaf block E_FF of the frame."""
        e_ff = self.frame[:, : self.s, : self.s]
        return e_ff @ np.swapaxes(e_ff, -1, -2)

    @cached_property
    def gamma_leaf(self) -> np.ndarray:
        """Christoffel symbols of the induced leaf metric (leaf indices only)."""
        s = self.s
        return christoffel(self.g_ff_inv, self.dg[:, :s, :s, :s])

    @cached_property
    def transverse_basis(self) -> np.ndarray:
        """Columns v_a = e_a - (g_F^{-1} g_{Fa})^i e_i, a > s: a basis of the
        g-orthogonal complement of the leaves."""
        s, n = self.s, self.n
        v = np.zeros((self.x.shape[0], n, n - s))
        v[:, :s, :] = -np.einsum("pij,pja->pia", self.g_ff_inv, self.g[:, :s, s:])
        v[:, s:, :] = np.eye(n - s)
        return v

    @cached_property
    def proj(self) -> np.ndarray:
        """Projector onto the leaf tangent along the transverse distribution."""
        s, n = self.s, self.n
        proj = np.zeros((self.x.shape[0], n, n))
        proj[:, :s, :s] = np.eye(s)
        proj[:, :s, s:] = -self.transverse_basis[:, :s, :]
        return proj

    @cached_property
    def a_frame(self) -> np.ndarray:
        """Second fundamental form in the adapted frame."""
        a_frame = frame_sandwich(self.frame, self.h)
        return 0.5 * (a_frame + np.swapaxes(a_frame, -1, -2))

    def leaf_block(self, tensor: np.ndarray) -> np.ndarray:
        """Leaf frame block of a (0,2) tensor given in all n coordinates or
        in the s leaf coordinates (leaf frame vectors have no transverse
        coordinates, so a leaf tensor needs no padding)."""
        return frame_sandwich(self.frame[:, : tensor.shape[-1], : self.s], tensor)

    # foliated blocks in the adapted orthonormal frame
    @property
    def a_leaf(self) -> np.ndarray:
        return self.a_frame[:, : self.s, : self.s]

    @property
    def c_mix(self) -> np.ndarray:
        return self.a_frame[:, : self.s, self.s :]

    @property
    def b_perp(self) -> np.ndarray:
        return self.a_frame[:, self.s :, self.s :]

    @cached_property
    def sigma(self) -> np.ndarray:
        """Elementary symmetric functions sigma_0..sigma_s of the leaf block."""
        return sigma_of_matrix(self.a_leaf)

    @cached_property
    def tau(self) -> np.ndarray:
        """Power sums tau_0..tau_{s+2}, tau_i = tr A_F^i; tau_{i+1} enters
        delta tau_i, which J_nps needs for i = 2 at s = 1, and tau_2 = |h_F|^2
        for every s."""
        return np.stack([np.einsum("pii->p", self.leaf_power(i)) for i in range(self.s + 3)],
                        axis=1)

    def leaf_power(self, i: int) -> np.ndarray:
        """A_F^i (the identity for i = 0)."""
        out = np.broadcast_to(np.eye(self.s), self.a_leaf.shape)
        for _ in range(i):
            out = np.einsum("pij,pjk->pik", out, self.a_leaf)
        return out

    def newton(self, r: int) -> np.ndarray:
        """Newton transform T_r of A_F."""
        return newton_recursion(self.a_leaf, self.sigma, r)

    def mix_pairing(self, m: np.ndarray) -> np.ndarray:
        """<M, h_mix^2> = tr(M C C^T) for a leafwise matrix field M."""
        return np.einsum("pij,pja,pia->p", m, self.c_mix, self.c_mix)

    @cached_property
    def hf_hf2(self) -> np.ndarray:
        """<h_F, h_F^2> = tr(A_F^3)."""
        a = self.a_leaf
        return np.einsum("pij,pjk,pki->p", a, a, a)

    @cached_property
    def hf_hmix2(self) -> np.ndarray:
        """<h_F, h_mix^2> = tr(A_F C C^T)."""
        return self.mix_pairing(self.a_leaf)

    @property
    def mean_curvature(self) -> np.ndarray:
        return np.einsum("pii->p", self.shape_op) / self.n

    @property
    def h_f_mean(self) -> np.ndarray:
        return self.sigma[:, 1] / self.s

    @property
    def k_f(self) -> np.ndarray:
        if self.s < 2:
            raise DomainError("leaf Gauss curvature needs s >= 2")
        return self.sigma[:, 2]

    @property
    def norm_h_sq(self) -> np.ndarray:
        return np.einsum("pij,pij->p", self.a_frame, self.a_frame)

    @property
    def norm_hf_sq(self) -> np.ndarray:
        return np.einsum("pij,pij->p", self.a_leaf, self.a_leaf)

    @property
    def norm_hmix_sq(self) -> np.ndarray:
        return np.einsum("pia,pia->p", self.c_mix, self.c_mix)

    @property
    def norm_hmix_sym_sq(self) -> np.ndarray:
        return 0.5 * self.norm_hmix_sq


@dataclass(frozen=True)
class FoliatedPatch:
    """Gridded immersion with a coordinate foliation (first s axes leafwise)."""

    n: int
    s: int
    supplier: object
    grid: Grid
    normal_orientation: float = 1.0
    name: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 1 <= self.s <= self.n:
            raise DomainError(f"leaf dimension s={self.s} outside 1..{self.n}")
        if self.grid.ndim != self.n:
            raise DomainError("grid dimension does not match the chart dimension")

    def geometry(self, x: np.ndarray | None = None, order: int = 2) -> PointGeometry:
        """Pointwise geometry at the given parameter points (default: grid)."""
        if x is None:
            x = self.grid.points
        x = np.atleast_2d(np.asarray(x, dtype=float))
        jets = self.supplier.jets(x, order=order)
        nvec, dn, a_op, g, g_inv, h, frame, sqrt_det_g = normal_jets(
            jets, self.normal_orientation)
        return PointGeometry(x=x, jets=jets, g=g, g_inv=g_inv, sqrt_det_g=sqrt_det_g,
                             normal=nvec, dn=dn, h=h, shape_op=a_op, frame=frame, s=self.s)

    def integrate(self, density: np.ndarray, geo: PointGeometry) -> float:
        """Integral over the patch of a pointwise density (per unit volume)
        given on the grid, with the whole-grid geometry ``geo``."""
        vals = np.asarray(density, dtype=float)
        return float(np.sum(self.grid.weights * geo.sqrt_det_g * vals))

    def integral(self, density_fn):
        """Integral over the patch of ``density_fn(geo)`` (per unit volume),
        computed in blocks of BLOCK grid points.

        The density is one value per point (the result is a float) or an
        array with the point axis last (one integral per leading index, all
        from the same geometry).  Each block builds its own geometry and
        returns its weighted density; the blocks are joined and summed once
        along the contiguous point axis, so each result is bit-identical to
        ``integrate`` of that density on the whole-grid geometry.  A grid of
        several blocks runs them concurrently on the shared pool (the
        geometry kernels are elementwise numpy and release the GIL), so
        ``density_fn`` must be thread-safe; a grid of one block, or an
        integral inside a pool worker, runs in the calling thread.  The
        first error of the lowest failing block is raised.
        """
        points, weights = self.grid.points, self.grid.weights

        def block(lo: int) -> np.ndarray:
            hi = lo + BLOCK
            geo = self.geometry(points[lo:hi])
            return weights[lo:hi] * geo.sqrt_det_g * np.asarray(density_fn(geo), dtype=float)

        starts = range(0, points.shape[0], BLOCK)
        if len(starts) == 1 or getattr(_in_worker, "active", False):
            parts = [block(lo) for lo in starts]
        else:
            parts = list(_block_pool().map(block, starts))
        total = np.sum(np.concatenate(parts, axis=-1), axis=-1)
        return float(total) if total.ndim == 0 else total


def point_geometry(patch: FoliatedPatch, node) -> PointGeometry:
    """Geometry bundle at one grid node (multi-index or flat index)."""
    if np.isscalar(node):
        x = patch.grid.points[int(node)][None, :]
    else:
        x = patch.grid.node_point(node)[None, :]
    return patch.geometry(x)
