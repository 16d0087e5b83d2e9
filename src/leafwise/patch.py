"""Foliated patches: grids, pointwise geometry and adapted frames.

A FoliatedPatch is a gridded immersion of an n-manifold chart into R^{n+1}
whose first s coordinates run along the leaves of a foliation.  All
pointwise quantities (metric, normal, second fundamental form, orthogonal
projector, foliated blocks, Christoffel symbols) are computed in batch
over arbitrary parameter points, each on first use; the grid only drives
quadrature.  ``FoliatedPatch.integrate`` is the one grid quadrature:
energies, first and second variations and the integral identities
integrate a density of the geometry through it, in blocks of
``FoliatedPatch.block_size`` points (BLOCK_ENTRIES // n**2, about as many
metric entries for every n) on a thread pool when the grid has more than
one block.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .suppliers import Jets, leibniz, normal_jets, sample_points
from .symfunc import sigma_from_traces


class lazy:
    """Decorator of a field computed on first read and kept in the instance
    ``__dict__`` under the function's name (``vars`` lists exactly the fields
    built).  Unlike Python 3.11's ``functools.cached_property`` it takes no
    lock shared by all instances, so pool workers filling the same field of
    different blocks run at once."""

    def __init__(self, fn):
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        obj.__dict__[self.name] = value = self.fn(obj)
        return value


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


def check_count(m, least: int, what: str = "a grid axis node count") -> None:
    """Raise DomainError unless m is an integer (not a bool) >= least."""
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < least:
        raise DomainError(f"{what} must be an integer >= {least}, got {m!r}")


def periodic_axis(lo: float, hi: float, m: int) -> Axis:
    """Uniform nodes on [lo, hi) with trapezoid weights (spectrally accurate
    for smooth periodic integrands)."""
    check_count(m, 1)
    nodes = lo + (hi - lo) * np.arange(m) / m
    weights = np.full(m, (hi - lo) / m)
    return Axis(nodes=nodes, weights=weights, periodic=True, lo=lo, hi=hi)


def gauss_axis(lo: float, hi: float, m: int) -> Axis:
    """Gauss-Legendre nodes and weights mapped to [lo, hi]."""
    check_count(m, 1)
    xs, ws = np.polynomial.legendre.leggauss(m)
    nodes = 0.5 * (hi - lo) * (xs + 1.0) + lo
    weights = 0.5 * (hi - lo) * ws
    return Axis(nodes=nodes, weights=weights, periodic=False, lo=lo, hi=hi)


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

    @lazy
    def points(self) -> np.ndarray:
        mesh = np.meshgrid(*[ax.nodes for ax in self.axes], indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    @lazy
    def weights(self) -> np.ndarray:
        mesh = np.meshgrid(*[ax.weights for ax in self.axes], indexing="ij")
        w = np.ones(self.shape)
        for m in mesh:
            w = w * m
        return w.ravel()


#: metric entries g_ij per block of a grid integral, read only by
#: ``FoliatedPatch.block_size``: 2**17 // n**2 points, 8192 for n = 4, so a
#: block of any n holds about as many entries and its numpy calls are as long;
#: a block's geometry is built, used and dropped before its worker takes the
#: next one
BLOCK_ENTRIES = 2**17

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


def inverse_derivative(g_inv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """d_k g^-1 = -g^-1 (d_k g) g^-1 from dg[p, k, i, j] = d_k g_ij."""
    return -(g_inv[:, None] @ dg @ g_inv[:, None])


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
    norm.

    Only the jets and the quantities of ``normal_jets`` are stored: normal,
    g, h, frame and sqrt det g.  One Cholesky factorisation g = L L^T gives
    frame = L^-T, Gram-Schmidt of the coordinate vectors in leafwise-first
    order, whose leading s x s block is the leaf frame.  Every other field,
    g^-1, the shape operator and dN among them, is computed on first use and
    cached on the instance; the energies read none of those three, and a
    spectrum read to top 1 builds neither ``a_frame`` nor a leaf power.
    The derivative fields (dN, dg, dh, d2N) read ``contiguous_jets``,
    C-contiguous point-first copies of the jets made on first use, so they
    round and cost alike whatever the supplier's memory layout (``Jets``),
    and put the derivative axes first like them.  dg, dh and d2N are the
    first derivatives, by ``leibniz``, of g_ij = <r_i, r_j>,
    h_ij = <N, r_ij> and dN_i = -A^k_i r_k.
    """

    x: np.ndarray
    jets: Jets
    normal: np.ndarray
    g: np.ndarray
    h: np.ndarray
    frame: np.ndarray
    sqrt_det_g: np.ndarray
    s: int
    _leaf_powers: tuple = field(default=(), init=False, repr=False)

    @property
    def n(self) -> int:
        return self.g.shape[-1]

    @lazy
    def contiguous_jets(self) -> Jets:
        """The jets as C-contiguous point-first arrays, copied only where they
        are not: the einsums and stacked products of the derivative fields
        read these, because numpy picks their loops, and so their speed and
        rounding, by the memory layout of the operands."""
        return Jets(*(None if a is None else np.ascontiguousarray(a)
                      for a in (self.jets.r, self.jets.d1, self.jets.d2, self.jets.d3)))

    @lazy
    def g_inv(self) -> np.ndarray:
        """g^-1 = E E^T from the frame E."""
        return self.frame @ np.swapaxes(self.frame, -1, -2)

    @lazy
    def shape_op(self) -> np.ndarray:
        """Weingarten map A = g^-1 h, A[p, k, i] = A^k_i."""
        return self.g_inv @ self.h

    @lazy
    def dn(self) -> np.ndarray:
        """dn[p, i] = partial_i N = -A^k_i r_k."""
        return -(np.swapaxes(self.shape_op, -1, -2) @ self.contiguous_jets.d1)

    @lazy
    def dg(self) -> np.ndarray:
        """dg[p, k, i, j] = partial_k g_ij = <r_ik, r_j> + <r_i, r_jk>."""
        jets = self.contiguous_jets
        tangent = (jets.d1, jets.d2)
        return leibniz("ia,ja->ij", tangent, tangent, 1)[1]

    @lazy
    def dh(self) -> np.ndarray:
        """dh[p, k, i, j] = partial_k h_ij = <partial_k N, r_ij> + <N, r_ijk>
        (needs third-order jets)."""
        if self.jets.d3 is None:
            raise DomainError("the derivative of the second fundamental form needs "
                              "third-order immersion jets")
        jets = self.contiguous_jets
        return leibniz("a,ija->ij", (self.normal, self.dn), (jets.d2, jets.d3), 1)[1]

    @lazy
    def d2n(self) -> np.ndarray:
        """d2n[p, j, i] = partial_j partial_i N, the derivative of
        dN_i = -A^k_i r_k with the 1-jet of A = g^-1 h (needs third-order
        jets)."""
        g_inv_jets = (self.g_inv, inverse_derivative(self.g_inv, self.dg))
        a_jets = leibniz("kl,li->ki", g_inv_jets, (self.h, self.dh), 1)
        jets = self.contiguous_jets
        return -leibniz("ka,ki->ia", (jets.d1, jets.d2), a_jets, 1)[1]

    @lazy
    def gamma(self) -> np.ndarray:
        """Christoffel symbols gamma[p, k, i, j] = Gamma^k_ij of the surface."""
        return christoffel(self.g_inv, self.dg)

    @property
    def g_ff(self) -> np.ndarray:
        return self.g[:, : self.s, : self.s]

    @lazy
    def g_ff_inv(self) -> np.ndarray:
        """g_FF^-1 = E_FF E_FF^T from the leaf block E_FF of the frame."""
        e_ff = self.frame[:, : self.s, : self.s]
        return e_ff @ np.swapaxes(e_ff, -1, -2)

    @lazy
    def gamma_leaf(self) -> np.ndarray:
        """Christoffel symbols of the induced leaf metric (leaf indices only)."""
        s = self.s
        return christoffel(self.g_ff_inv, self.dg[:, :s, :s, :s])

    @lazy
    def transverse_basis(self) -> np.ndarray:
        """Columns v_a = e_a - (g_F^{-1} g_{Fa})^i e_i, a > s: a basis of the
        g-orthogonal complement of the leaves."""
        s, n = self.s, self.n
        v = np.zeros((self.x.shape[0], n, n - s))
        v[:, :s, :] = -np.einsum("pij,pja->pia", self.g_ff_inv, self.g[:, :s, s:])
        v[:, s:, :] = np.eye(n - s)
        return v

    @lazy
    def proj(self) -> np.ndarray:
        """Projector onto the leaf tangent along the transverse distribution."""
        s, n = self.s, self.n
        proj = np.zeros((self.x.shape[0], n, n))
        proj[:, :s, :s] = np.eye(s)
        proj[:, :s, s:] = -self.transverse_basis[:, :s, :]
        return proj

    @lazy
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

    @lazy
    def sigma(self) -> np.ndarray:
        """Elementary symmetric functions sigma_0..sigma_s of the leaf block,
        from the traces of its powers A_F^0..A_F^s by Newton's identities."""
        return self.spectrum("sigma", self.s)

    @lazy
    def tau(self) -> np.ndarray:
        """Power sums tau_0..tau_{s+2}, tau_i = tr A_F^i; tau_{i+1} enters
        delta tau_i, which J_nps needs for i = 2 at s = 1, and tau_2 = |h_F|^2
        for every s."""
        return self.spectrum("tau", self.s + 2)

    def spectrum(self, family: str, top: int) -> np.ndarray:
        """q_0..q_top of the leaf spectrum ``family``, "sigma" or "tau", an
        exact prefix of the full ``sigma`` or ``tau``.  q_k reads only the
        traces tau_0..tau_k: tau_0 = s, tau_1 = ``trace_a_leaf`` and the
        traces of the leaf powers from A_F^2 on, so a spectrum to top 1 builds
        neither ``a_frame`` nor any leaf power."""
        traces = [np.full(self.x.shape[0], float(self.s)), self.trace_a_leaf][: top + 1]
        traces += [np.einsum("pii->p", self.leaf_power(i)) for i in range(2, top + 1)]
        traces = np.stack(traces, axis=1)
        return sigma_from_traces(traces) if family == "sigma" else traces

    @lazy
    def trace_a_leaf(self) -> np.ndarray:
        """tau_1 = tr A_F = <g_FF^-1, h_FF> = tr(E_FF^T h_FF E_FF), from the
        leaf frame block E_FF alone."""
        return np.einsum("pii->p", self.leaf_block(self.h[:, : self.s, : self.s]))

    def leaf_power(self, i: int) -> np.ndarray:
        """A_F^i (the identity for i = 0), each power built once and kept.

        The powers are a tuple that is replaced, never changed in place, so a
        reader in another thread sees A_F^j at index j or a shorter tuple."""
        a_f = self.a_leaf
        powers = self._leaf_powers or (np.broadcast_to(np.eye(self.s), a_f.shape), a_f)
        while len(powers) <= i:
            powers += (powers[-1] @ a_f,)
        self._leaf_powers = powers
        return powers[i]

    def mix_pairing(self, m: np.ndarray) -> np.ndarray:
        """<M, h_mix^2> = tr(M C C^T) for a leafwise matrix field M."""
        return np.einsum("pij,pja,pia->p", m, self.c_mix, self.c_mix)

    @property
    def mean_curvature(self) -> np.ndarray:
        return np.einsum("pii->p", self.shape_op) / self.n

    @property
    def h_f_mean(self) -> np.ndarray:
        return self.spectrum("sigma", 1)[:, 1] / self.s

    @property
    def k_f(self) -> np.ndarray:
        if self.s < 2:
            raise DomainError("leaf Gauss curvature needs s >= 2")
        return self.sigma[:, 2]

    @property
    def norm_h_sq(self) -> np.ndarray:
        return np.einsum("pij,pij->p", self.a_frame, self.a_frame)

    @property
    def norm_hmix_sq(self) -> np.ndarray:
        return np.einsum("pia,pia->p", self.c_mix, self.c_mix)


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
        if self.normal_orientation not in (1.0, -1.0):
            raise DomainError(f"normal_orientation must be +1 or -1, "
                              f"got {self.normal_orientation}")

    def geometry(self, x: np.ndarray | None = None, order: int = 2) -> PointGeometry:
        """Pointwise geometry at the given parameter points (default: grid), a
        finite (k >= 1, n) array or one point as a vector."""
        if x is None:
            x = self.grid.points
        x = sample_points(x, self.n)
        return self.geometry_from_jets(x, self.supplier.jets(x, order=order))

    def geometry_from_jets(self, x: np.ndarray, jets: Jets) -> PointGeometry:
        """Geometry at the points x of the immersion with jets ``jets`` there
        (this patch's or a deformation's), with the patch's normal
        orientation and leaf dimension."""
        return PointGeometry(x, jets, *normal_jets(jets, self.normal_orientation), s=self.s)

    @property
    def block_size(self) -> int:
        """Grid points per block of ``integrate``: BLOCK_ENTRIES // n**2, so
        a block holds about as many metric entries whatever n is (8192
        points for n = 4, 14563 for n = 3, 32768 for n = 2)."""
        return BLOCK_ENTRIES // self.n**2

    def integrate(self, density_fn, order: int = 2):
        """Integral over the patch of ``density_fn(geo)`` (per unit volume),
        computed in blocks of ``block_size`` grid points, ``geo`` the
        geometry of a block at jet order ``order``.

        The density is one value per point (the result is a float) or an
        array with the point axis last (one integral per leading index, all
        from the same geometry).  Each block builds its own geometry and
        returns its weighted density; the blocks are joined and summed once
        along the contiguous point axis, so each result is bit-identical to
        the sum over the whole grid of weight x sqrt det g x density.  A grid
        of several blocks runs them concurrently on the shared pool (the
        geometry kernels are elementwise numpy and release the GIL), so
        ``density_fn`` must be thread-safe; a grid of one block, or an
        integral inside a pool worker, runs in the calling thread.  The
        first error of the lowest failing block is raised.
        """
        points, weights, size = self.grid.points, self.grid.weights, self.block_size

        def block(lo: int) -> np.ndarray:
            hi = lo + size
            geo = self.geometry(points[lo:hi], order=order)
            return weights[lo:hi] * geo.sqrt_det_g * np.asarray(density_fn(geo), dtype=float)

        starts = range(0, points.shape[0], size)
        if len(starts) == 1 or getattr(_in_worker, "active", False):
            parts = [block(lo) for lo in starts]
        else:
            parts = list(_block_pool().map(block, starts))
        total = np.sum(np.concatenate(parts, axis=-1), axis=-1)
        return float(total) if total.ndim == 0 else total
