"""Complex-step verification of the evolution equations and the integral
identities.

Every supported quantity Q is recomputed on the deformed immersion
r + i h u N, and its complex step Im Q / h, dQ/dt at t = 0 exact to
rounding, is compared with its analytic first-variation formula.  The
analytic right-hand sides are the tensorial restatements (leafwise blocks
of full covariant Hessians); for the leafwise quantities the module also
evaluates the naive leaf-intrinsic reading and reports its deviation
instead of silently adopting either one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import deltas
from .errors import DomainError
from .operators import (
    Field,
    div_projector,
    fstar_one_form,
    fstar_squared,
    hessian_full,
    hessian_leaf,
    hessian_mixed_frame,
    laplacian_leaf,
    leaf_gradient,
    leaf_gradient_pairing,
    leaf_metric_multiple,
    star_squared_full,
)
from .patch import FoliatedPatch
from .variation import COMPLEX_STEP, complex_step_geometry

EVOLUTION_QUANTITIES = (
    "g", "g_inv", "h", "norm_h_sq", "nH", "dV",
    "sH_F", "norm_hF_sq", "norm_hmix_sq", "lapF_f",
    "tau_i", "sigma_r", "twoH_F", "K_F", "Christoffel",
)

#: the quantities that are a leaf spectrum member q_k, as (family, k); k None
#: stands for the case's order_index
SPECTRUM_MEMBERS = {"sH_F": ("sigma", 1), "twoH_F": ("sigma", 1), "K_F": ("sigma", 2),
                    "norm_hF_sq": ("tau", 2), "sigma_r": ("sigma", None),
                    "tau_i": ("tau", None)}

#: largest gap max|numeric - analytic| / max(1, max|analytic|) of a passing case
GAP_TOLERANCE = 1e-10


@dataclass(frozen=True)
class EvolutionCase:
    """One verifiable evolution equation."""

    quantity: str
    order_index: int = 2  # i for tau_i, r for sigma_r

    def __post_init__(self):
        if self.quantity not in EVOLUTION_QUANTITIES:
            raise DomainError(f"unknown quantity {self.quantity!r}")


@dataclass
class ConvergenceReport:
    quantity: str
    numeric: float
    analytic: float
    gap: float
    passed: bool
    naive_deviation: float | None = None
    details: dict = field(default_factory=dict)

    def row(self) -> dict:
        return {
            "case": self.quantity,
            "numeric": self.numeric,
            "analytic": self.analytic,
            "gap": self.gap,
            "naive_deviation": self.naive_deviation,
            "pass": bool(self.passed),
        }


@dataclass
class IdentityReport:
    identity: str
    lhs: float
    rhs: float
    discrepancy: float
    applicable: bool
    passed: bool
    precondition_norm: float


def _sample_points(patch: FoliatedPatch, count: int = 12) -> np.ndarray:
    pts = patch.grid.points
    stride = max(1, pts.shape[0] // count)
    return pts[:: stride][:count]


def _spectrum_member(case: EvolutionCase):
    """(family, k) of a leaf spectrum member case, None for any other case."""
    family, k = SPECTRUM_MEMBERS.get(case.quantity, (None, None))
    return None if family is None else (family, k or case.order_index)


def _quantity_extractor(case: EvolutionCase, f: Field | None):
    """The case's quantity as a function of a geometry."""
    q = case.quantity
    if q == "lapF_f":
        if f is None:
            raise DomainError("lapF_f case needs the auxiliary function f")
        return lambda geo: laplacian_leaf(geo, *f.jets(geo.x)[1:])
    if (member := _spectrum_member(case)) is not None:
        family, k = member
        return lambda geo: getattr(geo, family)[:, k]
    return {
        "g": lambda geo: geo.g,
        "g_inv": lambda geo: geo.g_inv,
        "h": lambda geo: geo.h,
        "norm_h_sq": lambda geo: geo.norm_h_sq,
        "nH": lambda geo: geo.n * geo.mean_curvature,
        "dV": lambda geo: geo.sqrt_det_g,
        "norm_hmix_sq": lambda geo: geo.norm_hmix_sq,
        "Christoffel": lambda geo: geo.gamma,
    }[q]


def _analytic_rhs(case: EvolutionCase, geo, u, du, d2u, f: Field | None):
    if (member := _spectrum_member(case)) is not None:
        family, k = member
        hess = geo.leaf_block(hessian_full(geo, du, d2u))
        return deltas.delta_spectrum(family, geo, u, hess, k)
    return {
        "g": lambda: deltas.delta_metric(geo, u),
        "g_inv": lambda: deltas.delta_metric_inverse(geo, u),
        "h": lambda: deltas.delta_second_form(geo, u, du, d2u),
        "norm_h_sq": lambda: deltas.delta_norm_h_sq(geo, u, du, d2u),
        "nH": lambda: deltas.delta_nh(geo, u, du, d2u),
        "dV": lambda: deltas.delta_volume_density(geo, u),
        "norm_hmix_sq": lambda: deltas.delta_norm_hmix_sq(geo, u, du, d2u),
        "lapF_f": lambda: deltas.delta_lapf(geo, u, du, d2u, *f.jets(geo.x)[1:]),
        "Christoffel": lambda: deltas.delta_christoffel(geo, u, du),
    }[case.quantity]()


def _naive_rhs(case: EvolutionCase, geo, u, du, d2u, f: Field | None):
    """Leaf-intrinsic literal reading of the leafwise evolution equations.

    Spectrum members read ``deltas.delta_spectrum`` with the leaf-intrinsic
    Hessian block.  Returns None for quantities whose statement is already
    unambiguous.
    """
    q = case.quantity
    if (member := _spectrum_member(case)) is not None:
        family, k = member
        hess = geo.leaf_block(hessian_leaf(geo, du, d2u))
        return deltas.delta_spectrum(family, geo, u, hess, k)
    if q == "norm_hmix_sq":
        c = geo.c_mix
        hm = hessian_mixed_frame(geo, du, d2u)
        tr_acc = geo.mix_pairing(geo.a_leaf)
        tr_bcc = np.einsum("pab,pia,pib->p", geo.b_perp, c, c)
        return u * (tr_acc + tr_bcc) + 2.0 * np.einsum("pia,pia->p", hm, c)
    if q == "lapF_f":
        _, f_du, f_d2u = f.jets(geo.x)
        pair, h_grads, grads, hf_grad, _ = deltas._lapf_terms(geo, du, f_du, f_d2u)
        return 2.0 * u * pair + u * hf_grad + 2.0 * h_grads - geo.sigma[:, 1] * grads
    return None


def verify_evolution(case: EvolutionCase, patch: FoliatedPatch, u: Field,
                     f: Field | None = None,
                     points: np.ndarray | None = None) -> ConvergenceReport:
    """Check one evolution equation on a patch against the complex step of
    its quantity: the case passes at a gap of at most GAP_TOLERANCE."""
    if case.quantity in ("twoH_F", "K_F") and patch.s != 2:
        raise DomainError(f"{case.quantity} needs a patch with s=2, got s={patch.s}")
    top = {"tau_i": patch.s + 1, "sigma_r": patch.s}.get(case.quantity)
    if top is not None and not 1 <= case.order_index <= top:
        raise DomainError(f"{case.quantity} index {case.order_index} outside 1..{top}")
    extract = _quantity_extractor(case, f)

    geo = patch.geometry(_sample_points(patch) if points is None else points, order=3)
    x = geo.x
    uu, du, d2u = u.jets(x)
    analytic = np.asarray(_analytic_rhs(case, geo, uu, du, d2u, f), dtype=float)
    naive = _naive_rhs(case, geo, uu, du, d2u, f)

    numeric = np.imag(extract(complex_step_geometry(patch, geo, uu, du, d2u))) / COMPLEX_STEP
    scale = float(np.max(np.abs(analytic)))
    gap = float(np.max(np.abs(numeric - analytic))) / max(1.0, scale)
    return ConvergenceReport(
        quantity=case.quantity,
        numeric=float(np.max(np.abs(numeric))),
        analytic=scale,
        gap=gap,
        passed=gap <= GAP_TOLERANCE,
        naive_deviation=None if naive is None else float(np.max(np.abs(naive - analytic))),
        details={"order_index": case.order_index} if case.quantity in ("tau_i", "sigma_r") else {},
    )


def transversal_harmonicity_norm(patch: FoliatedPatch) -> float:
    """max |(div P) o P| over 24 sample points (0 iff transversally harmonic)."""
    dp_p, _ = div_projector(patch, _sample_points(patch, 24))
    return float(np.max(np.abs(dp_p)))


def identity_fields(patch: FoliatedPatch) -> dict:
    """The fields f1, f2, u, b_leaf, b_full and omega of the integral identities:
    trigonometric in the first and last chart coordinates, b_full a multiple of
    the metric and b_leaf one of the leaf metric.  The weight of b_full has no
    parity in the last coordinate, so on a metric even in it (a torus of
    revolution) the two sides of ibp_full do not vanish by symmetry."""
    n, s = patch.n, patch.s
    w_field = Field.from_callable(
        lambda x: np.sin(x[:, 0]) + 0.3 * np.cos(x[:, -1]), n=n)

    def f_b(x):
        return np.cos(2 * x[:, 0]) + 0.5 * np.sin(x[:, 0] + x[:, -1])

    def b_full_fn(x):
        return np.sin(x[:, 0] - x[:, -1])[:, None, None] * patch.geometry(x).g

    def omega_fn(x):
        return np.stack([np.sin(x[:, 0]) + 0.2 * np.cos(x[:, -1])] * s, axis=1)

    return {
        "f1": Field.from_callable(
            lambda x: np.sin(x[:, 0]) + 0.4 * np.cos(x[:, 0] - 2 * x[:, -1]), n=n),
        "f2": Field.from_callable(f_b, n=n),
        "u": Field.from_callable(f_b, n=n),
        "b_leaf": leaf_metric_multiple(patch, w_field),
        "b_full": Field.from_callable(b_full_fn, n, step=1e-3),
        "omega": Field.from_callable(omega_fn, n, step=1e-3, axes=s),
    }


def _green_f(patch, geo, x, f1, f2, **_):
    """int f1 Delta_F f2 dV = -int <grad_F f1, grad_F f2> dV."""
    _, du2, d2u2 = f2.jets(x)
    _, du1, _ = f1.jets(x)
    pair = np.einsum("pi,pij,pj->p", leaf_gradient(geo, du1), geo.g_ff, leaf_gradient(geo, du2))
    return f1(x) * laplacian_leaf(geo, du2, d2u2), -pair


def _symm_f(patch, geo, x, f1, f2, **_):
    """int f1 Delta_F f2 dV = int f2 Delta_F f1 dV."""
    _, du1, d2u1 = f1.jets(x)
    _, du2, d2u2 = f2.jets(x)
    return f1(x) * laplacian_leaf(geo, du2, d2u2), f2(x) * laplacian_leaf(geo, du1, d2u1)


def _ibp_full(patch, geo, x, u, b_full, **_):
    """int <B, Hess u> dV = int u (nabla*)^2 B dV."""
    _, du, d2u = u.jets(x)
    hess = hessian_full(geo, du, d2u)
    pair = np.einsum("pik,pjl,pkl,pij->p", geo.g_inv, geo.g_inv, b_full(x), hess)
    return pair, u(x) * star_squared_full(patch, b_full, x, geo)


def _ibp_f(patch, geo, x, u, b_leaf, **_):
    """int <B, Hess^F u> dV = int u (nabla^{F*})^2 B dV for a leafwise B."""
    _, du, d2u = u.jets(x)
    hess = hessian_leaf(geo, du, d2u)
    pair = np.einsum("pik,pjl,pkl,pij->p", geo.g_ff_inv, geo.g_ff_inv, b_leaf(x), hess)
    return pair, u(x) * fstar_squared(patch, b_leaf, x, geo)


def _adjoint_f(patch, geo, x, f1, omega, **_):
    """int <omega, grad_F f1> dV = int f1 nabla^{F*} omega dV."""
    _, du, _ = f1.jets(x)
    return (leaf_gradient_pairing(geo, omega(x), du),
            f1(x) * fstar_one_form(patch, omega, x, geo))


#: each integral identity by name, as the function of (patch, geo, x, fields)
#: that gives its (lhs, rhs) density pair at the points x of a third-order
#: geometry geo of the patch
INTEGRAL_IDENTITIES = {"green_F": _green_f, "symm_F": _symm_f, "ibp_full": _ibp_full,
                       "ibp_F": _ibp_f, "adjoint_F": _adjoint_f}


def verify_integral_identity(identity: str, patch: FoliatedPatch, *,
                             threshold: float = 1e-8, **fields) -> IdentityReport:
    """Quadrature check of one integration-by-parts identity on a patch: its
    two sides are integrated as one stack of densities in one pass.

    ``fields`` are the fields the identity reads, named as in
    ``identity_fields``: scalar fields f1, f2 and u, a leafwise 2-tensor
    b_leaf, a full 2-tensor b_full and a leafwise 1-form omega.  Leafwise
    identities require a transversally harmonic foliation; when the
    precondition fails the report is marked not applicable instead of failed
    (the statements make no claim there).
    """
    if identity not in INTEGRAL_IDENTITIES:
        raise DomainError(f"unknown identity {identity!r}")
    pre_norm = 0.0
    applicable = True
    if identity != "ibp_full" and patch.s < patch.n:
        pre_norm = transversal_harmonicity_norm(patch)
        applicable = pre_norm < 1e-8
    sides = INTEGRAL_IDENTITIES[identity]
    lhs, rhs = patch.integrate(lambda geo: np.stack(sides(patch, geo, geo.x, **fields)),
                               order=3)
    disc = abs(lhs - rhs)
    return IdentityReport(
        identity=identity,
        lhs=float(lhs),
        rhs=float(rhs),
        discrepancy=float(disc),
        applicable=bool(applicable),
        passed=bool(applicable and disc < threshold),
        precondition_norm=float(pre_norm),
    )
