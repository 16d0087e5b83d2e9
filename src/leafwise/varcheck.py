"""Finite-difference verification of the evolution equations and the
integral identities.

Every supported quantity is recomputed on the deformed immersion
r + t*u*N at a ladder of t values, centred-differenced, and compared with
its analytic first-variation formula.  The analytic right-hand sides are
the tensorial restatements (leafwise blocks of full covariant Hessians);
for the leafwise quantities the module also evaluates the naive
leaf-intrinsic reading and reports its deviation instead of silently
adopting either one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import deltas
from .errors import DomainError
from .operators import (
    FullTensorField,
    LeafOneFormField,
    LeafTensorField,
    ScalarField,
    div_projector,
    fstar_one_form,
    fstar_squared,
    hessian_full,
    hessian_leaf,
    hessian_mixed_frame,
    laplacian_leaf,
    leaf_gradient,
    leaf_gradient_pairing,
    leaf_laplacian,
    star_squared_full,
)
from .patch import FoliatedPatch
from .variation import (
    DEFAULT_T_LADDER,
    VariationField,
    deformed_patch,
    estimate_order,
    richardson,
)

EVOLUTION_QUANTITIES = (
    "g", "g_inv", "h", "norm_h_sq", "nH", "dV",
    "sH_F", "norm_hF_sq", "norm_hmix_sq", "lapF_f",
    "tau_i", "sigma_r", "twoH_F", "K_F", "Christoffel",
)

INTEGRAL_IDENTITIES = ("green_F", "symm_F", "ibp_full", "ibp_F", "adjoint_F")

#: measured order in t below which a case fails
MIN_ORDER = 1.9

#: absolute error under which convergence-order estimation is meaningless
ERROR_FLOOR = 1e-11


@dataclass(frozen=True)
class EvolutionCase:
    """One verifiable evolution equation."""

    quantity: str
    t_values: tuple = DEFAULT_T_LADDER
    order_index: int = 2  # i for tau_i, r for sigma_r

    def __post_init__(self):
        if self.quantity not in EVOLUTION_QUANTITIES:
            raise DomainError(f"unknown quantity {self.quantity!r}")
        ts = tuple(float(t) for t in self.t_values)
        if len(ts) < 2 or not all(a > b for a, b in zip(ts, ts[1:])):
            raise DomainError("t_values must be strictly decreasing with >= 2 entries")
        object.__setattr__(self, "t_values", ts)


@dataclass
class ConvergenceReport:
    quantity: str
    numeric: float
    analytic: float
    errors: list
    order_t: float
    passed: bool
    richardson_error: float
    naive_deviation: float | None = None
    order_h: float | None = None
    details: dict = field(default_factory=dict)

    def row(self) -> dict:
        return {
            "case": self.quantity,
            "numeric": self.numeric,
            "analytic": self.analytic,
            "max_error": max(self.errors),
            "order_t": self.order_t,
            "order_h": self.order_h,
            "richardson_error": self.richardson_error,
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

    def row(self) -> dict:
        return {
            "identity": self.identity,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "discrepancy": self.discrepancy,
            "applicable": self.applicable,
            "pass": bool(self.passed),
            "divP_P_norm": self.precondition_norm,
        }


def _sample_points(patch: FoliatedPatch, count: int = 12) -> np.ndarray:
    pts = patch.grid.points
    stride = max(1, pts.shape[0] // count)
    return pts[:: stride][:count]


def _quantity_extractor(case: EvolutionCase, f: ScalarField | None):
    q = case.quantity
    if q == "lapF_f":
        if f is None:
            raise DomainError("lapF_f case needs the auxiliary function f")
        return lambda p, x: leaf_laplacian(p, f, x)
    i = case.order_index
    of_geometry = {
        "g": lambda geo: geo.g,
        "g_inv": lambda geo: geo.g_inv,
        "h": lambda geo: geo.h,
        "norm_h_sq": lambda geo: geo.norm_h_sq,
        "nH": lambda geo: geo.n * geo.mean_curvature,
        "dV": lambda geo: geo.sqrt_det_g,
        "sH_F": lambda geo: geo.sigma[:, 1],
        "twoH_F": lambda geo: geo.sigma[:, 1],
        "norm_hF_sq": lambda geo: geo.norm_hf_sq,
        "norm_hmix_sq": lambda geo: geo.norm_hmix_sq,
        "K_F": lambda geo: geo.k_f,
        "tau_i": lambda geo: geo.tau[:, i],
        "sigma_r": lambda geo: geo.sigma[:, i],
        "Christoffel": lambda geo: geo.gamma,
    }[q]
    return lambda p, x: of_geometry(p.geometry(x))


def _analytic_rhs(case: EvolutionCase, geo, u, du, d2u, f: ScalarField | None):
    q = case.quantity
    if q == "g":
        return deltas.delta_metric(geo, u)
    if q == "g_inv":
        return deltas.delta_metric_inverse(geo, u)
    if q == "h":
        return deltas.delta_second_form(geo, u, du, d2u)
    if q == "norm_h_sq":
        return deltas.delta_norm_h_sq(geo, u, du, d2u)
    if q == "nH":
        return deltas.delta_nh(geo, u, du, d2u)
    if q == "dV":
        return deltas.delta_volume_density(geo, u)
    if q in ("sH_F", "twoH_F"):
        return deltas.delta_s_hf(geo, u, du, d2u)
    if q == "norm_hF_sq":
        return deltas.delta_norm_hf_sq(geo, u, du, d2u)
    if q == "norm_hmix_sq":
        return deltas.delta_norm_hmix_sq(geo, u, du, d2u)
    if q == "K_F":
        return deltas.delta_k_f(geo, u, du, d2u)
    if q == "tau_i":
        return deltas.delta_tau(geo, u, du, d2u, case.order_index)
    if q == "sigma_r":
        return deltas.delta_sigma(geo, u, du, d2u, case.order_index)
    if q == "lapF_f":
        _, f_du, f_d2u = f.jets(geo.x)
        return deltas.delta_lapf(geo, u, du, d2u, f_du, f_d2u)
    if q == "Christoffel":
        return deltas.delta_christoffel(geo, u, du)
    raise DomainError(f"unknown quantity {q!r}")


def _naive_rhs(case: EvolutionCase, geo, u, du, d2u, f: ScalarField | None):
    """Leaf-intrinsic literal reading of the leafwise evolution equations.

    Returns None for quantities whose statement is already unambiguous.
    """
    q = case.quantity
    if q not in ("sH_F", "twoH_F", "norm_hF_sq", "norm_hmix_sq", "K_F",
                 "tau_i", "sigma_r", "lapF_f"):
        return None
    a = geo.a_leaf
    c = geo.c_mix
    hess_intr = geo.leaf_block(hessian_leaf(geo, du, d2u))
    lap_intr = laplacian_leaf(geo, du, d2u)
    tr_acc = geo.hf_hmix2
    if q in ("sH_F", "twoH_F"):
        return lap_intr + u * (geo.norm_hf_sq - geo.norm_hmix_sq)
    if q == "norm_hF_sq":
        return 2.0 * np.einsum("pij,pij->p", a, hess_intr) + 2.0 * u * (geo.hf_hf2 + tr_acc)
    if q == "norm_hmix_sq":
        hm = hessian_mixed_frame(geo, du, d2u)
        tr_bcc = np.einsum("pab,pia,pib->p", geo.b_perp, c, c)
        return u * (tr_acc + tr_bcc) + 2.0 * np.einsum("pia,pia->p", hm, c)
    if q == "K_F":
        h_f, k_f = geo.h_f_mean, geo.k_f
        pair = np.einsum("pij,pij->p", a, hess_intr)
        return (2.0 * h_f * lap_intr - pair - u * tr_acc
                + 2.0 * u * h_f * (k_f - geo.norm_hmix_sq))
    if q == "tau_i":
        i = case.order_index
        a_pow = geo.leaf_power(i - 1)
        tau_next = np.einsum("pij,pji->p", geo.leaf_power(i), a)
        pair_mix = geo.mix_pairing(a_pow)
        return i * (np.einsum("pij,pij->p", a_pow, hess_intr) + u * (tau_next - pair_mix))
    if q == "sigma_r":
        r = case.order_index
        t_prev = geo.newton(r - 1)
        alg = deltas.sigma_algebraic(geo.sigma, r) - geo.mix_pairing(t_prev)
        return np.einsum("pij,pij->p", t_prev, hess_intr) + u * alg
    if q == "lapF_f":
        _, f_du, f_d2u = f.jets(geo.x)
        pair, h_grads, grads, hf_grad, _ = deltas._lapf_terms(geo, du, f_du, f_d2u)
        return 2.0 * u * pair + u * hf_grad + 2.0 * h_grads - geo.sigma[:, 1] * grads
    return None


def verify_evolution(case: EvolutionCase, patch: FoliatedPatch, u: VariationField,
                     f: ScalarField | None = None,
                     points: np.ndarray | None = None,
                     grid_levels: tuple | None = None) -> ConvergenceReport:
    """Check one evolution equation on a patch against central differences.

    When ``grid_levels`` gives two or more per-axis resolutions (periodic
    charts only), the variation amplitude is additionally resampled on
    those grids and the report carries the convergence order in the grid
    step of the grid-backed analytic right-hand side.
    """
    if case.quantity in ("twoH_F", "K_F") and patch.s != 2:
        raise DomainError(f"{case.quantity} needs a patch with s=2, got s={patch.s}")
    top = {"tau_i": patch.s + 1, "sigma_r": patch.s}.get(case.quantity)
    if top is not None and not 1 <= case.order_index <= top:
        raise DomainError(f"{case.quantity} index {case.order_index} outside 1..{top}")
    x = _sample_points(patch) if points is None else np.atleast_2d(points)
    extract = _quantity_extractor(case, f)

    geo = patch.geometry(x, order=3)
    uu, du, d2u = u.jets(x)
    analytic = np.asarray(_analytic_rhs(case, geo, uu, du, d2u, f), dtype=float)
    naive = _naive_rhs(case, geo, uu, du, d2u, f)

    numeric = []
    for t in case.t_values:
        qp = np.asarray(extract(deformed_patch(patch, u, +t), x), dtype=float)
        qm = np.asarray(extract(deformed_patch(patch, u, -t), x), dtype=float)
        numeric.append((qp - qm) / (2.0 * t))
    errors = [float(np.max(np.abs(nv - analytic))) for nv in numeric]
    at_floor = max(errors) < ERROR_FLOOR
    # exactly-linear quantities difference to rounding noise; report that as
    # a converged case rather than a meaningless slope
    order_t = np.inf if at_floor else estimate_order(errors, case.t_values)
    rich = richardson(numeric, case.t_values)
    rich_err = float(np.max(np.abs(rich - analytic)))
    passed = at_floor or (order_t >= MIN_ORDER)
    order_h = None
    if grid_levels is not None:
        order_h = _grid_order(case, patch, u, f, x, geo, analytic, grid_levels)
    return ConvergenceReport(
        quantity=case.quantity,
        numeric=float(np.max(np.abs(numeric[-1]))),
        analytic=float(np.max(np.abs(analytic))),
        errors=errors,
        order_t=order_t,
        passed=bool(passed),
        richardson_error=rich_err,
        naive_deviation=None if naive is None else float(np.max(np.abs(naive - analytic))),
        order_h=order_h,
        details={"order_index": case.order_index} if case.quantity in ("tau_i", "sigma_r") else {},
    )


def _grid_order(case, patch, u, f, x, geo, analytic_ref, grid_levels):
    """Order in grid step of the analytic RHS fed with grid-sampled u."""
    from .patch import Grid, periodic_axis

    if not all(ax.periodic for ax in patch.grid.axes):
        raise DomainError("grid-order estimation needs a fully periodic chart")
    errs, steps = [], []
    for m in grid_levels:
        axes = tuple(periodic_axis(ax.lo, ax.hi, int(m)) for ax in patch.grid.axes)
        grid = Grid(axes=axes)
        sampled = ScalarField.from_grid(
            grid, np.asarray(u(grid.points), dtype=float).reshape(grid.shape))
        nodes = grid.points[:: max(1, grid.points.shape[0] // x.shape[0])][: x.shape[0]]
        geo_nodes = patch.geometry(nodes, order=3)
        uu, du, d2u = sampled.jets(nodes)
        rhs_grid = np.asarray(_analytic_rhs(case, geo_nodes, uu, du, d2u, f))
        ue, due, d2ue = u.jets(nodes)
        rhs_exact = np.asarray(_analytic_rhs(case, geo_nodes, ue, due, d2ue, f))
        errs.append(float(np.max(np.abs(rhs_grid - rhs_exact))))
        steps.append((axes[0].hi - axes[0].lo) / int(m))
    return estimate_order(errs, steps)


def transversal_harmonicity_norm(patch: FoliatedPatch, points=None) -> float:
    """max |(div P) o P| over sample points (0 iff transversally harmonic)."""
    x = _sample_points(patch, 24) if points is None else points
    dp_p, _ = div_projector(patch, x)
    return float(np.max(np.abs(dp_p)))


def verify_integral_identity(identity: str, patch: FoliatedPatch, *,
                             f1: ScalarField | None = None,
                             f2: ScalarField | None = None,
                             u: ScalarField | None = None,
                             b_leaf: LeafTensorField | None = None,
                             b_full: FullTensorField | None = None,
                             omega: LeafOneFormField | None = None,
                             threshold: float = 1e-8) -> IdentityReport:
    """Quadrature check of one integration-by-parts identity on a patch.

    Leafwise identities require a transversally harmonic foliation; when
    the precondition fails the report is marked not applicable instead of
    failed (the statements make no claim there).
    """
    if identity not in INTEGRAL_IDENTITIES:
        raise DomainError(f"unknown identity {identity!r}")
    x = patch.grid.points
    geo = patch.geometry(x, order=3)
    pre_norm = 0.0
    applicable = True
    if identity != "ibp_full" and patch.s < patch.n:
        pre_norm = transversal_harmonicity_norm(patch)
        applicable = pre_norm < 1e-8

    if identity == "green_F":
        _, du2, d2u2 = f2.jets(x)
        lap2 = laplacian_leaf(geo, du2, d2u2)
        _, du1, _ = f1.jets(x)
        xi1 = leaf_gradient(geo, du1)
        pair = np.einsum("pi,pij,pj->p", xi1, geo.g_ff, leaf_gradient(geo, du2))
        lhs = patch.integrate(f1(x) * lap2, geo)
        rhs = -patch.integrate(pair, geo)
    elif identity == "symm_F":
        _, du1, d2u1 = f1.jets(x)
        _, du2, d2u2 = f2.jets(x)
        lhs = patch.integrate(f1(x) * laplacian_leaf(geo, du2, d2u2), geo)
        rhs = patch.integrate(f2(x) * laplacian_leaf(geo, du1, d2u1), geo)
    elif identity == "ibp_full":
        _, du, d2u = u.jets(x)
        hess = hessian_full(geo, du, d2u)
        b0 = b_full(x)
        pair = np.einsum("pik,pjl,pkl,pij->p", geo.g_inv, geo.g_inv, b0, hess)
        lhs = patch.integrate(pair, geo)
        rhs = patch.integrate(u(x) * star_squared_full(patch, b_full, x, geo), geo)
    elif identity == "ibp_F":
        _, du, d2u = u.jets(x)
        hess = hessian_leaf(geo, du, d2u)
        b0 = b_leaf(x)
        pair = np.einsum("pik,pjl,pkl,pij->p", geo.g_ff_inv, geo.g_ff_inv, b0, hess)
        lhs = patch.integrate(pair, geo)
        rhs = patch.integrate(u(x) * fstar_squared(patch, b_leaf, x, geo), geo)
    elif identity == "adjoint_F":
        _, du, _ = f1.jets(x)
        lhs = patch.integrate(leaf_gradient_pairing(geo, omega(x), du), geo)
        rhs = patch.integrate(f1(x) * fstar_one_form(patch, omega, x, geo), geo)
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
