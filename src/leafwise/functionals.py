"""Curvature functionals on foliated hypersurfaces: values, first and
second variations, Euler-Lagrange residuals, conformal invariance checks.

Supported functional kinds (s = leaf dimension, quantities leafwise):

====================  =====================================================
W_nps                 integral of (mean leaf curvature)^p
J_nps                 integral of |leaf second fundamental form|^p
WF                    integral of F(sigma_1, ..., sigma_s)
JF                    integral of F(tau_1, ..., tau_s)
WF_of_HF              integral of F(H_F)
WF_HK                 integral of F(H_F, K_F), s = 2 only
W_conf                integral of Q_r^{n/r} (conformally invariant)
====================  =====================================================

Every kind is F of one leaf spectrum, sigma (W_nps, WF_of_HF, WF_HK, W_conf,
WF) or tau (J_nps, JF), stated once in ``_lower``.  Values on patches and
on revolution profiles, first variations sum_k dF/dq_k delta q_k - n u F H
and the partials check all read that lowering.

First variations are evaluated in their integral (pre-integration-by-parts)
form with the tensorial delta formulas of :mod:`leafwise.deltas`.  The
Euler-Lagrange residual of every kind is one formula in the same lowering,
normalised as the L^2 gradient (int u R dV = delta W); it integrates by
parts with the leaf-intrinsic operators and therefore assumes a
transversally harmonic foliation, which is checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import deltas
from .errors import DomainError, PreconditionError, SpecError, ValidationError
from .operators import (
    LeafTensorField,
    ScalarField,
    fstar_squared,
    hessian_full,
    hessian_mixed_frame,
    laplacian_block,
    laplacian_full,
    leaf_gradient,
    leaf_laplacian,
)
from .patch import FoliatedPatch, PointGeometry, gauss_axis
from .revolution import (
    RevolutionProfile,
    invariants,
    second_variation_revolution,
    sphere_area,
)
from .suppliers import InvertedImmersion, ScaledImmersion
from .symfunc import POWER_EPS, q_r_from_sigma, safe_power, sigma_all, umbilic_power
from .variation import (
    DEFAULT_T_LADDER,
    VariationField,
    deformed_patch,
    richardson,
)
from .varcheck import transversal_harmonicity_norm

KINDS = ("W_nps", "J_nps", "WF", "JF", "WF_of_HF", "WF_HK", "W_conf")


@dataclass
class FunctionalSpec:
    """Selector for one functional, with the data its kind requires.

    For WF/JF supply ``f`` taking an (M, s) array of sigma/tau values and
    ``f_partials`` returning the (M, s) array of partial derivatives.  For
    WF_of_HF supply scalar callables ``f``, ``f1``, ``f2``.  For WF_HK
    supply ``f``, ``f_h``, ``f_k`` of (H_F, K_F).  W_nps/J_nps use ``p``
    and W_conf uses ``r``.
    """

    kind: str
    p: float | None = None
    r: int | None = None
    f: object = None
    f_partials: object = None
    f1: object = None
    f2: object = None
    f_h: object = None
    f_k: object = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SpecError(f"unknown functional kind {self.kind!r}")
        if self.kind in ("W_nps", "J_nps") and self.p is None:
            raise SpecError(f"{self.kind} needs the exponent p")
        if self.kind == "W_conf":
            if self.r is None:
                raise SpecError("W_conf needs the conformal order r")
            if self.r != 2:
                raise SpecError("variational formulas are implemented for r = 2 only")
        if self.kind in ("WF", "JF") and (self.f is None or self.f_partials is None):
            raise SpecError(f"{self.kind} needs f and f_partials")
        if self.kind == "WF_of_HF" and (self.f is None or self.f1 is None):
            raise SpecError("WF_of_HF needs f and f1 (f2 for second variations)")
        if self.kind == "WF_HK" and (self.f is None or self.f_h is None or self.f_k is None):
            raise SpecError("WF_HK needs f, f_h and f_k")
        self._spot_check_partials()

    def _spot_check_partials(self, tol: float = 1e-6):
        """Central differences of the lowered F against its partials, on a
        leaf spectrum probe at every s = 1..4 the functional is defined for."""
        rng = np.random.default_rng(0)
        eps = 1e-6
        validated = False
        for s in (1, 2, 3, 4):
            eigs = 0.5 + 0.1 * rng.standard_normal((4, s))
            spectra = {"sigma": sigma_all(eigs),
                       "tau": np.sum(eigs[:, :, None] ** np.arange(s + 2), axis=1)}
            try:
                family, used, f, df, _ = _lower(self, s + 1, s)
                q = spectra[family]
                vals, grads = f(q), df(q)
            except (IndexError, ValueError, SpecError):
                continue  # functional defined for a specific s only
            if vals.shape != (4,):
                continue  # shapes identify the intended s
            for k, grad in zip(used, grads):
                bump = np.zeros_like(q)
                bump[:, k] = eps
                fd = (f(q + bump) - f(q - bump)) / (2 * eps)
                if np.max(np.abs(fd - grad)) > tol * max(1.0, np.max(np.abs(fd))):
                    raise ValidationError(
                        f"partial dF/d{family}_{k} disagrees with finite differences of f")
            validated = True
        if not validated:
            raise ValidationError(
                "could not validate the partials of f at any probe dimension")


def w_nps(p: float) -> FunctionalSpec:
    return FunctionalSpec(kind="W_nps", p=p)


def j_nps(p: float) -> FunctionalSpec:
    return FunctionalSpec(kind="J_nps", p=p)


def w_conf(r: int = 2) -> FunctionalSpec:
    return FunctionalSpec(kind="W_conf", r=r)


# ---------------------------------------------------------------------------
# evaluation


def _array_fn(fn):
    """fn with its value as a float array (None stays None)."""
    return None if fn is None else (lambda *args: np.asarray(fn(*args), dtype=float))


def _of_h_f(s: int, f, f1, f2):
    """Lowering of F(H_F) = F(sigma_1 / s) from its profile (F, F', F'')."""
    return ("sigma", (1,), lambda q: f(q[:, 1] / s), lambda q: (f1(q[:, 1] / s) / s,),
            (f, f1, f2))


def _lower(spec: FunctionalSpec, n: int, s: int):
    """The functional as F of one leaf spectrum, each kind stated once.

    Returns (family, used, F, dF, profile).  ``family`` names the spectrum F
    reads, "sigma" (sigma_0..sigma_s) or "tau" (tau_0..tau_{s+2}), as an
    attribute of PointGeometry and RevolutionInvariants and as the suffix of
    its delta in :mod:`leafwise.deltas`.  F maps the array q of that spectrum,
    q[:, k] = q_k at M points, to the density; dF maps it to the partials
    dF/dq_k, one array per index k in ``used``.  ``profile`` is (F, F', F'') as functions of H_F
    for the F(H_F) kinds and None otherwise.
    """
    kind = spec.kind
    if kind == "W_nps":
        p = spec.p
        return _of_h_f(s, lambda h: safe_power(h, p), lambda h: p * safe_power(h, p - 1),
                       lambda h: p * (p - 1) * safe_power(h, p - 2))
    if kind == "WF_of_HF":
        return _of_h_f(s, *map(_array_fn, (spec.f, spec.f1, spec.f2)))
    if kind == "WF_HK":
        if s != 2:
            raise SpecError("WF_HK requires a 2-dimensional foliation")
        f, f_h, f_k = map(_array_fn, (spec.f, spec.f_h, spec.f_k))
        return ("sigma", (1, 2), lambda q: f(q[:, 1] / 2, q[:, 2]),
                lambda q: (0.5 * f_h(q[:, 1] / 2, q[:, 2]), f_k(q[:, 1] / 2, q[:, 2])), None)
    if kind == "W_conf":
        if spec.r > s:
            raise SpecError(f"conformal order r={spec.r} exceeds s={s}")

        def partials(q):
            # dQ_2/dsigma_1 = 2 sigma_1 / s^2, dQ_2/dsigma_2 = -2 / (s (s-1))
            c = (n / 2.0) * umbilic_power(q_r_from_sigma(q, 2, s), n / 2.0 - 1.0)
            return 2.0 * c * q[:, 1] / s**2, -2.0 * c / (s * (s - 1))

        return ("sigma", (1, 2), lambda q: umbilic_power(q_r_from_sigma(q, 2, s), n / 2.0),
                partials, None)
    if kind == "J_nps":
        p = spec.p
        return ("tau", (2,), lambda q: safe_power(q[:, 2], p / 2.0),
                lambda q: ((p / 2.0) * safe_power(q[:, 2], p / 2.0 - 1.0),), None)
    # WF and JF: the user's F of sigma_1..sigma_s or of tau_1..tau_s

    def user_partials(q):
        grads = np.asarray(spec.f_partials(q[:, 1 : s + 1]), dtype=float)
        if grads.shape != (q.shape[0], s):
            raise SpecError(f"f_partials gave shape {grads.shape}, not {(q.shape[0], s)}")
        return grads.T

    return ("sigma" if kind == "WF" else "tau", tuple(range(1, s + 1)),
            lambda q: np.asarray(spec.f(q[:, 1 : s + 1]), dtype=float), user_partials, None)


def integrand(spec: FunctionalSpec, geo, n: int, s: int) -> np.ndarray:
    """Pointwise functional density (per unit volume) on a PointGeometry or
    on RevolutionInvariants."""
    family, _, f, _, _ = _lower(spec, n, s)
    return f(getattr(geo, family))


def evaluate(spec: FunctionalSpec, surface) -> float:
    """Value of the functional on a patch or a revolution profile."""
    if isinstance(surface, RevolutionProfile):
        return _evaluate_revolution(spec, surface)
    patch: FoliatedPatch = surface
    return patch.integral(lambda geo: integrand(spec, geo, patch.n, patch.s))


def _evaluate_revolution(spec: FunctionalSpec, profile: RevolutionProfile,
                         quad_nodes: int = 400) -> float:
    """Quadrature over the profile; dV = rho^{n-1} sqrt(1+f'^2) d(angles) d rho."""
    n = profile.n
    axis = gauss_axis(profile.rho_min, profile.rho_max, quad_nodes)
    inv = invariants(profile, axis.nodes)
    dens = integrand(spec, inv, n, n - 1)
    return float(sphere_area(n - 1) * np.sum(axis.weights * dens * inv.area_density))


# ---------------------------------------------------------------------------
# first variation


def first_variation_density(spec: FunctionalSpec, geo: PointGeometry, n: int,
                            s: int, u, du, d2u) -> np.ndarray:
    """Pointwise density of the first variation (before volume weighting):
    sum_k dF/dq_k delta q_k - n u F H over the spectrum indices k F uses."""
    family, used, f, df, _ = _lower(spec, n, s)
    q = getattr(geo, family)
    delta = getattr(deltas, "delta_" + family)
    acc = -n * u * f(q) * geo.mean_curvature
    for k, df_k in zip(used, df(q)):
        acc = acc + df_k * delta(geo, u, du, d2u, k)
    return acc


def first_variation_analytic(spec: FunctionalSpec, patch: FoliatedPatch,
                             u: VariationField) -> float:
    """First variation from the analytic delta formulas (no integration by
    parts; valid on any foliated patch)."""
    return patch.integral(
        lambda geo: first_variation_density(spec, geo, patch.n, patch.s, *u.jets(geo.x)))


def first_variation_numeric(spec: FunctionalSpec, patch: FoliatedPatch,
                            u: VariationField,
                            t_steps=DEFAULT_T_LADDER) -> float:
    """Independent oracle: central difference of evaluate() over r + t*u*N,
    Richardson-extrapolated over the two smallest steps."""
    vals = []
    for t in t_steps:
        wp = evaluate(spec, deformed_patch(patch, u, +t))
        wm = evaluate(spec, deformed_patch(patch, u, -t))
        vals.append((wp - wm) / (2.0 * t))
    if len(vals) == 1:
        return float(vals[0])
    return float(richardson(vals, list(t_steps)))


# ---------------------------------------------------------------------------
# Euler-Lagrange residuals


def _derived_scalar(patch: FoliatedPatch, fn, step: float = 1e-3) -> ScalarField:
    return ScalarField.from_callable(lambda x: fn(patch.geometry(x)), n=patch.n,
                                     step=step)


def _weight_coefficients(family: str, used, df, geo) -> list:
    """c_0..c_{m-1}, m = max(used), of the weight sum_k dF/dq_k W_k = sum_j c_j A_F^j
    at ``geo``, with W_k = T_{k-1} = sum_j (-1)^j sigma_{k-1-j} A_F^j for sigma and
    W_k = k A_F^{k-1} for tau."""
    q = getattr(geo, family)
    c = [np.zeros(q.shape[0]) for _ in range(max(used))]
    for k, df_k in zip(used, df(q)):
        if family == "tau":
            c[k - 1] = c[k - 1] + k * df_k
        else:
            for j in range(k):
                c[j] = c[j] + (-1) ** j * df_k * q[:, k - 1 - j]
    return c


def el_residual(spec: FunctionalSpec, surface, x=None, fd_step: float = 1e-3) -> np.ndarray:
    """Pointwise Euler-Lagrange residual R, the L^2 gradient: int u R dV = delta W.

    With F of the leaf spectrum q from ``_lower`` and its weight
    sum_k dF/dq_k W_k = sum_j c_j A_F^j (``_weight_coefficients``),
    R = Delta_F c_0 + (nabla^F*)^2(sum_{j>=1} c_j h_F^(j)) + sum_k dF/dq_k alg_k
    - sum_j c_j <A_F^j, h_mix^2> - n F H, with h_F^(j) = h_FF (g_FF^-1 h_FF)^(j-1)
    in leaf coordinates and alg_k = sigma_1 sigma_k - (k+1) sigma_{k+1} for
    sigma, k tau_{k+1} for tau (the u-terms of delta q_k without h_mix).  The
    leaf operators integrate by parts only on a transversally harmonic
    foliation, which is checked.  On revolution profiles (rho samples ``x``)
    the weights are constant on parallels and h_mix = 0, so
    R = sum_k dF/dq_k alg_k - n F H.
    """
    if isinstance(surface, RevolutionProfile):
        n, s = surface.n, surface.n - 1
        rho = surface.sample(200) if x is None else np.asarray(x, dtype=float)
        geo = invariants(surface, rho)
        mean = geo.mean
    else:
        patch: FoliatedPatch = surface
        n, s = patch.n, patch.s
        if s < n and (div_norm := transversal_harmonicity_norm(patch)) > 1e-8:
            raise PreconditionError(
                f"foliation is not transversally harmonic: |(div P) o P| = {div_norm:.3e}")
        if x is None:
            pts = patch.grid.points
            # keep clear of non-periodic chart edges by the stencil radius
            margin = 3.0 * fd_step
            keep = np.all([ax.periodic | ((ax.lo + margin < c) & (c < ax.hi - margin))
                           for c, ax in zip(pts.T, patch.grid.axes)], axis=0)
            pts = pts[keep] if np.any(keep) else pts
            x = pts[:: max(1, pts.shape[0] // 32)]
        geo = patch.geometry(x, order=3)
        mean = geo.mean_curvature
    family, used, f, df, _ = _lower(spec, n, s)
    q = getattr(geo, family)
    res = -n * f(q) * mean
    for k, df_k in zip(used, df(q)):
        res = res + df_k * (deltas.sigma_algebraic(q, k) if family == "sigma"
                            else k * q[:, k + 1])
    if isinstance(surface, RevolutionProfile):
        return res
    weights = partial(_weight_coefficients, family, used, df)
    for j, c_j in enumerate(weights(geo)):
        res = res - c_j * geo.mix_pairing(geo.leaf_power(j))
    if family == "sigma" or 1 in used:
        c_0 = _derived_scalar(patch, lambda g: weights(g)[0], fd_step)
        res = res + leaf_laplacian(patch, c_0, geo.x, geo)
    if max(used) >= 2:

        def weighted_h_f(pts):
            g = patch.geometry(pts)
            c = weights(g)
            h_ff = power = g.h[:, :s, :s]
            acc = c[1][:, None, None] * h_ff
            for c_j in c[2:]:
                power = power @ g.g_ff_inv @ h_ff
                acc = acc + c_j[:, None, None] * power
            return acc

        tensor = LeafTensorField(fn=weighted_h_f, s=s, step=fd_step)
        res = res + fstar_squared(patch, tensor, geo.x, geo)
    return res


# ---------------------------------------------------------------------------
# second variation


def second_variation_analytic(spec: FunctionalSpec, surface, u,
                              residual_tol: float = 1e-6,
                              allow_constant_residual: bool = False,
                              residual_fd_step: float = 1e-3) -> float:
    """Second variation at a critical surface: max |el_residual| must stay below
    ``residual_tol``, taken about its mean with ``allow_constant_residual`` (R
    constant is the volume-constrained critical condition).

    Patches evaluate the quadratic form for F = F(H_F)-type functionals
    (W_nps and WF_of_HF); revolution profiles delegate to the specialized
    parallel-mode form.  Mixed-curvature terms follow the stated quadratic
    form; they vanish on every surface this is exercised on (h_mix = 0).
    """
    if isinstance(surface, RevolutionProfile):
        if spec.kind != "W_nps":
            raise SpecError("revolution second variation implemented for W_nps")
        return second_variation_revolution(surface, spec.p, **u)
    patch: FoliatedPatch = surface
    n, s = patch.n, patch.s
    profile = _lower(spec, n, s)[4]
    if profile is None:
        raise SpecError("second variation implemented for F = F(H_F) kinds")
    f, f1, f2 = profile
    if f2 is None:
        raise SpecError("second variation of F(H_F) needs f2 = F''")
    res = el_residual(spec, patch, fd_step=residual_fd_step)
    res_scale = float(np.max(np.abs(res - np.mean(res) if allow_constant_residual else res)))
    if res_scale > residual_tol:
        raise PreconditionError(
            f"surface is not critical: max residual {res_scale:.3e} > {residual_tol:.1e}")

    x = patch.grid.points
    geo = patch.geometry(x, order=3)
    uu, du, d2u = u.jets(x)
    h_f = geo.h_f_mean
    f_val, f_p, f_pp = f(h_f), f1(h_f), f2(h_f)
    fprime_field = _derived_scalar(patch, lambda g: f1(g.h_f_mean))

    h_mean = geo.mean_curvature
    lap_u = laplacian_block(geo, du, d2u)
    lap_full_u = laplacian_full(geo, du, d2u)
    lap_fprime = leaf_laplacian(patch, fprime_field, x, geo)
    mix_diff = geo.norm_hf_sq - geo.norm_hmix_sq
    c = geo.c_mix
    hb = geo.leaf_block(hessian_full(geo, du, d2u))
    pair_hess = np.einsum("pij,pij->p", geo.a_leaf, hb)
    hm = hessian_mixed_frame(geo, du, d2u)
    pair_mix_hess = np.einsum("pia,pia->p", hm, c)
    xi = leaf_gradient(geo, du)
    grad_sq = np.einsum("pi,pij,pj->p", xi, geo.g_ff, xi)
    h_grad = np.einsum("pi,pij,pj->p", xi, geo.h[:, :s, :s], xi)
    dshf = deltas._leaf_function_gradient_shf(geo)
    hf_grad_u = np.einsum("pj,pij,pi->p", dshf / s, geo.g_ff_inv, du[:, :s])
    tr_a3, tr_acc = geo.hf_hf2, geo.hf_hmix2
    tr_bcc = np.einsum("pab,pia,pib->p", geo.b_perp, c, c)

    term1 = -(n / s) * (f_p * lap_u - uu * lap_fprime) * uu * h_mean
    term2 = (f_p / s) * (
        2.0 * uu * pair_hess + s * uu * hf_grad_u + 2.0 * h_grad - s * h_f * grad_sq
    ) + (f_pp / s**2) * lap_u * (lap_u + uu * mix_diff)
    term3 = uu * (
        ((f_pp / s**2) * mix_diff - (n / s) * h_mean * f_p) * (lap_u + uu * mix_diff)
        - f_val * (lap_full_u + uu * geo.norm_h_sq)
        + (f_p / s) * (
            2.0 * (uu * (tr_a3 + tr_acc) + pair_hess)
            - uu * (tr_acc + tr_bcc)
            - 2.0 * pair_mix_hess
        )
    )
    return patch.integrate(term1 + term2 + term3, geo)


# ---------------------------------------------------------------------------
# conformal invariance


def conformal_density(patch_like, r: int, x: np.ndarray, n: int, s: int,
                      supplier=None) -> np.ndarray:
    """(Q_r)^{n/r} sqrt(det g) at given parameter points."""
    from dataclasses import replace

    patch = patch_like if supplier is None else replace(patch_like, supplier=supplier)
    geo = patch.geometry(x)
    q = q_r_from_sigma(geo.sigma, r, s)
    if r % 2 == 1 and np.any(q < -POWER_EPS):
        raise DomainError("odd-order conformal density needs a positive Q_r")
    return umbilic_power(np.abs(q), n / r) * geo.sqrt_det_g


def conformal_density_check(patch: FoliatedPatch, r: int = 2,
                            mode: str = "inversion", scale: float = 2.0,
                            x: np.ndarray | None = None) -> dict:
    """Invariance of (Q_r)^{n/r} sqrt(det g) under an ambient conformal map.

    mode 'scaling' applies x -> scale * x; mode 'inversion' applies the
    Möbius inversion x -> x/|x|^2 (the patch must avoid the origin).  For
    the inversion the shape-operator transformation law with conformal
    factor mu = |x|^{-2} is verified as well; the image normal is matched
    up to the overall sign of the transported orientation.
    """
    if r > patch.s:
        raise DomainError(f"conformal order r={r} exceeds leaf dimension s={patch.s}")
    if x is None:
        pts = patch.grid.points
        x = pts[:: max(1, pts.shape[0] // 64)]
    base = conformal_density(patch, r, x, patch.n, patch.s)
    if mode == "scaling":
        image_supplier = ScaledImmersion(patch.supplier, scale)
        image = conformal_density(patch, r, x, patch.n, patch.s, supplier=image_supplier)
        rel = np.max(np.abs(image - base) / np.maximum(np.abs(base), 1e-300))
        return {"mode": mode, "max_rel_deviation": float(rel), "shape_law_deviation": 0.0}
    if mode != "inversion":
        raise DomainError(f"unknown conformal mode {mode!r}")
    image_supplier = InvertedImmersion(patch.supplier)
    image = conformal_density(patch, r, x, patch.n, patch.s, supplier=image_supplier)
    rel = np.max(np.abs(image - base) / np.maximum(np.abs(base), 1e-300))

    # shape operator law: A_F^c = (1/mu)(A_F - (1/mu) <grad mu, N> id)
    from dataclasses import replace

    geo = patch.geometry(x)
    geo_img = replace(patch, supplier=image_supplier).geometry(x)
    pos = geo.jets.r
    w = np.einsum("pa,pa->p", pos, pos)
    mu = 1.0 / w
    grad_mu = -2.0 * pos / w[:, None] ** 2
    mu_n = np.einsum("pa,pa->p", grad_mu, geo.normal)
    expected = (geo.a_leaf - (mu_n / mu)[:, None, None] * np.eye(patch.s)) / mu[:, None, None]
    got = geo_img.a_leaf
    dev = min(
        float(np.max(np.abs(got - expected))),
        float(np.max(np.abs(got + expected))),
    )
    return {"mode": mode, "max_rel_deviation": float(rel), "shape_law_deviation": dev}


# ---------------------------------------------------------------------------
# helpers used by stability checks


def project_volume_preserving(patch: FoliatedPatch, u: VariationField) -> VariationField:
    """Remove the volume-changing mean: u -> u - (int u dV)/(int dV)."""
    moment, volume = patch.integral(
        lambda geo: np.stack([u(geo.x), np.ones(geo.x.shape[0])]))
    mean = moment / volume

    base = u.u

    def shifted(x):
        return base(x) - mean

    # jets share the same derivatives; only the value shifts
    def jets(x):
        val, du, d2u = base.jets(x)
        return val - mean, du, d2u

    return VariationField(u=ScalarField(jets_fn=jets, fn=shifted))
