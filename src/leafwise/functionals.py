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
WF) or tau (J_nps, JF), stated once in ``_lower`` by its F alone; every
partial dF/dq_k is the complex step of F.  Values on patches and on
revolution profiles, first variations sum_k dF/dq_k delta q_k - n u F H
and the analyticity check all read that lowering.  A value reads the spectrum
only up to max(used), the highest member F uses (``spectrum(family, top)``
of the geometry), so the F(H_F) kinds read sigma_0 and sigma_1 alone.

First variations are evaluated in their integral (pre-integration-by-parts)
form with the tensorial delta formulas of :mod:`leafwise.deltas`.  The
Euler-Lagrange residual of every kind is one formula in the same lowering,
the leaf-intrinsic reading: it integrates by parts with the leaf-intrinsic
operators, so it assumes a transversally harmonic foliation, which is
checked, and it is the L^2 gradient (int u R dV = delta W) only when the
leaves are also minimal in M.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from numbers import Integral, Real

import numpy as np

from . import deltas
from .errors import DomainError, PreconditionError, SpecError, ValidationError
from .operators import (
    Field,
    fstar_squared,
    hessian_full,
    laplacian_block,
    laplacian_full,
    leaf_gradient,
    leaf_laplacian,
)
from .patch import FoliatedPatch, PointGeometry
from .revolution import RevolutionProfile, invariants
from .suppliers import InvertedImmersion, ScaledImmersion
from .symfunc import (
    newton_weights,
    q_r_from_sigma,
    safe_power,
    sigma_all,
    umbilic_power,
)
from .variation import COMPLEX_STEP, complex_step_geometry
from .varcheck import transversal_harmonicity_norm

KINDS = ("W_nps", "J_nps", "WF", "JF", "WF_of_HF", "WF_HK", "W_conf")


@dataclass
class FunctionalSpec:
    """Selector for one functional, with the data its kind requires.

    WF/JF take ``f`` of an (M, s) array of sigma/tau values, WF_of_HF ``f``
    of H_F (and ``f2`` = F'' for second variations) and WF_HK ``f`` of
    (H_F, K_F).  W_nps/J_nps use ``p`` and W_conf its conformal order ``r``,
    an integer 1 <= r <= s.  Every partial dF/dq_k is the complex step of F,
    so a user ``f`` must be complex-analytic (numpy arithmetic and ufuncs, no
    ``np.abs`` or ``np.real``), which is checked here.
    """

    kind: str
    p: float | None = None
    r: int | None = None
    f: object = None
    f2: object = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SpecError(f"unknown functional kind {self.kind!r}")
        if self.kind in ("W_nps", "J_nps") and self.p is None:
            raise SpecError(f"{self.kind} needs the exponent p")
        if self.p is not None and (isinstance(self.p, bool) or not isinstance(self.p, Real)
                                   or not np.isfinite(self.p)):
            raise SpecError(f"the exponent p must be a finite real number, got {self.p!r}")
        if self.kind == "W_conf" and not (
                isinstance(self.r, Integral) and not isinstance(self.r, bool) and self.r >= 1):
            raise SpecError(f"W_conf needs a conformal order r that is an integer >= 1, "
                            f"got {self.r!r}")
        if self.kind in ("WF", "JF", "WF_of_HF", "WF_HK") and self.f is None:
            raise SpecError(f"{self.kind} needs f")
        self._check_complex_analytic()

    def _check_complex_analytic(self):
        """The complex steps Im F(q + i h e_k) / h of the lowered F against
        central differences of step 1e-6 at every s = 1..max(4, r) F is
        defined for, on leaf eigenvalues near 0.5 but the last 0.4 s higher,
        where every Q_r, r >= 2, is positive; an F that is not complex-analytic
        or drops the imaginary part fails."""
        rng = np.random.default_rng(0)
        validated = False
        for s in range(1, 1 + max(4, self.r if self.kind == "W_conf" else 0)):
            eigs = 0.5 + 0.01 * rng.standard_normal((4, s))
            eigs[:, -1] += 0.4 * s
            spectra = {"sigma": sigma_all(eigs),
                       "tau": np.sum(eigs[:, :, None] ** np.arange(s + 2), axis=1)}
            try:
                family, used, f, df, _ = _lower(self, s + 1, s)
                q = spectra[family]
                vals = f(q)
            except (IndexError, ValueError, SpecError):
                continue  # functional defined for a specific s only
            if vals.shape != (4,):
                continue  # shapes identify the intended s
            for k, cs in zip(used, df(q)):
                step = 1e-6 * np.eye(q.shape[1])[k]
                fd = (f(q + step) - f(q - step)) / 2e-6
                if np.max(np.abs(cs - fd)) > 1e-6 * max(1.0, np.max(np.abs(fd))):
                    raise ValidationError(
                        f"the complex step of f in {family}_{k} disagrees with its central "
                        f"difference; f must be complex-analytic, written with numpy "
                        f"arithmetic and ufuncs")
            validated = True
        if not validated:
            raise ValidationError("could not evaluate f at any probe dimension")


def w_nps(p: float) -> FunctionalSpec:
    return FunctionalSpec(kind="W_nps", p=p)


def j_nps(p: float) -> FunctionalSpec:
    return FunctionalSpec(kind="J_nps", p=p)


def w_conf(r: int = 2) -> FunctionalSpec:
    return FunctionalSpec(kind="W_conf", r=r)


# ---------------------------------------------------------------------------
# evaluation


def _array_fn(fn):
    """fn with a float array value, complex under a complex step (None stays None)."""
    return None if fn is None else (
        lambda *args: np.asarray(v := fn(*args), dtype=complex if np.iscomplexobj(v) else float))


def _lowering(family: str, used: tuple, f, profile=None):
    """(family, used, F, dF, profile) with dF giving the partials
    dF/dq_k = Im F(q + i h e_k) / h, h = COMPLEX_STEP, one array per k in
    ``used``: exact to rounding for a complex-analytic F, and evaluated by
    variations and residuals, never by values."""

    def df(q):
        return tuple(np.imag(f(q + 1j * COMPLEX_STEP * np.eye(q.shape[1])[k])) / COMPLEX_STEP
                     for k in used)

    return family, used, f, df, profile


def _of_hf(s: int, f, f2):
    """Lowering of F(H_F) = F(sigma_1 / s) from its profile (F, F'')."""
    return _lowering("sigma", (1,), lambda q: f(q[:, 1] / s), (f, f2))


def _lower(spec: FunctionalSpec, n: int, s: int):
    """The functional as F of one leaf spectrum, each kind stated once by its
    F alone.

    Returns (family, used, F, dF, profile).  ``family`` names the spectrum F
    reads, "sigma" (sigma_0..sigma_s) or "tau" (tau_0..tau_{s+2}), as an
    attribute of PointGeometry and RevolutionInvariants and as the family of
    :func:`leafwise.deltas.delta_spectrum`.  F maps the array q of that spectrum,
    q[:, k] = q_k at M points, to the density; dF maps it to the partials
    dF/dq_k, one array per index k in ``used``, by the complex step of F
    (``_lowering``).  ``profile`` is (F, F'') as functions of H_F for the
    F(H_F) kinds and None otherwise.
    """
    kind = spec.kind
    if kind == "W_nps":
        p = spec.p
        return _of_hf(s, lambda h: safe_power(h, p),
                      lambda h: p * (p - 1) * safe_power(h, p - 2))
    if kind == "WF_of_HF":
        return _of_hf(s, *map(_array_fn, (spec.f, spec.f2)))
    if kind == "WF_HK":
        if s != 2:
            raise SpecError("WF_HK requires a 2-dimensional foliation")
        f = _array_fn(spec.f)
        return _lowering("sigma", (1, 2), lambda q: f(q[:, 1] / 2, q[:, 2]))
    if kind == "W_conf":
        r = spec.r
        if r > s:
            raise SpecError(f"conformal order r={r} exceeds s={s}")
        return _lowering("sigma", tuple(range(1, r + 1)),
                         lambda q: umbilic_power(q_r_from_sigma(q, r, s), n / r))
    if kind == "J_nps":
        p = spec.p
        return _lowering("tau", (2,), lambda q: safe_power(q[:, 2], p / 2.0))
    # WF and JF: the user's F of sigma_1..sigma_s or of tau_1..tau_s
    f = _array_fn(spec.f)
    return _lowering("sigma" if kind == "WF" else "tau", tuple(range(1, s + 1)),
                     lambda q: f(q[:, 1 : s + 1]))


def integrand(spec: FunctionalSpec, geo, n: int, s: int) -> np.ndarray:
    """Pointwise functional density (per unit volume) on a PointGeometry or
    on RevolutionInvariants, from the spectrum up to the highest member F
    uses."""
    family, used, f, _, _ = _lower(spec, n, s)
    return f(geo.spectrum(family, max(used)))


def evaluate(spec: FunctionalSpec, surface) -> float:
    """Value of the functional on a patch or a revolution profile."""
    return surface.integrate(lambda geo: integrand(spec, geo, surface.n, surface.s))


# ---------------------------------------------------------------------------
# first variation


def first_variation_density(spec: FunctionalSpec, geo: PointGeometry, n: int,
                            s: int, u, du, d2u) -> np.ndarray:
    """Pointwise density of the first variation (before volume weighting):
    sum_k dF/dq_k delta q_k - n u F H over the spectrum indices k F uses."""
    family, used, f, df, _ = _lower(spec, n, s)
    q = getattr(geo, family)
    hess_leaf = geo.leaf_block(hessian_full(geo, du, d2u))
    acc = -n * u * f(q) * geo.mean_curvature
    for k, dfdq_k in zip(used, df(q)):
        acc = acc + dfdq_k * deltas.delta_spectrum(family, geo, u, hess_leaf, k)
    return acc


def _require_patch(surface, what: str) -> None:
    """DomainError unless ``surface`` is a FoliatedPatch, which ``what`` needs."""
    if not isinstance(surface, FoliatedPatch):
        raise DomainError(f"{what} needs a FoliatedPatch, not a {type(surface).__name__}; "
                          f"a revolution profile gives one by revolution_patch(profile)")


def first_variation_analytic(spec: FunctionalSpec, patch: FoliatedPatch,
                             u: Field) -> float:
    """First variation from the analytic delta formulas (no integration by
    parts; valid on any foliated patch)."""
    _require_patch(patch, "first_variation_analytic")
    return patch.integrate(
        lambda geo: first_variation_density(spec, geo, patch.n, patch.s, *u.jets(geo.x)))


def first_variation_numeric(spec: FunctionalSpec, patch: FoliatedPatch,
                            u: Field) -> float:
    """Independent oracle: the complex step dW/dt = Im W(r + i h u N) / h,
    exact to rounding, in one order-3 ``integrate`` pass.  Each block deforms
    its base geometry once (``complex_step_geometry``) and keeps the row
    Im(integrand_t sqrt det g_t) / (h sqrt det g_0), which the block's weight
    times sqrt det g_0 pulls back to dW/dt's integrand."""
    _require_patch(patch, "first_variation_numeric")

    def pulled_back(geo):
        geo_t = complex_step_geometry(patch, geo, *u.jets(geo.x))
        return (np.imag(integrand(spec, geo_t, patch.n, patch.s) * geo_t.sqrt_det_g)
                / (COMPLEX_STEP * geo.sqrt_det_g))

    return patch.integrate(pulled_back, order=3)


# ---------------------------------------------------------------------------
# Euler-Lagrange residuals


def _derived_scalar(patch: FoliatedPatch, fn, step: float = 1e-3) -> Field:
    return Field.from_callable(lambda x: fn(patch.geometry(x)), n=patch.n, step=step)


def _weight_coefficients(family: str, used, df, geo) -> np.ndarray:
    """c_0..c_{m-1} along the last axis, m = max(used), of the weight
    sum_k dF/dq_k W_k = sum_j c_j A_F^j at ``geo``, each W_k from
    ``symfunc.newton_weights``."""
    q = getattr(geo, family)
    c = np.zeros((q.shape[0], max(used)))
    for k, dfdq_k in zip(used, df(q)):
        c[:, :k] += dfdq_k[:, None] * newton_weights(family, q, k)
    return c


def el_residual(spec: FunctionalSpec, surface, x=None, fd_step: float = 1e-3) -> np.ndarray:
    """Pointwise Euler-Lagrange residual R, the leaf-intrinsic reading; it is
    the L^2 gradient (int u R dV = delta W) only when the leaves are minimal in M.

    With F of the leaf spectrum q from ``_lower`` and its weight
    sum_k dF/dq_k W_k = sum_j c_j A_F^j (``_weight_coefficients``, summing the
    coefficients of ``symfunc.newton_weights``),
    R = Delta_F c_0 + (nabla^F*)^2(sum_{j>=1} c_j h_F^(j)) + sum_k dF/dq_k alg_k
    - sum_j c_j <A_F^j, h_mix^2> - n F H, with h_F^(j) = h_FF (g_FF^-1 h_FF)^(j-1)
    in leaf coordinates and alg_k = tr(A_F^2 W_k) from ``deltas.spectrum_algebraic``.
    The Laplacian term runs unless c_0 vanishes identically (a tau spectrum
    without tau_1).  The leaf operators integrate by parts only on a
    transversally harmonic foliation, which is checked.  On revolution
    profiles (rho samples ``x``) the weights are constant on parallels and
    h_mix = 0, so R = sum_k dF/dq_k alg_k - n F H.
    """
    n, s = surface.n, surface.s
    if isinstance(surface, RevolutionProfile):
        rho = surface.sample(200) if x is None else np.asarray(x, dtype=float)
        geo = invariants(surface, rho)
        mean = geo.mean
    else:
        patch: FoliatedPatch = surface
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
    for k, dfdq_k in zip(used, df(q)):
        res = res + dfdq_k * deltas.spectrum_algebraic(family, geo, k)
    if isinstance(surface, RevolutionProfile):
        return res
    weights = partial(_weight_coefficients, family, used, df)
    for j, c_j in enumerate(weights(geo).T):
        res = res - c_j * geo.mix_pairing(geo.leaf_power(j))
    if family == "sigma" or 1 in used:
        c_0 = _derived_scalar(patch, lambda g: weights(g)[:, 0], fd_step)
        res = res + leaf_laplacian(patch, c_0, geo.x, geo)
    if max(used) >= 2:

        def weighted_h_f(pts):
            g = patch.geometry(pts)
            c = weights(g)
            h_ff = power = g.h[:, :s, :s]
            acc = c[:, 1, None, None] * h_ff
            for c_j in c[:, 2:].T:
                power = power @ g.g_ff_inv @ h_ff
                acc = acc + c_j[:, None, None] * power
            return acc

        tensor = Field.from_callable(weighted_h_f, n, step=fd_step, axes=s)
        res = res + fstar_squared(patch, tensor, geo.x, geo)
    return res


# ---------------------------------------------------------------------------
# second variation


def second_variation_analytic(spec: FunctionalSpec, patch: FoliatedPatch, u,
                              allow_constant_residual: bool = False,
                              residual_fd_step: float = 1e-3) -> float:
    """Second variation at a critical patch: max |el_residual| must stay below
    1e-6, taken about its mean with ``allow_constant_residual`` (R constant is
    the volume-constrained critical condition).

    The quadratic form is that of F = F(H_F)-type functionals (W_nps and
    WF_of_HF) on foliations without mixed curvature: a patch whose max
    |h_mix|^2 exceeds 1e-12 max |h|^2 raises PreconditionError before the
    residual is computed.  Revolution profiles have their parallel-mode form,
    ``revolution.second_variation_revolution``.
    """
    _require_patch(patch, "second_variation_analytic")
    n, s = patch.n, patch.s
    _, _, _, df, profile = _lower(spec, n, s)
    if profile is None:
        raise SpecError("second variation implemented for F = F(H_F) kinds")
    f, f2 = profile
    if f2 is None:
        raise SpecError("second variation of F(H_F) needs f2 = F''")

    def fprime(geo):  # F'(H_F) = s dF/dsigma_1
        return s * df(geo.sigma)[0]

    geo = patch.geometry()
    mix, full = float(np.max(geo.norm_hmix_sq)), float(np.max(geo.norm_h_sq))
    if mix > 1e-12 * full:
        raise PreconditionError(
            f"second variation needs h_mix = 0: max |h_mix|^2 {mix:.3e} > 1e-12 max |h|^2")
    res = el_residual(spec, patch, fd_step=residual_fd_step)
    res_scale = float(np.max(np.abs(res - np.mean(res) if allow_constant_residual else res)))
    if res_scale > 1e-6:
        raise PreconditionError(
            f"surface is not critical: max residual {res_scale:.3e} > 1e-6")
    # leaf_laplacian reads only the leaf derivatives, so step along the leaf axes
    fprime_field = Field.from_callable(lambda x: fprime(patch.geometry(x)), n, step=1e-3, axes=s)

    def density(geo):
        uu, du, d2u = u.jets(geo.x)
        h_f = geo.h_f_mean
        f_val, f_p, f_pp = f(h_f), fprime(geo), f2(h_f)
        h_mean = geo.mean_curvature
        lap_u = laplacian_block(geo, du, d2u)
        lap_full_u = laplacian_full(geo, du, d2u)
        lap_fprime = leaf_laplacian(patch, fprime_field, geo.x, geo)
        tau2, tau3 = geo.tau[:, 2], geo.tau[:, 3]
        hb = geo.leaf_block(hessian_full(geo, du, d2u))
        pair_hess = np.einsum("pij,pij->p", geo.a_leaf, hb)
        xi = leaf_gradient(geo, du)
        grad_sq = np.einsum("pi,pij,pj->p", xi, geo.g_ff, xi)
        h_grad = np.einsum("pi,pij,pj->p", xi, geo.h[:, :s, :s], xi)
        dshf = deltas._leaf_function_gradient_shf(geo)
        hf_grad_u = np.einsum("pj,pij,pi->p", dshf / s, geo.g_ff_inv, du[:, :s])

        term1 = -(n / s) * (f_p * lap_u - uu * lap_fprime) * uu * h_mean
        term2 = (f_p / s) * (
            2.0 * uu * pair_hess + s * uu * hf_grad_u + 2.0 * h_grad - s * h_f * grad_sq
        ) + (f_pp / s**2) * lap_u * (lap_u + uu * tau2)
        term3 = uu * (
            ((f_pp / s**2) * tau2 - (n / s) * h_mean * f_p) * (lap_u + uu * tau2)
            - f_val * (lap_full_u + uu * geo.norm_h_sq)
            + (f_p / s) * 2.0 * (uu * tau3 + pair_hess)
        )
        return term1 + term2 + term3

    return patch.integrate(density, order=3)


# ---------------------------------------------------------------------------
# conformal invariance


def conformal_density_check(patch: FoliatedPatch, r: int = 2,
                            mode: str = "inversion", scale: float = 2.0) -> dict:
    """Invariance of the W_conf density Q_r^{n/r} sqrt(det g) under an ambient
    conformal map, at every max(1, N // 64)-th of the N grid points.

    mode 'scaling' applies x -> scale * x; mode 'inversion' applies the
    Möbius inversion x -> x/|x|^2 (the patch must avoid the origin), which
    reverses orientation, so its image takes the opposite ``normal_orientation``
    and the shape-operator law with conformal factor mu = |x|^{-2} is verified.
    """
    _require_patch(patch, "conformal_density_check")
    if r > patch.s:
        raise DomainError(f"conformal order r={r} exceeds leaf dimension s={patch.s}")
    if mode == "scaling":
        image = replace(patch, supplier=ScaledImmersion(patch.supplier, scale))
    elif mode == "inversion":
        image = replace(patch, supplier=InvertedImmersion(patch.supplier),
                        normal_orientation=-patch.normal_orientation)
    else:
        raise DomainError(f"unknown conformal mode {mode!r}")
    pts = patch.grid.points
    x = pts[:: max(1, pts.shape[0] // 64)]
    spec = w_conf(r)
    geo, geo_img = patch.geometry(x), image.geometry(x)
    base, dens_img = (integrand(spec, g, patch.n, patch.s) * g.sqrt_det_g
                      for g in (geo, geo_img))
    rel = np.max(np.abs(dens_img - base) / np.maximum(np.abs(base), 1e-300))
    dev = 0.0
    if mode == "inversion":
        # shape operator law: A_F^c = (1/mu)(A_F - (1/mu) <grad mu, N> id)
        pos = geo.contiguous_jets.r
        w = np.einsum("pa,pa->p", pos, pos)
        mu = 1.0 / w
        grad_mu = -2.0 * pos / w[:, None] ** 2
        mu_n = np.einsum("pa,pa->p", grad_mu, geo.normal)
        expected = (geo.a_leaf - (mu_n / mu)[:, None, None] * np.eye(patch.s)) / mu[:, None, None]
        dev = float(np.max(np.abs(geo_img.a_leaf - expected)))
    return {"mode": mode, "max_rel_deviation": float(rel), "shape_law_deviation": dev}


# ---------------------------------------------------------------------------
# helpers used by stability checks


def project_volume_preserving(patch: FoliatedPatch, u: Field) -> Field:
    """Remove the volume-changing mean: u -> u - (int u dV)/(int dV)."""
    moment, volume = patch.integrate(
        lambda geo: np.stack([u(geo.x), np.ones(geo.x.shape[0])]))
    mean = moment / volume

    def shifted(x):
        return u(x) - mean

    # jets share the same derivatives; only the value shifts
    def jets(x):
        val, du, d2u = u.jets(x)
        return val - mean, du, d2u

    return Field(jets, u.n, shifted)
