"""Hypersurfaces of revolution x_{n+1} = f(rho) foliated by sphere parallels.

Closed-form curvature algebra, the critical-profile ODE and its quadrature
solution, and the revolution-specialized second variation.  Profiles carry
callables for f and its first three derivatives so the generic patch
pipeline can consume them with analytic accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, gamma as gamma_fn, pi

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.special import gegenbauer

from .errors import DomainError, PreconditionError
from .patch import FoliatedPatch, Grid, gauss_axis, periodic_axis
from .suppliers import AnalyticSupplier, Jets
from .catalog import sphere_exprs
from .symfunc import safe_power

#: slope magnitude treated as a vertical tangent (graph form breaks down)
VERTICAL_SLOPE = 1e6


def sphere_area(m: int) -> float:
    """Area of the unit m-sphere: 2 pi^{(m+1)/2} / Gamma((m+1)/2)."""
    return 2.0 * pi ** ((m + 1) / 2) / gamma_fn((m + 1) / 2)


@dataclass
class RevolutionProfile:
    """Profile f(rho) of a revolution hypersurface in R^{n+1}."""

    n: int
    f: object
    f1: object
    f2: object
    f3: object
    rho_min: float
    rho_max: float
    p: float | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.rho_min <= 0:
            raise DomainError("profiles must stay away from the axis (rho_min > 0)")
        if self.rho_min >= self.rho_max:
            raise DomainError("empty rho range")

    def check_rho(self, rho):
        rho = np.asarray(rho, dtype=float)
        if np.any(rho <= 0):
            raise DomainError("rho must be positive")
        return rho

    def sample(self, m: int = 200) -> np.ndarray:
        return np.linspace(self.rho_min, self.rho_max, m)


@dataclass
class RevolutionInvariants:
    """Pointwise curvature bundle of a revolution hypersurface.

    ``sigma`` (sigma_0..sigma_s) and ``tau`` (tau_0..tau_{s+2}) are the leaf
    spectra of the parallels, whose shape operator is k1 times the identity
    (s = n-1), laid out as on a PointGeometry.
    """

    rho: np.ndarray
    k1: np.ndarray
    kn: np.ndarray
    mean: np.ndarray
    norm_h_sq: np.ndarray
    area_density: np.ndarray
    sigma: np.ndarray
    tau: np.ndarray


def principal_curvatures(profile: RevolutionProfile, rho):
    """(k1, kn): parallel and profile principal curvatures.

    k1 = f' / (rho sqrt(1+f'^2)) repeated n-1 times, kn = f''/(1+f'^2)^{3/2};
    a graph has a finite slope, so |k1| < 1/rho.  A non-finite slope (a
    vertical tangent) raises DomainError.
    """
    rho = profile.check_rho(rho)
    y = np.asarray(profile.f1(rho), dtype=float)
    ypr = np.asarray(profile.f2(rho), dtype=float)
    if not np.all(np.isfinite(y)):
        raise DomainError("profile slope is not finite (vertical tangent)")
    k1 = y / (rho * np.sqrt(1.0 + y * y))
    kn = ypr / (1.0 + y * y) ** 1.5
    return k1, kn


def invariants(profile: RevolutionProfile, rho) -> RevolutionInvariants:
    """All curvature combinations used by the functionals (h_mix = 0)."""
    rho = profile.check_rho(rho)
    n = profile.n
    k1, kn = principal_curvatures(profile, rho)
    y = np.asarray(profile.f1(rho), dtype=float)
    powers = np.asarray(k1)[..., None] ** np.arange(n + 2)
    return RevolutionInvariants(
        rho=rho,
        k1=k1,
        kn=kn,
        mean=((n - 1) * k1 + kn) / n,
        norm_h_sq=(n - 1) * k1**2 + kn**2,
        area_density=rho ** (n - 1) * np.sqrt(1.0 + y * y),
        sigma=np.array([comb(n - 1, k) for k in range(n)]) * powers[..., :n],
        tau=(n - 1) * powers,
    )


def criticality_residual(profile: RevolutionProfile, rho, p: float | None = None):
    """|kn - (p-n+1) k1| / max|k1|: zero exactly on critical profiles."""
    p = profile.p if p is None else p
    if p is None:
        raise DomainError("profile has no exponent p")
    k1, kn = principal_curvatures(profile, rho)
    return np.abs(kn - (p - profile.n + 1) * k1) / max(np.max(np.abs(k1)), 1e-300)


def critical_ode_solve(n: int, p: float, rho0: float, f0: float, f0prime: float,
                       rho_range, rtol: float = 1e-10, atol: float = 1e-12,
                       ) -> RevolutionProfile:
    """Integrate rho f'' = (p-n+1) f' (1+f'^2) with adaptive Runge-Kutta.

    The slope equation decouples: the state is (f, y=f').  Integration
    stops at a vertical tangent (|y| = VERTICAL_SLOPE) and the profile is
    truncated there, with the location reported in meta.
    """
    lo, hi = float(rho_range[0]), float(rho_range[1])
    if lo <= 0:
        raise DomainError("rho range must exclude 0")
    if not lo <= rho0 <= hi:
        raise DomainError("rho0 outside rho range")
    if not np.isfinite(f0prime):
        raise DomainError("initial slope must be finite")
    c = p - n + 1

    def rhs(rho, state):
        y = state[1]
        return [y, c * y * (1.0 + y * y) / rho]

    def vertical(rho, state):
        return abs(state[1]) - VERTICAL_SLOPE

    vertical.terminal = True

    # pad the integration range so stencils of derived fields can step
    # slightly outside the requested window
    pad = 0.05 * (hi - lo)
    lo_pad = max(lo - pad, 0.5 * lo)
    hi_pad = hi + pad

    def solve(direction_hi):
        span = (rho0, hi_pad) if direction_hi else (rho0, lo_pad)
        return solve_ivp(rhs, span, [f0, f0prime], method="DOP853", rtol=rtol,
                         atol=atol, dense_output=True, events=vertical)

    sol_up = solve(True)
    sol_dn = solve(False) if rho0 > lo_pad else None
    truncated_at = None
    hi_eff = min(float(sol_up.t[-1]), hi)
    if sol_up.status == 1 and sol_up.t[-1] < hi:  # vertical tangent inside range
        truncated_at = float(sol_up.t[-1])
        hi_eff = truncated_at
    lo_eff = max(float(sol_dn.t[-1]), lo) if sol_dn is not None else rho0
    if sol_dn is not None and sol_dn.status == 1 and sol_dn.t[-1] > lo:
        truncated_at = float(sol_dn.t[-1])
        lo_eff = truncated_at

    def piecewise(component):
        def eval_at(rho):
            rho = np.asarray(rho, dtype=float)
            out = np.empty_like(rho)
            up = rho >= rho0
            if np.any(up):
                out[up] = sol_up.sol(rho[up])[component]
            if np.any(~up):
                if sol_dn is None:
                    raise DomainError("rho below the integration range")
                out[~up] = sol_dn.sol(rho[~up])[component]
            return out

        return eval_at

    f_eval = piecewise(0)
    y_eval = piecewise(1)

    def f2_eval(rho):
        rho = np.asarray(rho, dtype=float)
        y = y_eval(rho)
        return c * y * (1.0 + y * y) / rho

    def f3_eval(rho):
        rho = np.asarray(rho, dtype=float)
        y = y_eval(rho)
        ypr = c * y * (1.0 + y * y) / rho
        return c * ((1.0 + 3.0 * y * y) * ypr * rho - y * (1.0 + y * y)) / rho**2

    return RevolutionProfile(
        n=n, f=f_eval, f1=y_eval, f2=f2_eval, f3=f3_eval,
        rho_min=float(lo_eff), rho_max=float(hi_eff), p=p,
        meta={"rho0": rho0, "f0": f0, "f0prime": f0prime,
              "truncated_at": truncated_at},
    )


def fit_constants(n: int, p: float, rho0: float, f0prime: float) -> float:
    """C1 such that the closed-form slope matches f'(rho0) = f0prime.

    From f'^2 = rho^a / (C1 - rho^a) with a = 2(p-n+1):
    C1 = rho0^a (1 + f0prime^2) / f0prime^2.
    """
    if f0prime == 0:
        raise DomainError("cannot fit constants to a horizontal slope")
    a = 2.0 * (p - n + 1)
    return float(rho0**a * (1.0 + f0prime**2) / f0prime**2)


def closed_form_window(n: int, p: float, c1: float, margin: float = 1e-8):
    """Feasible rho interval of the closed-form integrand for C1 > 0.

    Requires rho^a < C1 (radicand >= 0 and denominator > 0), a = 2(p-n+1).
    """
    a = 2.0 * (p - n + 1)
    if c1 <= 0:
        raise DomainError("closed form needs C1 > 0 (radicand is negative otherwise)")
    if a <= 0:
        raise DomainError("closed form implemented for p > n-1 (a > 0)")
    rho_v = c1 ** (1.0 / a)
    return (margin, rho_v - margin), rho_v


def critical_closed_form(n: int, p: float, c1: float, c2: float,
                         rho_grid, quad_tol: float = 1e-12) -> RevolutionProfile:
    """Critical profile from the quadrature form of the slope integral.

    f(rho) = c2 + int_{rho_lo}^{rho} sqrt(C1 t^a - t^{2a}) / (C1 - t^a) dt
    with a = 2(p-n+1); the integrand simplifies to t^{a/2}/sqrt(C1 - t^a).
    """
    rho_grid = np.asarray(rho_grid, dtype=float)
    a = 2.0 * (p - n + 1)
    (w_lo, w_hi), rho_v = closed_form_window(n, p, c1)
    if np.any(rho_grid < w_lo) or np.any(rho_grid > w_hi):
        raise DomainError(
            f"rho grid violates the feasibility window ({w_lo:.3e}, {w_hi:.3e}) "
            f"of the closed form (vertical tangent at rho={rho_v:.6g})")

    def slope(rho):
        rho = np.asarray(rho, dtype=float)
        return rho ** (a / 2) / np.sqrt(c1 - rho**a)

    rho_lo = float(rho_grid.min())
    knots = np.unique(np.concatenate([[rho_lo], rho_grid]))
    vals = np.empty_like(knots)
    vals[0] = c2
    for i in range(1, len(knots)):
        seg, _ = quad(lambda t: float(slope(t)), knots[i - 1], knots[i],
                      epsabs=quad_tol, epsrel=1e-12, limit=200)
        vals[i] = vals[i - 1] + seg

    def f_eval(rho):
        rho = np.asarray(rho, dtype=float)
        flat = np.atleast_1d(rho)
        res = np.empty_like(flat)
        for idx, r in enumerate(flat):
            j = int(np.clip(np.searchsorted(knots, r), 1, len(knots) - 1))
            seg, _ = quad(lambda t: float(slope(t)), knots[j - 1], r,
                          epsabs=quad_tol, epsrel=1e-12, limit=200)
            res[idx] = vals[j - 1] + seg
        return res.reshape(np.shape(rho))

    def f2_eval(rho):
        rho = np.asarray(rho, dtype=float)
        return 0.5 * a * c1 * rho ** (a / 2 - 1) * (c1 - rho**a) ** (-1.5)

    def f3_eval(rho):
        rho = np.asarray(rho, dtype=float)
        return 0.5 * a * c1 * (
            (a / 2 - 1) * rho ** (a / 2 - 2) * (c1 - rho**a) ** (-1.5)
            + 1.5 * a * rho ** (1.5 * a - 2) * (c1 - rho**a) ** (-2.5)
        )

    return RevolutionProfile(
        n=n, f=f_eval, f1=slope, f2=f2_eval, f3=f3_eval,
        rho_min=float(rho_grid.min()), rho_max=float(rho_grid.max()), p=p,
        meta={"C1": c1, "C2": c2, "vertical_at": rho_v},
    )


def profile_from_sympy(n: int, expr, symbol, rho_range, p: float | None = None,
                       **meta) -> RevolutionProfile:
    """Closed-form profile (hemisphere, cone, catenoid-like, ...)."""
    import sympy as sp

    fs = [expr]
    for _ in range(3):
        fs.append(sp.diff(fs[-1], symbol))
    fns = [sp.lambdify(symbol, e, modules="numpy") for e in fs]

    def wrap(fn):
        def eval_at(rho):
            rho = np.asarray(rho, dtype=float)
            return np.broadcast_to(np.asarray(fn(rho), dtype=float), rho.shape)

        return eval_at

    return RevolutionProfile(n=n, f=wrap(fns[0]), f1=wrap(fns[1]), f2=wrap(fns[2]),
                             f3=wrap(fns[3]), rho_min=rho_range[0],
                             rho_max=rho_range[1], p=p, meta=meta)


class RevolutionSupplier:
    """Immersion jets of (rho*omega(angles), f(rho)), leaf coordinates first."""

    def __init__(self, profile: RevolutionProfile):
        self.profile = profile
        n = profile.n
        coords, exprs = sphere_exprs(n - 1, 1.0)
        self.omega = AnalyticSupplier(coords, exprs) if n >= 2 else None
        self.n = n

    def jets(self, x: np.ndarray, order: int = 2) -> Jets:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        mpts = x.shape[0]
        n = self.n
        q = n - 1  # leaf dimension / angle count
        rho = x[:, q]
        pr = self.profile
        f = np.asarray(pr.f(rho), dtype=float)
        y = np.asarray(pr.f1(rho), dtype=float)
        ypr = np.asarray(pr.f2(rho), dtype=float)
        om = self.omega.jets(x[:, :q], order=3 if order >= 3 else 2)

        m = n + 1
        r = np.zeros((mpts, m))
        r[:, :n] = rho[:, None] * om.r
        r[:, n] = f
        d1 = np.zeros((mpts, m, n))
        d1[:, :n, :q] = rho[:, None, None] * om.d1
        d1[:, :n, q] = om.r
        d1[:, n, q] = y
        d2 = np.zeros((mpts, m, n, n))
        d2[:, :n, :q, :q] = rho[:, None, None, None] * om.d2
        d2[:, :n, :q, q] = om.d1
        d2[:, :n, q, :q] = om.d1
        d2[:, n, q, q] = ypr
        d3 = None
        if order >= 3:
            y3 = np.asarray(pr.f3(rho), dtype=float)
            d3 = np.zeros((mpts, m, n, n, n))
            d3[:, :n, :q, :q, :q] = rho[:, None, None, None, None] * om.d3
            d3[:, :n, :q, :q, q] = om.d2
            d3[:, :n, :q, q, :q] = om.d2
            d3[:, :n, q, :q, :q] = om.d2
            d3[:, n, q, q, q] = y3
        return Jets(r=r, d1=d1, d2=d2, d3=d3)


def revolution_patch(profile: RevolutionProfile, m_leaf: int = 24,
                     m_profile: int = 32, rho_window=None) -> FoliatedPatch:
    """FoliatedPatch over the profile (s = n-1 sphere parallels).

    The normal is oriented so the leaf curvature of the patch matches the
    profile convention k1 = f' / (rho sqrt(1+f'^2)); the sign of the raw
    cross-product normal depends on n and is calibrated at one probe point.
    """
    n = profile.n
    lo, hi = rho_window if rho_window is not None else (profile.rho_min, profile.rho_max)
    axes = [gauss_axis(0.0, np.pi, m_leaf) for _ in range(n - 2)]
    axes.append(periodic_axis(0.0, 2 * np.pi, max(m_leaf, 8)))
    axes.append(gauss_axis(lo, hi, m_profile))
    patch = FoliatedPatch(
        n=n, s=n - 1, supplier=RevolutionSupplier(profile), grid=Grid(axes=tuple(axes)),
        normal_orientation=1.0, name="revolution", meta={"profile": profile},
    )
    probe = patch.grid.points[[patch.grid.points.shape[0] // 2]]
    k1_ref, _ = principal_curvatures(profile, probe[:, -1])
    if abs(float(k1_ref[0])) > 1e-12:
        k1_patch = float(patch.geometry(probe).a_leaf[0, 0, 0])
        if k1_patch * float(k1_ref[0]) < 0:
            patch = FoliatedPatch(
                n=n, s=n - 1, supplier=patch.supplier, grid=patch.grid,
                normal_orientation=-1.0, name="revolution",
                meta={"profile": profile},
            )
    return patch


def leaf_eigenvalue(n: int, j: int) -> float:
    """Laplace eigenvalue lambda_j = j (j + n - 2) on the unit (n-1)-sphere."""
    if j < 0:
        raise DomainError("mode index must be >= 0")
    return float(j * (j + n - 2))


def leaf_mode_l2(n: int, j: int, quad_nodes: int = 200) -> float:
    """Squared L2 norm over the unit (n-1)-sphere of a representative
    lambda_j-eigenfunction (the zonal harmonic for j >= 3)."""
    area = sphere_area(n - 1)
    if j == 0:
        return area
    if n == 2:
        return pi  # int cos^2(j phi) over the circle
    if j == 1:
        return area / n  # first ambient coordinate restricted to the sphere
    if j == 2:
        # representative x1*x2; moment int x1^2 x2^2 = area / (n (n+2))
        return area / (n * (n + 2))
    alpha = (n - 2) / 2.0
    poly = gegenbauer(j, alpha)
    axis = gauss_axis(0.0, pi, quad_nodes)
    theta, wt = axis.nodes, axis.weights
    band = sphere_area(n - 2)
    vals = poly(np.cos(theta)) ** 2 * np.sin(theta) ** (n - 2)
    return float(band * np.sum(wt * vals))


def second_variation_revolution(profile: RevolutionProfile, p: float, j: int,
                                amplitude=None, quad_nodes: int = 400,
                                residual_tol: float = 1e-6) -> float:
    """Second variation of the parallel-mean-curvature energy at a critical
    revolution profile, for u = a(rho) * (lambda_j leaf eigenfunction).

    Uses the pointwise reduction Delta_F u = -lambda_j rho^{-2} u and the
    warped-product volume splitting; requires the profile to be critical
    (algebraic residual below residual_tol).
    """
    n = profile.n
    res = float(np.max(criticality_residual(profile, profile.sample(), p)))
    if res > residual_tol:
        raise PreconditionError(
            f"profile is not critical for p={p}: residual {res:.3e} > {residual_tol:.1e}")
    lam = leaf_eigenvalue(n, j)
    mode_l2 = leaf_mode_l2(n, j)
    a_fun = (lambda rho: np.ones_like(rho)) if amplitude is None else amplitude

    axis = gauss_axis(profile.rho_min, profile.rho_max, quad_nodes)
    rho, wts = axis.nodes, axis.weights
    inv = invariants(profile, rho)
    k1 = inv.k1
    u_sq = a_fun(rho) ** 2
    lap_sq = lam**2 * rho**-4 * u_sq
    u_lap = -lam * rho**-2 * u_sq
    coeff_mid = (n - 1) * (5 * n * p - n - 9 * p + 1)
    integrand = safe_power(k1, p - 2) * (
        p * (p - 1) * lap_sq
        + coeff_mid * k1**2 * u_lap
        - (n - 1) ** 2 * (p - n) * (p - n + 1) * k1**4 * u_sq
    )
    radial = np.sum(wts * integrand * inv.area_density)
    return float(radial * mode_l2 / (n - 1) ** 2)


def stability_bound_integral(profile: RevolutionProfile, p: float, j: int = 1,
                             amplitude=None, quad_nodes: int = 400) -> float:
    """int {n(p-n) + p(6n-11) + 1} k1^{p+2} u^2 dV for the j>=1 comparison."""
    n = profile.n
    mode_l2 = leaf_mode_l2(n, j)
    a_fun = (lambda rho: np.ones_like(rho)) if amplitude is None else amplitude
    axis = gauss_axis(profile.rho_min, profile.rho_max, quad_nodes)
    rho, wts = axis.nodes, axis.weights
    inv = invariants(profile, rho)
    const = n * (p - n) + p * (6 * n - 11) + 1
    radial = np.sum(wts * const * safe_power(inv.k1, p + 2) * a_fun(rho) ** 2
                    * inv.area_density)
    return float(radial * mode_l2)
