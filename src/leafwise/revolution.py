"""Hypersurfaces of revolution x_{n+1} = f(rho) foliated by sphere parallels.

Closed-form curvature algebra, the critical-profile ODE and its closed-form
solution, and the revolution-specialized second variation.  Profiles carry
callables for f and its first three derivatives so the generic patch
pipeline can consume them with analytic accuracy.  Every quadrature along a
profile is ``RevolutionProfile.integrate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import comb, gamma as gamma_fn, pi

import numpy as np
import sympy as sp

from .errors import DomainError, PreconditionError
from .operators import Field
from .patch import FoliatedPatch, Grid, check_count, gauss_axis, periodic_axis
from .suppliers import AnalyticSupplier, Jets, sample_points, taylor_kernels
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
        check_count(self.n, 2, "a revolution hypersurface dimension n")
        if not (np.isfinite(self.rho_min) and np.isfinite(self.rho_max)):
            raise DomainError(f"rho range ({self.rho_min}, {self.rho_max}) is not finite")
        if self.rho_min <= 0:
            raise DomainError("profiles must stay away from the axis (rho_min > 0)")
        if self.rho_min >= self.rho_max:
            raise DomainError("empty rho range")

    def check_rho(self, rho):
        """rho as a float array, refused with DomainError unless every value
        lies in [rho_min, rho_max]: a profile does not extrapolate."""
        rho = np.asarray(rho, dtype=float)
        if not np.all((rho >= self.rho_min) & (rho <= self.rho_max)):
            raise DomainError(f"rho must be finite and lie in the profile's range "
                              f"[{self.rho_min}, {self.rho_max}]")
        return rho

    def sample(self, m: int = 200) -> np.ndarray:
        return np.linspace(self.rho_min, self.rho_max, m)

    @property
    def s(self) -> int:
        """Leaf dimension: the parallels are (n-1)-spheres."""
        return self.n - 1

    def integrate(self, density_fn) -> float:
        """Integral of ``density_fn(inv)`` (per unit volume, constant on
        parallels) for the invariants ``inv`` at 400 Gauss nodes in rho, with
        dV = rho^{n-1} sqrt(1+f'^2) d(angles) d rho."""
        axis = gauss_axis(self.rho_min, self.rho_max, 400)
        inv = invariants(self, axis.nodes)
        dens = density_fn(inv)
        return float(sphere_area(self.s) * np.sum(axis.weights * dens * inv.area_density))


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

    def spectrum(self, family: str, top: int) -> np.ndarray:
        """q_0..q_top of the leaf spectrum ``family``, as on a PointGeometry."""
        return getattr(self, family)[..., : top + 1]


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
    """|kn - (p-n+1) k1|: zero exactly on the critical profiles of W_nps."""
    p = profile.p if p is None else p
    if p is None:
        raise DomainError("profile has no exponent p")
    k1, kn = principal_curvatures(profile, rho)
    return np.abs(kn - (p - profile.n + 1) * k1)


def critical_ode_solve(n: int, p: float, rho0: float, f0: float, f0prime: float,
                       rho_range) -> RevolutionProfile:
    """Integrate rho f'' = (p-n+1) f' (1+f'^2) with adaptive Runge-Kutta.

    The slope equation decouples: the state is (f, y=f').  Integration
    stops at a vertical tangent (|y| = VERTICAL_SLOPE) and the profile is
    truncated there, with the location reported in meta.
    """
    from scipy.integrate import solve_ivp

    lo, hi = float(rho_range[0]), float(rho_range[1])
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise DomainError(f"rho range ({lo}, {hi}) must be finite and increasing")
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
        return solve_ivp(rhs, span, [f0, f0prime], method="DOP853", rtol=1e-10,
                         atol=1e-12, dense_output=True, events=vertical)

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


def closed_form_window(n: int, p: float, c1: float):
    """Feasible rho interval of the closed-form integrand for C1 > 0, 1e-8
    inside (0, rho_v), and the vertical-tangent radius rho_v = C1^(1/a).

    Requires rho^a < C1 (radicand >= 0 and denominator > 0), a = 2(p-n+1).
    """
    a = 2.0 * (p - n + 1)
    if c1 <= 0:
        raise DomainError("closed form needs C1 > 0 (radicand is negative otherwise)")
    if a <= 0:
        raise DomainError("closed form implemented for p > n-1 (a > 0)")
    rho_v = c1 ** (1.0 / a)
    return (1e-8, rho_v - 1e-8), rho_v


def critical_closed_form(n: int, p: float, c1: float, c2: float,
                         rho_grid, sign: int = 1) -> RevolutionProfile:
    """Critical profile from the closed form of the slope integral.

    f(rho) = c2 + sign int_{rho_lo}^{rho} t^{a/2} / sqrt(C1 - t^a) dt with
    a = 2(p-n+1), rho_lo the smallest grid point and ``sign`` (+1 or -1) that
    of the slope: the ODE is odd in f', so f and its derivatives all take it.
    With v = t^a / C1 the integral from 0 is C1^{1/a}/a B(v; 1/2 + 1/a, 1/2),
    the incomplete beta function (DLMF 8.17).
    """
    from scipy.special import beta, betainc

    if sign not in (1, -1):
        raise DomainError(f"slope sign must be +1 or -1, got {sign!r}")
    rho_grid = np.asarray(rho_grid, dtype=float)
    a = 2.0 * (p - n + 1)
    (w_lo, w_hi), rho_v = closed_form_window(n, p, c1)
    if np.any(rho_grid < w_lo) or np.any(rho_grid > w_hi):
        raise DomainError(
            f"rho grid violates the feasibility window ({w_lo:.3e}, {w_hi:.3e}) "
            f"of the closed form (vertical tangent at rho={rho_v:.6g})")
    alpha = 0.5 + 1.0 / a
    scale = sign * c1 ** (1.0 / a) / a * beta(alpha, 0.5)

    def primitive(rho):
        return scale * betainc(alpha, 0.5, np.asarray(rho, dtype=float) ** a / c1)

    f_lo = primitive(rho_grid.min())

    def f_eval(rho):
        return c2 + (primitive(rho) - f_lo)

    x = sp.Symbol("rho")
    kernels, _ = taylor_kernels([x], [sign * x ** (a / 2) / sp.sqrt(c1 - x**a)], columns=False)
    slope, f2_eval, f3_eval = (kernels[0, (0,) * k] for k in range(3))

    return RevolutionProfile(
        n=n, f=f_eval, f1=slope, f2=f2_eval, f3=f3_eval,
        rho_min=float(rho_grid.min()), rho_max=float(rho_grid.max()), p=p,
        meta={"C1": c1, "C2": c2, "vertical_at": rho_v},
    )


def compare_with_closed_form(profile: RevolutionProfile, samples: int):
    """A ``critical_ode_solve`` profile against ``critical_closed_form``.

    The closed form is fitted to the profile's exponent p and its initial data
    rho0, f0, f0prime from ``meta``, and takes the sign of f0prime.  Both are
    sampled at ``samples`` points from rho0 to the smaller of (1 - 1e-9)
    rho_max and the closed form's window.  Returns (rho, max |f - f_closed|,
    max criticality_residual).
    """
    n, p, meta = profile.n, profile.p, profile.meta
    c1 = fit_constants(n, p, meta["rho0"], meta["f0prime"])
    (_, w_hi), _ = closed_form_window(n, p, c1)
    rho = np.linspace(meta["rho0"], min(profile.rho_max * (1 - 1e-9), w_hi), samples)
    closed = critical_closed_form(n, p, c1, meta["f0"], rho, 1 if meta["f0prime"] > 0 else -1)
    deviation = float(np.max(np.abs(closed.f(rho) - profile.f(rho))))
    return rho, deviation, float(np.max(criticality_residual(profile, rho)))


def profile_from_sympy(n: int, expr, symbol, rho_range, p: float | None = None,
                       **meta) -> RevolutionProfile:
    """Closed-form profile (hemisphere, cone, catenoid-like, ...): f and its
    first three derivatives from one ``suppliers.Tape`` in the one variable."""
    kernels, _ = taylor_kernels([symbol], [expr], columns=False)
    f, f1, f2, f3 = (kernels[0, (0,) * k] for k in range(4))
    return RevolutionProfile(n=n, f=f, f1=f1, f2=f2, f3=f3, rho_min=rho_range[0],
                             rho_max=rho_range[1], p=p, meta=meta)


class RevolutionSupplier:
    """Immersion jets of (rho*omega(angles), f(rho)), leaf coordinates first."""

    def __init__(self, profile: RevolutionProfile):
        self.profile = profile
        n = profile.n
        coords, exprs = sphere_exprs(n - 1, 1.0)
        self.omega = AnalyticSupplier(coords, exprs)
        self.n = n

    def jets(self, x: np.ndarray, order: int = 2) -> Jets:
        x = sample_points(x, self.n)
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
        d1 = np.zeros((mpts, n, m))
        d1[:, :q, :n] = rho[:, None, None] * om.d1
        d1[:, q, :n] = om.r
        d1[:, q, n] = y
        d2 = np.zeros((mpts, n, n, m))
        d2[:, :q, :q, :n] = rho[:, None, None, None] * om.d2
        d2[:, :q, q, :n] = om.d1
        d2[:, q, :q, :n] = om.d1
        d2[:, q, q, n] = ypr
        d3 = None
        if order >= 3:
            y3 = np.asarray(pr.f3(rho), dtype=float)
            d3 = np.zeros((mpts, n, n, n, m))
            d3[:, :q, :q, :q, :n] = rho[:, None, None, None, None] * om.d3
            d3[:, :q, :q, q, :n] = om.d2
            d3[:, :q, q, :q, :n] = om.d2
            d3[:, q, :q, :q, :n] = om.d2
            d3[:, q, q, q, n] = y3
        return Jets(r=r, d1=d1, d2=d2, d3=d3)


def revolution_patch(profile: RevolutionProfile, m_leaf: int = 24,
                     m_profile: int = 32, rho_window=None) -> FoliatedPatch:
    """FoliatedPatch over the profile (s = n-1 sphere parallels).

    The normal is oriented so the leaf curvature of the patch matches the
    profile convention k1 = f' / (rho sqrt(1+f'^2)); the sign of the raw
    cross-product normal depends on n and is calibrated at one probe point.
    A ``rho_window`` must be finite with rho_min <= lo < hi <= rho_max: the
    profile is not extrapolated.
    """
    n = profile.n
    lo, hi = rho_window if rho_window is not None else (profile.rho_min, profile.rho_max)
    if not profile.rho_min <= lo < hi <= profile.rho_max:
        raise DomainError(f"rho window ({lo}, {hi}) is not finite and increasing inside the "
                          f"profile's rho range ({profile.rho_min}, {profile.rho_max})")
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
            patch = replace(patch, normal_orientation=-1.0)
    return patch


def leaf_eigenvalue(n: int, j: int) -> float:
    """Laplace eigenvalue lambda_j = j (j + n - 2) on the unit (n-1)-sphere."""
    check_count(j, 0, "a leaf mode index j")
    return float(j * (j + n - 2))


def leaf_mode_variation(j: int) -> Field:
    """u = cos(j phi) on an n = 2 revolution patch (phi = x[:, 0], the
    parallel's angle), with analytic jets; j = 0 gives u = 1 and zero jets."""
    check_count(j, 0, "a leaf mode index j")

    def u(x):
        return np.cos(j * x[:, 0])

    def grad(x):
        out = np.zeros((x.shape[0], 2))
        out[:, 0] = -j * np.sin(j * x[:, 0])
        return out

    def hess(x):
        out = np.zeros((x.shape[0], 2, 2))
        out[:, 0, 0] = -j * j * np.cos(j * x[:, 0])
        return out

    return Field(lambda x: (u(x), grad(x), hess(x)), 2, u)


def leaf_mode_l2(n: int, j: int) -> float:
    """Squared L2 norm over the unit (n-1)-sphere of a representative
    lambda_j-eigenfunction (the zonal harmonic for j >= 3)."""
    check_count(j, 0, "a leaf mode index j")
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
    # norm of the Gegenbauer C_j^alpha(cos theta) over the polar angle (DLMF 18.3)
    from scipy.special import poch

    alpha = (n - 2) / 2.0
    norm = 2.0 ** (1 - 2 * alpha) * pi * poch(j + 1, 2 * alpha - 1) / (
        (j + alpha) * gamma_fn(alpha) ** 2)
    return float(sphere_area(n - 2) * norm)


def second_variation_revolution(profile: RevolutionProfile, p: float, j: int,
                                amplitude=None) -> float:
    """Second variation of the parallel-mean-curvature energy at a critical
    revolution profile, for u = a(rho) * (lambda_j leaf eigenfunction).

    Uses the pointwise reduction Delta_F u = -lambda_j rho^{-2} u and the
    warped-product volume splitting; requires the profile to be critical
    (algebraic residual below 1e-6).
    """
    n = profile.n
    res = float(np.max(criticality_residual(profile, profile.sample(), p)))
    if res > 1e-6:
        raise PreconditionError(
            f"profile is not critical for p={p}: residual {res:.3e} > 1e-6")
    lam = leaf_eigenvalue(n, j)
    mode_mean_sq = leaf_mode_l2(n, j) / sphere_area(n - 1)
    a_fun = (lambda rho: np.ones_like(rho)) if amplitude is None else amplitude
    coeff_mid = (n - 1) * (5 * n * p - n - 9 * p + 1)

    def density(inv):
        rho, k1 = inv.rho, inv.k1
        return safe_power(k1, p - 2) * a_fun(rho) ** 2 * (
            p * (p - 1) * lam**2 * rho**-4
            - coeff_mid * k1**2 * lam * rho**-2
            - (n - 1) ** 2 * (p - n) * (p - n + 1) * k1**4)

    return profile.integrate(density) * mode_mean_sq / (n - 1) ** 2


def stability_bound_integral(profile: RevolutionProfile, p: float, j: int = 1) -> float:
    """int {n(p-n) + p(6n-11) + 1} k1^{p+2} u^2 dV for the j>=1 comparison, u
    the leaf mode j of unit amplitude."""
    n = profile.n
    mode_mean_sq = leaf_mode_l2(n, j) / sphere_area(n - 1)
    const = n * (p - n) + p * (6 * n - 11) + 1
    return mode_mean_sq * profile.integrate(lambda inv: const * safe_power(inv.k1, p + 2))
