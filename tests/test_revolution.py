import numpy as np
import pytest
import sympy as sp

from leafwise import revolution as rev
from leafwise.errors import DomainError, PreconditionError

RHO = sp.Symbol("rho")


@pytest.fixture(scope="module")
def critical_23():
    return rev.critical_ode_solve(2, 3, 0.4, 1.0, 0.4, (0.4, 0.62))


def test_hemisphere_is_umbilic():
    radius = 1.3
    prof = rev.profile_from_sympy(2, sp.sqrt(radius**2 - RHO**2), RHO, (0.3, 1.0))
    k1, k2 = rev.principal_curvatures(prof, np.linspace(0.35, 0.9, 9))
    assert np.max(np.abs(np.abs(k1) - np.abs(k2))) < 1e-12
    assert np.max(np.abs(np.abs(k1) - 1 / radius)) < 1e-12


def test_cone_profile_curvature_vanishes():
    prof = rev.profile_from_sympy(2, 0.8 * RHO, RHO, (0.2, 2.0))
    _, kn = rev.principal_curvatures(prof, np.linspace(0.3, 1.5, 7))
    assert np.max(np.abs(kn)) == 0.0


def test_catenoid_matches_patch_pipeline():
    # generic profile evaluated two independent ways
    prof = rev.profile_from_sympy(2, sp.acosh(RHO), RHO, (1.15, 2.0))
    patch = rev.revolution_patch(prof, m_leaf=10, m_profile=8, rho_window=(1.2, 1.9))
    geo = patch.geometry()
    k1, k2 = rev.principal_curvatures(prof, patch.grid.points[:, 1])
    assert np.max(np.abs(geo.a_leaf[:, 0, 0] - k1)) < 1e-8
    assert np.max(np.abs(geo.b_perp[:, 0, 0] - k2)) < 1e-8
    # catenoid is minimal: k2 = -k1
    assert np.max(np.abs(k1 + k2)) < 1e-12


def test_invariants_match_patch_pipeline(critical_23):
    patch = rev.revolution_patch(critical_23, m_leaf=12, m_profile=10,
                                 rho_window=(0.45, 0.6))
    geo = patch.geometry()
    inv = rev.invariants(critical_23, patch.grid.points[:, -1])
    assert np.max(np.abs(geo.mean_curvature - inv.mean)) < 1e-8
    assert np.max(np.abs(geo.tau[:, 2] - inv.tau[:, 2])) < 1e-8
    assert np.max(np.abs(geo.norm_h_sq - inv.norm_h_sq)) < 1e-8
    assert np.max(np.abs(geo.norm_hmix_sq)) < 1e-20
    assert np.max(np.abs(geo.tau[:, 3] - inv.tau[:, 3])) < 1e-8


@pytest.mark.parametrize("n", [2, 3])
def test_invariant_leaf_spectra_match_patch_pipeline(n):
    # sigma_0..sigma_s and tau_0..tau_{s+1} of the parallels, s = n - 1
    prof = rev.critical_ode_solve(n, 4, 0.4, 1.0, 0.4, (0.4, 0.6))
    patch = rev.revolution_patch(prof, m_leaf=6, m_profile=6, rho_window=(0.45, 0.55))
    geo = patch.geometry()
    inv = rev.invariants(prof, patch.grid.points[:, -1])
    assert inv.sigma.shape == geo.sigma.shape and inv.tau.shape == geo.tau.shape
    assert np.max(np.abs(geo.sigma - inv.sigma)) < 1e-8
    assert np.max(np.abs(geo.tau - inv.tau)) < 1e-8


def test_rho_positive_required(critical_23):
    with pytest.raises(DomainError):
        rev.principal_curvatures(critical_23, np.array([-0.1]))


def test_vertical_tangent_is_a_domain_error():
    # the unit hemisphere f = sqrt(1 - rho^2) has f' = -inf at rho = 1
    prof = rev.profile_from_sympy(2, sp.sqrt(1 - RHO**2), RHO, (0.3, 1.0))
    with np.errstate(divide="ignore"), pytest.raises(DomainError, match="slope"):
        rev.principal_curvatures(prof, np.array([0.5, 1.0]))


def test_criticality_identity_along_solutions():
    for n, p in ((2, 2), (2, 5), (3, 3), (4, 6)):
        prof = rev.critical_ode_solve(n, p, 0.4, 1.0, 0.4, (0.4, 3.0))
        rho = prof.sample(60)
        assert np.max(rev.criticality_residual(prof, rho)) < 1e-8


def test_n3_p3_equal_curvatures():
    prof = rev.critical_ode_solve(3, 3, 0.4, 1.0, 0.4, (0.4, 3.0))
    k1, k3 = rev.principal_curvatures(prof, prof.sample(40))
    assert np.max(np.abs(k3 - k1)) < 1e-10
    assert np.min(np.abs(k3)) > 0


def test_degenerate_exponent_is_a_straight_line():
    prof = rev.critical_ode_solve(2, 1, 0.5, 1.0, 0.7, (0.5, 2.0))
    rho = prof.sample(20)
    assert np.max(np.abs(prof.f2(rho))) < 1e-12
    assert np.max(np.abs(prof.f1(rho) - 0.7)) < 1e-12


def test_vertical_tangent_truncation():
    prof = rev.critical_ode_solve(2, 3, 0.4, 1.0, 0.4, (0.4, 3.0))
    assert prof.meta["truncated_at"] is not None
    assert prof.rho_max == pytest.approx(prof.meta["truncated_at"])
    # the closed-form window predicts the same vertical-tangent location
    c1 = rev.fit_constants(2, 3, 0.4, 0.4)
    _, rho_v = rev.closed_form_window(2, 3, c1)
    assert prof.rho_max == pytest.approx(rho_v, abs=1e-5)


def test_weingarten_relation_single_valued():
    # (k1, kn) samples fall on one single-valued curve
    prof = rev.critical_ode_solve(2, 4, 0.4, 1.0, 0.4, (0.4, 3.0))
    k1, kn = rev.principal_curvatures(prof, prof.sample(200))
    order = np.argsort(k1)
    k1s, kns = k1[order], kn[order]
    for i in range(len(k1s) - 1):
        if abs(k1s[i + 1] - k1s[i]) < 1e-12:
            assert abs(kns[i + 1] - kns[i]) < 1e-10


def test_h2_over_k_weingarten_constant():
    for p in (2, 3, 5):
        prof = rev.critical_ode_solve(2, p, 0.4, 1.0, 0.4, (0.4, 3.0))
        k1, k2 = rev.principal_curvatures(prof, prof.sample(40))
        ratio = ((k1 + k2) / 2) ** 2 / (k1 * k2)
        assert np.max(np.abs(ratio - p**2 / (4 * (p - 1)))) < 1e-8


def test_fit_constants_roundtrip():
    for n, p, rho0, y0 in ((2, 3, 0.4, 0.4), (3, 4, 0.7, 1.2), (2, 6, 0.5, 0.9)):
        c1 = rev.fit_constants(n, p, rho0, y0)
        a = 2 * (p - n + 1)
        slope = rho0 ** (a / 2) / np.sqrt(c1 - rho0**a)
        assert slope == pytest.approx(y0, abs=1e-10)


def test_fit_constants_unit_slope():
    # f' = 1 at rho0 corresponds to C1 = 2 rho0^(2p-2n+2)
    assert rev.fit_constants(2, 3, 0.7, 1.0) == pytest.approx(2 * 0.7**4)


def test_fit_constants_vertical_limit():
    a = 2 * (3 - 2 + 1)
    c_big = rev.fit_constants(2, 3, 0.7, 1e6)
    assert c_big == pytest.approx(0.7**a, rel=1e-10)


def test_fit_constants_zero_slope_rejected():
    with pytest.raises(DomainError):
        rev.fit_constants(2, 3, 0.5, 0.0)


def test_closed_form_matches_ode():
    for p in (2, 4, 7):
        prof = rev.critical_ode_solve(2, p, 0.4, 1.0, 0.4, (0.4, 3.0))
        c1 = rev.fit_constants(2, p, 0.4, 0.4)
        (_, hi), _ = rev.closed_form_window(2, p, c1)
        rho = np.linspace(0.4, min(prof.rho_max * 0.999, hi), 80)
        closed = rev.critical_closed_form(2, p, c1, 1.0, rho)
        assert np.max(np.abs(closed.f(rho) - prof.f(rho))) < 1e-6
        # differentiating the quadrature solution satisfies the slope ODE
        # (away from the vertical tangent, where f''' blows up)
        mid = rho[5 : len(rho) // 2]
        h = 1e-5
        y_num = (closed.f(mid + h) - closed.f(mid - h)) / (2 * h)
        resid = mid * closed.f2(mid) - (p - 1) * y_num * (1 + y_num**2)
        assert np.max(np.abs(resid)) < 1e-6


def test_closed_form_window_violation_reported():
    c1 = rev.fit_constants(2, 3, 0.4, 0.4)
    (_, hi), _ = rev.closed_form_window(2, 3, c1)
    with pytest.raises(DomainError, match="feasibility window"):
        rev.critical_closed_form(2, 3, c1, 1.0, np.linspace(0.4, hi * 1.5, 10))
    with pytest.raises(DomainError):
        rev.closed_form_window(2, 3, -1.0)


def test_leaf_eigenvalues():
    assert rev.leaf_eigenvalue(3, 1) == 2.0  # lambda_1 = n-1 on S^{n-1}
    assert rev.leaf_eigenvalue(4, 2) == 8.0
    assert rev.leaf_eigenvalue(2, 3) == 9.0  # circle: j^2


def test_second_variation_signs(critical_23):
    d2_0 = rev.second_variation_revolution(critical_23, 3, 0)
    d2_1 = rev.second_variation_revolution(critical_23, 3, 1)
    bound = rev.stability_bound_integral(critical_23, 3, 1)
    assert d2_0 < 0  # p > n: constant leaf mode destabilizes
    assert d2_1 > 0
    assert d2_1 >= bound > 0


def test_second_variation_p_equals_n_j0_vanishes():
    prof = rev.critical_ode_solve(2, 2, 0.4, 1.0, 0.4, (0.4, 0.7))
    d2 = rev.second_variation_revolution(prof, 2, 0)
    assert abs(d2) < 1e-10  # (p-n) factor kills the only surviving term


def test_second_variation_requires_critical_profile():
    prof = rev.profile_from_sympy(2, sp.acosh(RHO), RHO, (1.15, 1.9), p=3)
    with pytest.raises(PreconditionError):
        rev.second_variation_revolution(prof, 3, 0)


def test_fractional_powers_of_negative_k1_refused():
    # f' < 0 gives k1 < 0: k1^(p-2) and k1^(p+2) have no real branch for p = 2.5
    prof = rev.critical_ode_solve(2, 2.5, 0.4, 1.0, -0.4, (0.4, 0.62))
    assert np.max(rev.principal_curvatures(prof, prof.sample())[0]) < 0
    with pytest.raises(DomainError):
        rev.second_variation_revolution(prof, 2.5, 1)
    with pytest.raises(DomainError):
        rev.stability_bound_integral(prof, 2.5, 1)


def test_second_variation_amplitude_weighting(critical_23):
    flat = rev.second_variation_revolution(critical_23, 3, 1)
    damped = rev.second_variation_revolution(
        critical_23, 3, 1, amplitude=lambda r: 0.5 * np.ones_like(r))
    assert damped == pytest.approx(0.25 * flat, rel=1e-12)


def test_sphere_area_values():
    assert rev.sphere_area(1) == pytest.approx(2 * np.pi)
    assert rev.sphere_area(2) == pytest.approx(4 * np.pi)
    assert rev.sphere_area(3) == pytest.approx(2 * np.pi**2)
