from types import SimpleNamespace

import numpy as np
import pytest

from leafwise import catalog, functionals as fl, revolution as rev
from leafwise.errors import DomainError, PreconditionError, SpecError, ValidationError
from leafwise.operators import ScalarField
from leafwise.symfunc import q_r_from_sigma, umbilic_power
from leafwise.variation import VariationField, random_trig_variation


def const_variation(n, value=1.0):
    return VariationField(u=ScalarField.from_callable(
        lambda x: np.full(x.shape[0], value), n=n,
        grad=lambda x: np.zeros((x.shape[0], n)),
        hess=lambda x: np.zeros((x.shape[0], n, n))))


def leaf_cos_variation():
    def grad(x):
        out = np.zeros((x.shape[0], 2))
        out[:, 0] = -np.sin(x[:, 0])
        return out

    def hess(x):
        out = np.zeros((x.shape[0], 2, 2))
        out[:, 0, 0] = -np.cos(x[:, 0])
        return out

    return VariationField(u=ScalarField.from_callable(
        lambda x: np.cos(x[:, 0]), n=2, grad=grad, hess=hess))


# ---------------------------------------------------------------------------
# values


def test_willmore_sphere_four_pi():
    patch = catalog.sphere(n=2, m_polar=32, m_azimuth=48)
    value = fl.evaluate(fl.w_nps(2), patch)
    assert abs(value / (4 * np.pi) - 1) < 1e-10


def test_willmore_torus_optimal_ratio():
    value = fl.evaluate(fl.w_nps(2), catalog.torus())
    assert abs(value / (2 * np.pi**2) - 1) < 1e-10


@pytest.mark.parametrize("n", [2, 3, 4])
def test_unit_sphere_bound_constant(n):
    patch = catalog.sphere(n=n, m_polar=20, m_azimuth=24)
    value = fl.evaluate(fl.w_nps(n), patch)
    assert abs(value / rev.sphere_area(n) - 1) < 1e-10


def test_evaluate_on_revolution_profile():
    prof = rev.critical_ode_solve(2, 3, 0.4, 1.0, 0.4, (0.4, 0.6))
    patch = rev.revolution_patch(prof, m_leaf=24, m_profile=32)
    wf_of_hf = fl.FunctionalSpec(kind="WF_of_HF", f=lambda h: h**2 + 0.2 * h,
                                 f1=lambda h: 2 * h + 0.2)
    for spec in (fl.w_nps(3), fl.j_nps(3), wf_of_hf):
        w_patch = fl.evaluate(spec, patch)
        w_prof = fl.evaluate(spec, prof)
        assert abs(w_patch - w_prof) < 1e-9, spec.kind
    # F = (sigma_1 / s)^p through the generic sigma path is W_nps
    p = 3
    wf = fl.FunctionalSpec(
        kind="WF", f=lambda sig: (sig[:, 0] / sig.shape[1]) ** p,
        f_partials=lambda sig: np.column_stack(
            [(p / sig.shape[1]) * (sig[:, 0] / sig.shape[1]) ** (p - 1),
             np.zeros((sig.shape[0], sig.shape[1] - 1))]))
    assert fl.evaluate(wf, prof) == pytest.approx(fl.evaluate(fl.w_nps(p), prof), abs=1e-12)


def test_fractional_power_of_signed_curvature_refused(bumpy3):
    # leaf curvature changes sign on the torus: no branch is chosen
    with pytest.raises(DomainError):
        fl.evaluate(fl.w_nps(2.5), bumpy3)


def test_reduction_consistency(sheared4):
    p = 3
    wf = fl.FunctionalSpec(
        kind="WF", f=lambda sig: (sig[:, 0] / 2) ** p,
        f_partials=lambda sig: np.stack(
            [(p / 2) * (sig[:, 0] / 2) ** (p - 1), np.zeros(sig.shape[0])], axis=1))
    assert fl.evaluate(wf, sheared4) == pytest.approx(
        fl.evaluate(fl.w_nps(p), sheared4), abs=1e-12)
    p2 = 4
    jf = fl.FunctionalSpec(
        kind="JF", f=lambda tau: tau[:, 1] ** (p2 / 2),
        f_partials=lambda tau: np.stack(
            [np.zeros(tau.shape[0]), (p2 / 2) * tau[:, 1] ** (p2 / 2 - 1)], axis=1))
    assert fl.evaluate(jf, sheared4) == pytest.approx(
        fl.evaluate(fl.j_nps(p2), sheared4), abs=1e-12)


def test_w_conf_is_wf_of_q2(sheared4, rng):
    # W_conf = int Q_2^{n/2}, Q_2 = (sigma_1 / s)^2 - sigma_2 / C(s, 2); n = 3 here
    def q2(sig):
        s = sig.shape[1]
        return (sig[:, 0] / s) ** 2 - sig[:, 1] / (s * (s - 1) / 2)

    def q2_partials(sig):
        s = sig.shape[1]
        out = np.zeros_like(sig)
        out[:, 0] = 2 * sig[:, 0] / s**2
        out[:, 1] = -1 / (s * (s - 1) / 2)
        return out

    wf = fl.FunctionalSpec(kind="WF", f=lambda sig: q2(sig) ** 1.5,
                           f_partials=lambda sig: 1.5 * (q2(sig) ** 0.5)[:, None]
                           * q2_partials(sig))
    assert fl.evaluate(wf, sheared4) == pytest.approx(
        fl.evaluate(fl.w_conf(2), sheared4), rel=1e-12)
    u = random_trig_variation(3, rng, amplitude=0.4)
    assert fl.first_variation_analytic(wf, sheared4, u) == pytest.approx(
        fl.first_variation_analytic(fl.w_conf(2), sheared4, u), rel=1e-12)


def test_full_foliation_reduces_to_unfoliated():
    # s = n: leafwise quantities coincide with the full ones
    sph_full = catalog.sphere(n=2, m_polar=16, m_azimuth=24, s=2)
    w_full = fl.evaluate(fl.w_nps(2), sph_full)
    assert abs(w_full / (4 * np.pi) - 1) < 1e-10


def test_partials_spot_check_rejects_wrong_gradient():
    with pytest.raises(ValidationError):
        fl.FunctionalSpec(kind="WF", f=lambda sig: sig[:, 0] ** 2,
                          f_partials=lambda sig: 3.0 * sig)


def test_partials_spot_check_propagates_unexpected_errors():
    # only shape and dimension errors mean "defined for another s"
    def f(sig):
        return undefined_name * sig[:, 0]  # noqa: F821

    with pytest.raises(NameError):
        fl.FunctionalSpec(kind="WF", f=f, f_partials=lambda sig: sig)


# ---------------------------------------------------------------------------
# pointwise identities


def test_surface_identities_r3(bumpy3):
    geo = bumpy3.geometry(bumpy3.grid.points[::13])
    eigs = np.linalg.eigvalsh(geo.a_frame)
    k1, k2 = eigs[:, 0], eigs[:, 1]
    h_mean = geo.mean_curvature
    k_gauss = k1 * k2
    assert np.max(np.abs(geo.norm_h_sq - 2 * h_mean**2 - 0.5 * (k1 - k2) ** 2)) < 1e-10
    assert np.max(np.abs(geo.norm_h_sq - 2 * h_mean**2 - 2 * (h_mean**2 - k_gauss))) < 1e-10
    a = geo.a_frame
    h_h2 = np.einsum("pij,pjk,pki->p", a, a, a)
    assert np.max(np.abs(h_h2 - (8 * h_mean**3 - 6 * h_mean * k_gauss))) < 1e-10


def test_leafwise_identities_s2(sheared4):
    geo = sheared4.geometry(sheared4.grid.points[::29])
    h_f, k_f = geo.h_f_mean, geo.k_f
    assert np.max(np.abs(geo.norm_hf_sq - (4 * h_f**2 - 2 * k_f))) < 1e-10
    a = geo.a_leaf
    hf_hf2 = np.einsum("pij,pjk,pki->p", a, a, a)
    assert np.max(np.abs(hf_hf2 - (8 * h_f**3 - 6 * h_f * k_f))) < 1e-10


# ---------------------------------------------------------------------------
# first variations


def test_first_variation_zero_for_zero_u(bumpy3):
    u0 = const_variation(2, 0.0)
    assert fl.first_variation_analytic(fl.w_nps(2), bumpy3, u0) == pytest.approx(0.0)
    assert fl.first_variation_numeric(fl.w_nps(2), bumpy3, u0) == pytest.approx(0.0)


def test_area_variation_is_minus_n_u_h():
    # functional F = 1: delta(area) = -int n u H dV
    patch = catalog.torus(s=1, m_leaf=24, m_tube=24)
    area_spec = fl.FunctionalSpec(kind="WF_of_HF", f=lambda h: np.ones_like(h),
                                  f1=lambda h: np.zeros_like(h),
                                  f2=lambda h: np.zeros_like(h))
    u = random_trig_variation(2, np.random.default_rng(2))
    geo = patch.geometry()
    expected = -patch.integrate(
        patch.n * u(patch.grid.points) * geo.mean_curvature, geo)
    numeric = fl.first_variation_numeric(area_spec, patch, u)
    assert numeric == pytest.approx(expected, abs=1e-9)


def test_sphere_shrink_area_rate():
    # inward unit deformation of S^n(R): d/dt area = -n C_n R^{n-1}
    radius = 1.4
    patch = catalog.sphere(n=2, radius=radius, m_polar=20, m_azimuth=28)
    area_spec = fl.FunctionalSpec(kind="WF_of_HF", f=lambda h: np.ones_like(h),
                                  f1=lambda h: np.zeros_like(h),
                                  f2=lambda h: np.zeros_like(h))
    u = const_variation(2, 1.0)
    rate = fl.first_variation_numeric(area_spec, patch, u)
    assert rate == pytest.approx(-2 * rev.sphere_area(2) * radius, rel=1e-9)


def test_round_sphere_first_variation_w11():
    # W with p=1, s=n on the unit sphere, constant u: value is u (1-n) area
    patch = catalog.sphere(n=2, m_polar=20, m_azimuth=28)
    u = const_variation(2, 1.0)
    analytic = fl.first_variation_analytic(fl.w_nps(1), patch, u)
    numeric = fl.first_variation_numeric(fl.w_nps(1), patch, u)
    expected = (1 - 2) * 4 * np.pi
    assert analytic == pytest.approx(expected, rel=1e-10)
    assert numeric == pytest.approx(expected, rel=1e-8)


def test_first_variation_matches_oracle_all_kinds(sheared4, rng):
    u = random_trig_variation(3, rng, amplitude=0.4)
    specs = [
        fl.w_nps(2),
        fl.j_nps(3),
        fl.FunctionalSpec(kind="WF", f=lambda s_: s_[:, 0] ** 2 + 0.3 * s_[:, 1],
                          f_partials=lambda s_: np.stack(
                              [2 * s_[:, 0], 0.3 * np.ones(s_.shape[0])], axis=1)),
        fl.FunctionalSpec(kind="JF", f=lambda t_: t_[:, 1] + 0.1 * t_[:, 0] ** 3,
                          f_partials=lambda t_: np.stack(
                              [0.3 * t_[:, 0] ** 2, np.ones(t_.shape[0])], axis=1)),
        fl.FunctionalSpec(kind="WF_HK", f=lambda h, k: h**2 - 0.4 * k,
                          f_h=lambda h, k: 2 * h,
                          f_k=lambda h, k: -0.4 * np.ones_like(h)),
        fl.w_conf(2),
    ]
    for spec in specs:
        fa = fl.first_variation_analytic(spec, sheared4, u)
        fn = fl.first_variation_numeric(spec, sheared4, u)
        assert abs(fa - fn) < 1e-8 * max(1.0, abs(fa)), spec.kind


def test_kind_surface_mismatch_raises(bumpy3):
    # WF_HK needs s = 2 and W_conf s >= 2; bumpy3 is an s = 1 patch
    wf_hk = fl.FunctionalSpec(kind="WF_HK", f=lambda h, k: h * k,
                              f_h=lambda h, k: k, f_k=lambda h, k: h)
    u = const_variation(2)
    for spec in (wf_hk, fl.w_conf(2)):
        with pytest.raises(SpecError):
            fl.evaluate(spec, bumpy3)
        with pytest.raises(SpecError):
            fl.first_variation_analytic(spec, bumpy3, u)


# ---------------------------------------------------------------------------
# Euler-Lagrange residuals


def test_critical_profile_residual_vanishes():
    prof = rev.critical_ode_solve(2, 3, 0.4, 1.0, 0.4, (0.4, 0.6))
    assert np.max(np.abs(fl.el_residual(fl.w_nps(3), prof))) < 1e-8
    assert np.max(np.abs(fl.el_residual(fl.j_nps(3), prof))) < 1e-8


def test_round_sphere_willmore_pde():
    # Delta H + 2H(H^2 - K) = 0 on the round sphere
    patch = catalog.sphere(n=2, m_polar=16, m_azimuth=24)
    pts = patch.grid.points
    interior = pts[(pts[:, 0] > 0.6) & (pts[:, 0] < np.pi - 0.6)][::7]
    resid = fl.el_residual(fl.w_nps(2), patch, x=interior, fd_step=1e-2)
    assert np.max(np.abs(resid)) < 1e-8


def test_line_field_residual_formula(torus_rev):
    # s=1, p=2: residual equals (p/s) times
    # Delta_F kappa + (kappa^2 - |h_mix|^2 - (n/2) H kappa) kappa
    patch = catalog.sphere_parallels(m_leaf=24, m_polar=12)
    pts = patch.grid.points[::9]
    resid = fl.el_residual(fl.w_nps(2), patch, x=pts)
    from leafwise.operators import leaf_laplacian

    geo = patch.geometry(pts)
    kappa_field = ScalarField.from_callable(
        lambda x: patch.geometry(x).h_f_mean, n=2, step=1e-3)
    kappa = geo.h_f_mean
    direct = leaf_laplacian(patch, kappa_field, pts, geo) + (
        kappa**2 - geo.norm_hmix_sq - 0.5 * patch.n * geo.mean_curvature * kappa
    ) * kappa
    assert np.max(np.abs(resid - 2 * direct)) < 1e-9
    # tau_2 = sigma_1^2 at s = 1, so J_nps(2) = W_nps(2); its residual reads tau_3
    assert np.max(np.abs(fl.el_residual(fl.j_nps(2), torus_rev)
                         - fl.el_residual(fl.w_nps(2), torus_rev))) < 1e-8


def test_residual_requires_transversal_harmonicity(sheared4):
    with pytest.raises(PreconditionError):
        fl.el_residual(fl.w_nps(2), sheared4)


def test_weak_form_consistency_of_residuals(torus_cyl4):
    # int u R dV reproduces the analytic first variation: R is the L^2 gradient
    def amp(x):
        return (np.cos(x[:, 1]) * (1 + 0.3 * np.cos(x[:, 2]))
                + 0.2 * np.cos(x[:, 0] - x[:, 1])
                + 0.15 * np.sin(x[:, 1] + 2 * x[:, 2]))

    u = VariationField(u=ScalarField.from_callable(amp, n=3))
    x = torus_cyl4.grid.points
    geo = torus_cyl4.geometry(x)
    cases = [
        (fl.w_nps(3), 1e-5),
        (fl.j_nps(4), 1e-3),
        (fl.w_conf(2), 1e-5),
        (fl.FunctionalSpec(kind="WF_of_HF", f=lambda h: h**2 + 0.2 * h,
                           f1=lambda h: 2 * h + 0.2,
                           f2=lambda h: 2 * np.ones_like(h)), 1e-5),
        (fl.FunctionalSpec(kind="WF_HK", f=lambda h, k: h**2 - 0.4 * k,
                           f_h=lambda h, k: 2 * h,
                           f_k=lambda h, k: -0.4 * np.ones_like(h)), 1e-5),
        (fl.FunctionalSpec(kind="WF",
                           f=lambda sig: sig[:, 0] ** 3 + 0.5 * sig[:, 0] * sig[:, 1],
                           f_partials=lambda sig: np.stack(
                               [3 * sig[:, 0] ** 2 + 0.5 * sig[:, 1], 0.5 * sig[:, 0]],
                               axis=1)), 1e-5),
        (fl.FunctionalSpec(kind="JF",
                           f=lambda tau: tau[:, 0] * tau[:, 1] + 0.3 * tau[:, 1],
                           f_partials=lambda tau: np.stack(
                               [tau[:, 1], tau[:, 0] + 0.3], axis=1)), 1e-5),
    ]
    for spec, tol in cases:
        fa = fl.first_variation_analytic(spec, torus_cyl4, u)
        weak = torus_cyl4.integrate(u(x) * fl.el_residual(spec, torus_cyl4, x=x), geo)
        assert abs(fa - weak) < tol * max(1.0, abs(fa)), spec.kind


@pytest.mark.parametrize("surface", [
    lambda: catalog.tube4(m_polar=8, m_azimuth=10, m_profile=8),
    lambda: rev.critical_ode_solve(3, 4, 0.4, 1.0, 0.4, (0.4, 0.6)),
], ids=["tube4", "profile"])
def test_w_conf_residual_vanishes_on_umbilic_leaves(surface):
    # Q_2 = 0 up to rounding on round leaves: the weights vanish with Q_2^{n/2-1}
    assert np.max(np.abs(fl.el_residual(fl.w_conf(2), surface()))) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_revolution_residuals_of_wf_and_jf_reduce(n):
    # WF with F = (sigma_1/s)^p is W_nps(p), JF with F = tau_2^{p/2} is J_nps(p)
    # (at s = 1, tau_2 = tau_1^2); p = 2 is not critical, so both sides are non-zero
    prof = rev.critical_ode_solve(n, n + 1, 0.4, 1.0, 0.4, (0.4, 0.6))
    s, p = n - 1, 2

    def only(k, partial):
        # f_partials with dF/dq_k = partial and every other partial 0
        out = np.zeros((partial.shape[0], s))
        out[:, k - 1] = partial
        return out

    wf = fl.FunctionalSpec(kind="WF", f=lambda sig: (sig[:, 0] / s) ** p,
                           f_partials=lambda sig: only(1, p * (sig[:, 0] / s) ** (p - 1) / s))
    if s == 1:
        jf = fl.FunctionalSpec(kind="JF", f=lambda tau: tau[:, 0] ** p,
                               f_partials=lambda tau: only(1, p * tau[:, 0] ** (p - 1)))
    else:
        jf = fl.FunctionalSpec(
            kind="JF", f=lambda tau: tau[:, 1] ** (p / 2),
            f_partials=lambda tau: only(2, (p / 2) * tau[:, 1] ** (p / 2 - 1)))
    for general, special in ((wf, fl.w_nps(p)), (jf, fl.j_nps(p))):
        expected = fl.el_residual(special, prof)
        assert np.min(np.abs(expected)) > 1e-3
        got = fl.el_residual(general, prof)
        assert np.max(np.abs(got - expected)) < 1e-12 * np.max(np.abs(expected))


def test_conf_residual_degenerate_on_umbilic_leaves():
    prof = rev.critical_ode_solve(2, 3, 0.4, 1.0, 0.4, (0.4, 0.6))
    with pytest.raises(SpecError):
        fl.el_residual(fl.w_conf(2), prof)


# ---------------------------------------------------------------------------
# second variation


def test_second_variation_zero_u():
    prof = rev.critical_ode_solve(2, 3, 0.4, 1.0, 0.4, (0.4, 0.62))
    patch = rev.revolution_patch(prof, m_leaf=24, m_profile=32)
    u0 = const_variation(2, 0.0)
    assert fl.second_variation_analytic(fl.w_nps(3), patch, u0) == pytest.approx(0.0)


def test_second_variation_cross_paths():
    prof = rev.critical_ode_solve(2, 3, 0.4, 1.0, 0.4, (0.4, 0.62))
    patch = rev.revolution_patch(prof, m_leaf=32, m_profile=40)
    for j, u in ((0, const_variation(2, 1.0)), (1, leaf_cos_variation())):
        reduced = rev.second_variation_revolution(prof, 3, j)
        general = fl.second_variation_analytic(fl.w_nps(3), patch, u)
        assert abs(reduced - general) < 1e-6 * abs(reduced)


def test_second_variation_precondition():
    prof = rev.profile_from_sympy(
        2, __import__("sympy").acosh(__import__("sympy").Symbol("rho")),
        __import__("sympy").Symbol("rho"), (1.15, 1.9))
    patch = rev.revolution_patch(prof, m_leaf=12, m_profile=10, rho_window=(1.2, 1.8))
    with pytest.raises(PreconditionError):
        fl.second_variation_analytic(fl.w_nps(3), patch, const_variation(2))


def test_sphere_stable_under_volume_preserving_high_modes():
    # W_{2,2} on the round sphere: second-harmonic deformations increase it
    patch = catalog.sphere(n=2, m_polar=24, m_azimuth=32)

    def mode2(x):
        return np.sin(x[:, 0]) ** 2 * np.sin(x[:, 1]) * np.cos(x[:, 1])

    u = fl.project_volume_preserving(
        patch, VariationField(u=ScalarField.from_callable(mode2, n=2)))
    d2 = fl.second_variation_analytic(fl.w_nps(2), patch, u,
                                      allow_constant_residual=True,
                                      residual_fd_step=1e-2)
    assert d2 > 1e-3


# ---------------------------------------------------------------------------
# conformal invariance


def test_homothety_invariance_exact(sheared4):
    res = fl.conformal_density_check(sheared4, r=2, mode="scaling", scale=2.6)
    assert res["max_rel_deviation"] < 1e-12


def test_inversion_invariance(sheared4):
    res = fl.conformal_density_check(sheared4, r=2, mode="inversion")
    assert res["max_rel_deviation"] < 1e-6
    assert res["shape_law_deviation"] < 1e-6


def test_umbilic_leaves_zero_density():
    prof = rev.critical_ode_solve(3, 4, 0.4, 1.0, 0.4, (0.4, 0.6))
    patch = rev.revolution_patch(prof, m_leaf=10, m_profile=8, rho_window=(0.45, 0.55))
    x = patch.grid.points[::11]
    base = fl.conformal_density(patch, 2, x, patch.n, patch.s)
    assert np.max(np.abs(base)) < 1e-12
    from leafwise.suppliers import InvertedImmersion

    image = fl.conformal_density(patch, 2, x, patch.n, patch.s,
                                 supplier=InvertedImmersion(patch.supplier))
    assert np.max(np.abs(image)) < 1e-10


@pytest.mark.parametrize("surface", [
    lambda: catalog.tube4(m_polar=8, m_azimuth=10, m_profile=8),
    lambda: rev.critical_ode_solve(3, 4, 0.4, 1.0, 0.4, (0.4, 0.6)),
], ids=["tube4", "profile"])
def test_w_conf_vanishes_on_umbilic_leaves(surface):
    # Q_2 is 0 up to rounding (down to -1.1e-16) on umbilic leaves
    assert fl.evaluate(fl.w_conf(2), surface()) == 0.0


def test_w_conf_refuses_a_negative_q2():
    assert np.array_equal(umbilic_power(np.array([-1e-13, 0.0, 0.25]), 1.5),
                          [0.0, 0.0, 0.125])
    assert np.array_equal(umbilic_power(np.array([-1e-13, 0.25]), 0.0), [1.0, 1.0])
    # sigma_1 = 2, sigma_2 = 1.5 on s = 2: Q_2 = 1 - 1.5 < 0
    spectrum = SimpleNamespace(sigma=np.array([[1.0, 2.0, 1.5]]))
    with pytest.raises(DomainError, match="negative curvature combination"):
        fl.integrand(fl.w_conf(2), spectrum, 3, 2)


def test_conformal_order_exceeds_leaf_dimension(bumpy3):
    with pytest.raises(DomainError):
        fl.conformal_density_check(bumpy3, r=2, mode="scaling")


def test_q2_is_quarter_gap_squared(sheared4):
    geo = sheared4.geometry(sheared4.grid.points[::37])
    eigs = np.linalg.eigvalsh(geo.a_leaf)
    q2 = q_r_from_sigma(geo.sigma, 2, 2)
    assert np.max(np.abs(q2 - (eigs[:, 1] - eigs[:, 0]) ** 2 / 4)) < 1e-12
