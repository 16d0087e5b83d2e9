import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from leafwise import catalog, functionals as fl, patch as pt, revolution as rev, variation
from leafwise.errors import DomainError, PreconditionError, SpecError, ValidationError
from leafwise.operators import Field
from leafwise.suppliers import AnalyticSupplier, InvertedImmersion
from leafwise.symfunc import q_r_from_sigma, umbilic_power
from leafwise.variation import deformed_patch, random_trig_variation


def const_variation(n, value=1.0):
    u = lambda x: np.full(x.shape[0], value)
    return Field(lambda x: (u(x), np.zeros((x.shape[0], n)), np.zeros((x.shape[0], n, n))), n, u)


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
    wf_of_hf = fl.FunctionalSpec(kind="WF_of_HF", f=lambda h: h**2 + 0.2 * h)
    for spec in (fl.w_nps(3), fl.j_nps(3), wf_of_hf):
        w_patch = fl.evaluate(spec, patch)
        w_prof = fl.evaluate(spec, prof)
        assert abs(w_patch - w_prof) < 1e-9, spec.kind
    # F = (sigma_1 / s)^p through the generic sigma path is W_nps
    p = 3
    wf = fl.FunctionalSpec(kind="WF", f=lambda sig: (sig[:, 0] / sig.shape[1]) ** p)
    assert fl.evaluate(wf, prof) == pytest.approx(fl.evaluate(fl.w_nps(p), prof), abs=1e-12)


def test_fractional_power_of_signed_curvature_refused(bumpy3):
    # leaf curvature changes sign on the torus: no branch is chosen
    with pytest.raises(DomainError):
        fl.evaluate(fl.w_nps(2.5), bumpy3)


def test_reduction_consistency(sheared4):
    p = 3
    wf = fl.FunctionalSpec(kind="WF", f=lambda sig: (sig[:, 0] / 2) ** p)
    assert fl.evaluate(wf, sheared4) == pytest.approx(
        fl.evaluate(fl.w_nps(p), sheared4), abs=1e-12)
    p2 = 4
    jf = fl.FunctionalSpec(kind="JF", f=lambda tau: tau[:, 1] ** (p2 / 2))
    assert fl.evaluate(jf, sheared4) == pytest.approx(
        fl.evaluate(fl.j_nps(p2), sheared4), abs=1e-12)


def test_w_conf_is_wf_of_q2(sheared4, rng):
    # W_conf = int Q_2^{n/2}, Q_2 = (sigma_1 / s)^2 - sigma_2 / C(s, 2); n = 3 here
    def q2(sig):
        s = sig.shape[1]
        return (sig[:, 0] / s) ** 2 - sig[:, 1] / (s * (s - 1) / 2)

    wf = fl.FunctionalSpec(kind="WF", f=lambda sig: q2(sig) ** 1.5)
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


def test_analyticity_check_refuses_a_non_analytic_f():
    # the sigma_1^2 term keeps the value complex, but np.abs drops the step of
    # its own term: the step reads 0 in sigma_2, the central difference +-0.3
    with pytest.raises(ValidationError, match="complex-analytic"):
        fl.FunctionalSpec(kind="WF", f=lambda sig: sig[:, 0] ** 2 + 0.3 * np.abs(sig[:, 1] - 0.9))


def test_non_finite_exponent_is_a_spec_error():
    for kind in ("W_nps", "J_nps"):
        for p in (np.inf, -np.inf, np.nan):
            with pytest.raises(SpecError, match="finite"):
                fl.FunctionalSpec(kind=kind, p=p)


@pytest.mark.parametrize("p", [True, False, "2", [2.0], 1j])
def test_exponent_that_is_not_a_real_number_is_a_spec_error(p):
    for kind in ("W_nps", "J_nps"):
        with pytest.raises(SpecError, match="exponent p"):
            fl.FunctionalSpec(kind=kind, p=p)


def test_partials_spot_check_refuses_an_f_that_drops_the_imaginary_part():
    # |sigma_1|^2 has the partial 2 sigma_1 where sigma_1 > 0, but np.abs
    # drops the complex step, which then reads 0
    with pytest.raises(ValidationError, match="complex-analytic"):
        fl.FunctionalSpec(kind="WF", f=lambda sig: np.abs(sig[:, 0]) ** 2)


def test_partials_spot_check_propagates_unexpected_errors():
    # only shape and dimension errors mean "defined for another s"
    def f(sig):
        return undefined_name * sig[:, 0]  # noqa: F821

    with pytest.raises(NameError):
        fl.FunctionalSpec(kind="WF", f=f)


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
    # tau_2 = |h_F|^2 and tau_3 = <h_F, h_F^2> in terms of H_F and K_F
    assert np.max(np.abs(geo.tau[:, 2] - (4 * h_f**2 - 2 * k_f))) < 1e-10
    assert np.max(np.abs(geo.tau[:, 3] - (8 * h_f**3 - 6 * h_f * k_f))) < 1e-10


# ---------------------------------------------------------------------------
# first variations


def test_first_variation_zero_for_zero_u(bumpy3):
    u0 = const_variation(2, 0.0)
    assert fl.first_variation_analytic(fl.w_nps(2), bumpy3, u0) == pytest.approx(0.0)
    assert fl.first_variation_numeric(fl.w_nps(2), bumpy3, u0) == pytest.approx(0.0)


def test_numeric_variation_shares_one_base_per_ladder(monkeypatch, ladder_derivative):
    patch = catalog.sheared_torus4(m1=25, m2=25, m3=25)
    size = patch.block_size
    assert -(-len(patch.grid.points) // size) == 2
    u = random_trig_variation(3, np.random.default_rng(7), amplitude=0.5)
    spec = fl.w_nps(2)
    calls = []  # the point count of each order-3 base jets call
    deformed = []  # the point count of each deformation of a base geometry
    jets, deform = AnalyticSupplier.jets, variation.deformed_jets

    def counting(self, x, order=2):
        if order >= 3:
            calls.append(len(x))
        return jets(self, x, order)

    def deforming(geo, *args):
        deformed.append(len(geo.x))
        return deform(geo, *args)

    monkeypatch.setattr(AnalyticSupplier, "jets", counting)
    monkeypatch.setattr(variation, "deformed_jets", deforming)
    value = fl.first_variation_numeric(spec, patch, u)
    monkeypatch.undo()
    assert sorted(calls) == sorted([size, len(patch.grid.points) - size])
    # each block deforms its base geometry once, by the complex step
    assert sorted(deformed) == sorted([size, len(patch.grid.points) - size])
    # oracle: the real-t ladder of the values W(+-t) of fresh deformed patches,
    # whose own error is about 1e-11 relative here
    oracle = ladder_derivative(lambda t: fl.evaluate(spec, deformed_patch(patch, u, t)))
    assert abs(value - oracle) <= 1e-10 * max(1.0, abs(oracle))


def test_numeric_variation_memory_is_bounded_by_a_block(monkeypatch):
    # each block's base and deformed geometries are dropped before its worker
    # takes the next block, so on two workers the peak does not grow with
    # the block count
    u = random_trig_variation(2, np.random.default_rng(3))
    peaks = []
    with ThreadPoolExecutor(max_workers=2, initializer=setattr,
                            initargs=(pt._in_worker, "active", True)) as pool:
        monkeypatch.setattr(pt, "_pool", pool)
        for m in (256, 512):  # 2 and 8 blocks
            patch = catalog.torus(s=1, m_leaf=m, m_tube=m)
            _ = patch.grid.points, patch.grid.weights  # built before tracing
            tracemalloc.start()
            try:
                fl.first_variation_numeric(fl.w_nps(2), patch, u)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_area_variation_is_minus_n_u_h():
    # functional F = 1: delta(area) = -int n u H dV
    patch = catalog.torus(s=1, m_leaf=24, m_tube=24)
    area_spec = fl.FunctionalSpec(kind="WF_of_HF", f=lambda h: np.ones_like(h),
                                  f2=lambda h: np.zeros_like(h))
    u = random_trig_variation(2, np.random.default_rng(2))
    expected = -patch.integrate(lambda geo: patch.n * u(geo.x) * geo.mean_curvature)
    numeric = fl.first_variation_numeric(area_spec, patch, u)
    assert numeric == pytest.approx(expected, abs=1e-9)


def test_sphere_shrink_area_rate():
    # inward unit deformation of S^n(R): d/dt area = -n C_n R^{n-1}
    radius = 1.4
    patch = catalog.sphere(n=2, radius=radius, m_polar=20, m_azimuth=28)
    area_spec = fl.FunctionalSpec(kind="WF_of_HF", f=lambda h: np.ones_like(h),
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


#: acceptance criterion 6's seven kinds
CRITERION_6_KINDS = {
    "W_nps": fl.w_nps(2),
    "J_nps": fl.j_nps(3),
    "WF": fl.FunctionalSpec(
        kind="WF", f=lambda s_: s_[:, 0] ** 2 + 0.3 * s_[:, 1]),
    "JF": fl.FunctionalSpec(
        kind="JF", f=lambda t_: t_[:, 1] + 0.1 * t_[:, 0] ** 3),
    "WF_of_HF": fl.FunctionalSpec(
        kind="WF_of_HF", f=lambda h: h**2 + 0.5 * h,
        f2=lambda h: 2 * np.ones_like(h)),
    "WF_HK": fl.FunctionalSpec(kind="WF_HK", f=lambda h, k: h**2 - 0.4 * k),
    "W_conf": fl.w_conf(2),
}


def test_first_variation_matches_oracle_all_kinds(sheared4, rng):
    # the complex step subtracts nothing: no truncation error, no rounding floor
    u = random_trig_variation(3, rng, amplitude=0.4)
    for kind, spec in CRITERION_6_KINDS.items():
        fa = fl.first_variation_analytic(spec, sheared4, u)
        fn = fl.first_variation_numeric(spec, sheared4, u)
        assert abs(fa - fn) <= 1e-12 * max(1.0, abs(fa)), (kind, fa, fn)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_numeric_variation_is_exact_to_rounding_on_family_sweep_draws(seed):
    # the benchmark's family-sweep op: eps and u drawn from the seed
    rng = np.random.default_rng(seed)
    eps = rng.uniform(0.02, 0.07)
    u = random_trig_variation(3, rng, amplitude=0.5)
    patch = catalog.sheared_torus4(eps, m1=6, m2=6, m3=6)
    for spec in (fl.w_conf(2), fl.w_nps(2)):
        fa = fl.first_variation_analytic(spec, patch, u)
        fn = fl.first_variation_numeric(spec, patch, u)
        assert abs(fa - fn) <= 1e-12 * max(1.0, abs(fa)), (spec.kind, fa, fn)


@pytest.mark.parametrize("entry", [
    lambda prof, u: fl.first_variation_analytic(fl.w_nps(2), prof, u),
    lambda prof, u: fl.first_variation_numeric(fl.w_nps(2), prof, u),
    lambda prof, u: fl.second_variation_analytic(fl.w_nps(3), prof, u),
    lambda prof, u: fl.conformal_density_check(prof, r=1),
], ids=["first_variation_analytic", "first_variation_numeric",
        "second_variation_analytic", "conformal_density_check"])
def test_patch_only_entry_points_refuse_a_revolution_profile(entry):
    import sympy as sp

    rho = sp.Symbol("rho")
    prof = rev.profile_from_sympy(2, sp.sqrt(4 - rho**2), rho, (0.3, 1.2))
    with pytest.raises(DomainError, match=r"revolution_patch\(profile\)") as err:
        entry(prof, rev.leaf_mode_variation(1))
    assert len(str(err.value).splitlines()) == 1
    # the value and the residual still take the profile
    assert np.isfinite(fl.evaluate(fl.w_nps(2), prof))
    assert np.all(np.isfinite(fl.el_residual(fl.w_nps(2), prof)))


def test_kind_surface_mismatch_raises(bumpy3):
    # WF_HK needs s = 2 and W_conf s >= 2; bumpy3 is an s = 1 patch
    wf_hk = fl.FunctionalSpec(kind="WF_HK", f=lambda h, k: h * k)
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
    kappa_field = Field.from_callable(
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

    u = Field.from_callable(amp, n=3)
    cases = [
        (fl.w_nps(3), 1e-5),
        (fl.j_nps(4), 1e-3),
        (fl.w_conf(2), 1e-5),
        (fl.FunctionalSpec(kind="WF_of_HF", f=lambda h: h**2 + 0.2 * h,
                           f2=lambda h: 2 * np.ones_like(h)), 1e-5),
        (fl.FunctionalSpec(kind="WF_HK", f=lambda h, k: h**2 - 0.4 * k), 1e-5),
        (fl.FunctionalSpec(kind="WF",
                           f=lambda sig: sig[:, 0] ** 3 + 0.5 * sig[:, 0] * sig[:, 1]), 1e-5),
        (fl.FunctionalSpec(kind="JF",
                           f=lambda tau: tau[:, 0] * tau[:, 1] + 0.3 * tau[:, 1]), 1e-5),
    ]
    for spec, tol in cases:
        fa = fl.first_variation_analytic(spec, torus_cyl4, u)
        weak = torus_cyl4.integrate(
            lambda geo: u(geo.x) * fl.el_residual(spec, torus_cyl4, x=geo.x))
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

    wf = fl.FunctionalSpec(kind="WF", f=lambda sig: (sig[:, 0] / s) ** p)
    if s == 1:
        jf = fl.FunctionalSpec(kind="JF", f=lambda tau: tau[:, 0] ** p)
    else:
        jf = fl.FunctionalSpec(kind="JF", f=lambda tau: tau[:, 1] ** (p / 2))
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
    for j in (0, 1):
        reduced = rev.second_variation_revolution(prof, 3, j)
        general = fl.second_variation_analytic(fl.w_nps(3), patch, rev.leaf_mode_variation(j))
        assert abs(reduced - general) < 1e-6 * abs(reduced)


def test_second_variation_steps_f_prime_along_the_leaf_axes_only(monkeypatch):
    # geometry calls inside each leaf_laplacian: el_residual's c_0 steps along
    # both axes (1 + 4*2 + 8*2 = 25), the one block's F'(H_F) along the leaf
    # axis alone (1 + 4 = 5)
    prof = rev.critical_ode_solve(2, 3, 0.4, 1.0, 0.4, (0.4, 0.62))
    patch = rev.revolution_patch(prof, m_leaf=16, m_profile=20)
    real_geometry, real_laplacian = pt.FoliatedPatch.geometry, fl.leaf_laplacian
    calls, inside = [], []

    def geometry(self, *args, **kwargs):
        if inside:
            calls[-1] += 1
        return real_geometry(self, *args, **kwargs)

    def laplacian(*args):
        calls.append(0)
        inside.append(True)
        try:
            return real_laplacian(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(pt.FoliatedPatch, "geometry", geometry)
    monkeypatch.setattr(fl, "leaf_laplacian", laplacian)
    fl.second_variation_analytic(fl.w_nps(3), patch, rev.leaf_mode_variation(1))
    assert calls == [25, 5]


def test_second_variation_precondition():
    prof = rev.profile_from_sympy(
        2, __import__("sympy").acosh(__import__("sympy").Symbol("rho")),
        __import__("sympy").Symbol("rho"), (1.15, 1.9))
    patch = rev.revolution_patch(prof, m_leaf=12, m_profile=10, rho_window=(1.2, 1.8))
    with pytest.raises(PreconditionError):
        fl.second_variation_analytic(fl.w_nps(3), patch, const_variation(2))


def test_second_variation_refuses_mixed_curvature(sheared4):
    # the quadratic form holds for h_mix = 0 only; sheared_torus4 has h_mix != 0
    assert np.max(sheared4.geometry(sheared4.grid.points[::7]).norm_hmix_sq) > 1e-3
    with pytest.raises(PreconditionError, match="h_mix"):
        fl.second_variation_analytic(fl.w_nps(2), sheared4, const_variation(3))


def test_sphere_stable_under_volume_preserving_high_modes():
    # W_{2,2} on the round sphere: second-harmonic deformations increase it
    patch = catalog.sphere(n=2, m_polar=24, m_azimuth=32)

    def mode2(x):
        return np.sin(x[:, 0]) ** 2 * np.sin(x[:, 1]) * np.cos(x[:, 1])

    u = fl.project_volume_preserving(
        patch, Field.from_callable(mode2, n=2))
    d2 = fl.second_variation_analytic(fl.w_nps(2), patch, u,
                                      allow_constant_residual=True,
                                      residual_fd_step=1e-2)
    assert d2 > 1e-3


# ---------------------------------------------------------------------------
# conformal invariance


def test_homothety_invariance_exact(sheared4):
    res = fl.conformal_density_check(sheared4, r=2, mode="scaling", scale=2.6)
    assert res["max_rel_deviation"] < 1e-12


def test_homothety_factor_must_be_finite_and_nonzero(sheared4):
    # a zero or nan factor used to end in "immersion Jacobian is rank-deficient"
    for scale in (0.0, np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError, match="homothety factor"):
            fl.conformal_density_check(sheared4, mode="scaling", scale=scale)


def test_inversion_invariance(sheared4):
    res = fl.conformal_density_check(sheared4, r=2, mode="inversion")
    assert res["max_rel_deviation"] < 1e-6
    assert res["shape_law_deviation"] < 1e-6


def test_umbilic_leaves_zero_density():
    prof = rev.critical_ode_solve(3, 4, 0.4, 1.0, 0.4, (0.4, 0.6))
    patch = rev.revolution_patch(prof, m_leaf=10, m_profile=8, rho_window=(0.45, 0.55))
    image = replace(patch, supplier=InvertedImmersion(patch.supplier),
                    normal_orientation=-patch.normal_orientation)
    x = patch.grid.points[::11]
    for surface, tol in ((patch, 1e-12), (image, 1e-10)):
        geo = surface.geometry(x)
        density = fl.integrand(fl.w_conf(2), geo, patch.n, patch.s) * geo.sqrt_det_g
        assert np.max(np.abs(density)) < tol


@pytest.fixture(scope="module")
def tube4_s3():
    # the leaf is the whole tube; Q_3 lies in [0.088, 0.786] on this grid
    return replace(catalog.tube4(m_polar=8, m_azimuth=10, m_profile=10), s=3)


def test_w_conf_3_first_variation_and_inversion(tube4_s3):
    spec = fl.w_conf(3)
    u = Field.from_callable(
        lambda x: np.cos(x[:, 2]) + 0.5 * np.cos(x[:, 0]) * np.sin(x[:, 2])
        + 0.3 * np.sin(2 * x[:, 2]), n=3)
    analytic = fl.first_variation_analytic(spec, tube4_s3, u)
    numeric = fl.first_variation_numeric(spec, tube4_s3, u)
    assert abs(analytic - numeric) < 1e-8 * abs(numeric)
    assert abs(numeric) > 1.0
    # x -> x/|x|^2 reverses orientation, so the image takes the opposite one
    image = replace(tube4_s3, supplier=InvertedImmersion(tube4_s3.supplier),
                    normal_orientation=-tube4_s3.normal_orientation)
    value = fl.evaluate(spec, tube4_s3)
    assert fl.evaluate(spec, image) == pytest.approx(value, rel=1e-12, abs=0)
    res = fl.conformal_density_check(tube4_s3, r=3, mode="inversion")
    assert res["max_rel_deviation"] < 1e-6
    assert res["shape_law_deviation"] < 1e-6


def test_first_variation_is_conformally_covariant():
    # the Möbius image of r + t u N is, to first order, the image deformed by
    # u / |r|^2 along its normal, and W_conf(2) is invariant, so the two
    # first variations agree up to the stencil error of u / |r|^2
    patch = catalog.sheared_torus4(m1=10, m2=10, m3=10)
    spec = fl.w_conf(2)
    u = random_trig_variation(3, np.random.default_rng(3), 0.5)
    image = replace(patch, supplier=InvertedImmersion(patch.supplier),
                    normal_orientation=-patch.normal_orientation)

    def u_image(x):
        r = patch.supplier.jets(x, order=0).r
        return u(x) / np.einsum("pa,pa->p", r, r)

    v = Field.from_callable(u_image, n=3)
    base = fl.first_variation_analytic(spec, patch, u)
    analytic = fl.first_variation_analytic(spec, image, v)
    numeric = fl.first_variation_numeric(spec, image, v)
    assert abs(base) > 1.0
    assert abs(analytic - base) < 1e-8 * abs(base)
    assert abs(numeric - analytic) < 1e-10 * abs(analytic)


def test_w_conf_partials_validate_at_every_order():
    # the analyticity check probes s = 1..max(4, r), so r = 5, 6 validate too
    for r in range(1, 7):
        assert fl.w_conf(r).r == r


@pytest.mark.parametrize("r", [0, 2.5, True, None])
def test_w_conf_refuses_an_order_that_is_not_a_count(r):
    with pytest.raises(SpecError, match="integer >= 1"):
        fl.FunctionalSpec(kind="W_conf", r=r)


@pytest.mark.parametrize("surface", [
    lambda: catalog.tube4(m_polar=8, m_azimuth=10, m_profile=8),
    lambda: rev.critical_ode_solve(3, 4, 0.4, 1.0, 0.4, (0.4, 0.6)),
], ids=["tube4", "profile"])
def test_w_conf_vanishes_on_umbilic_leaves(surface):
    # Q_2 is 0 up to rounding (down to -1.1e-16) on umbilic leaves
    assert fl.evaluate(fl.w_conf(2), surface()) == 0.0


def test_umbilic_power_keeps_a_complex_step():
    # zeroing a near-zero Q_r must leave the step: at power n/r = 1 the
    # complex-step partial is 1, not 0
    h = variation.COMPLEX_STEP
    assert np.imag(umbilic_power(np.array([1e-13 + 1j * h]), 1.0))[0] / h == 1.0
    q = np.array([-1e-13, 0.0, 1e-13, 0.3, -0.0])
    assert np.array_equal(umbilic_power(q, 1.5), [0.0, 0.0, 0.0, 0.3**1.5, 0.0])


def test_w_conf_refuses_a_negative_q2():
    assert np.array_equal(umbilic_power(np.array([-1e-13, 0.0, 0.25]), 1.5),
                          [0.0, 0.0, 0.125])
    assert np.array_equal(umbilic_power(np.array([-1e-13, 0.25]), 0.0), [1.0, 1.0])
    # sigma_1 = 2, sigma_2 = 1.5 on s = 2: Q_2 = 1 - 1.5 < 0
    sigma = np.array([[1.0, 2.0, 1.5]])
    spectrum = SimpleNamespace(spectrum=lambda family, top: sigma[:, : top + 1])
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
