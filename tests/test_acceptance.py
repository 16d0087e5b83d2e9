"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured figure next to its tolerance."""

import time

import numpy as np

from leafwise import catalog, functionals as fl, revolution as rev, varcheck as vc
from leafwise.operators import Field
from leafwise.variation import random_trig_variation


def announce(num, text):
    print(f"\n[criterion {num}] PASS - {text}")


def test_criterion_1_sphere_willmore_value():
    patch = catalog.sphere(n=2, m_polar=128, m_azimuth=128)
    t0 = time.perf_counter()
    value = fl.evaluate(fl.w_nps(2), patch)
    elapsed = time.perf_counter() - t0
    rel = abs(value / (4 * np.pi) - 1)
    assert rel < 1e-8
    assert elapsed < 1.0
    announce(1, f"W_2,2(unit sphere) = {value:.12f}, rel err {rel:.2e} "
                f"(tol 1e-8), {elapsed * 1e3:.0f} ms at 128x128 (budget 1 s)")


def test_criterion_2_willmore_torus():
    value = fl.evaluate(fl.w_nps(2), catalog.torus())
    rel = abs(value / (2 * np.pi**2) - 1)
    assert rel < 1e-6
    announce(2, f"W_2,2(torus, ratio 1/sqrt2) = {value:.12f}, rel err {rel:.2e} "
                f"(tol 1e-6)")


def test_criterion_3_unit_sphere_constants():
    rels = []
    for n in (2, 3, 4):
        patch = catalog.sphere(n=n, m_polar=24, m_azimuth=32)
        value = fl.evaluate(fl.w_nps(n), patch)
        rels.append(abs(value / rev.sphere_area(n) - 1))
        assert rels[-1] < 1e-6
    announce(3, "W_n,n(unit n-sphere) matches the n-sphere area for n=2,3,4; "
                f"rel errs {', '.join(f'{r:.1e}' for r in rels)} (tol 1e-6)")


def test_criterion_4_profile_family():
    t0 = time.perf_counter()
    worst_dev, worst_resid = 0.0, 0.0
    for p in range(2, 9):
        prof = rev.critical_ode_solve(2, p, 0.4, 1.0, 0.4, (0.4, 3.0))
        _, dev, resid = rev.compare_with_closed_form(prof, 160)
        worst_dev, worst_resid = max(worst_dev, dev), max(worst_resid, resid)
    elapsed = time.perf_counter() - t0
    assert worst_dev < 1e-6
    assert worst_resid < 1e-8
    assert elapsed < 10.0
    announce(4, f"profile family p=2..8 from f(0.4)=1, f'(0.4)=0.4: "
                f"ODE vs closed form {worst_dev:.2e} (tol 1e-6), criticality "
                f"residual {worst_resid:.2e} (tol 1e-8), {elapsed:.1f} s (budget 10 s)")


def test_criterion_5_evolution_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240811)
    p2 = catalog.bumpy_torus3(m_leaf=12, m_tube=12)
    p3 = catalog.sheared_torus4(m1=8, m2=8, m3=8)
    u2 = random_trig_variation(2, rng)
    u3 = random_trig_variation(3, rng)
    f2 = Field.from_callable(
        lambda x: np.sin(x[:, 0] + 0.5 * x[:, 1]) + 0.3 * np.cos(2 * x[:, 1]), n=2)
    f3 = Field.from_callable(
        lambda x: np.sin(x[:, 0] + 0.5 * x[:, 1]) + 0.3 * np.cos(x[:, 1] - 2 * x[:, 2]),
        n=3)
    plan = [(p2, u2, f2, q, 1) for q in (
        "g", "g_inv", "h", "norm_h_sq", "nH", "dV", "sH_F", "norm_hF_sq",
        "norm_hmix_sq", "lapF_f", "tau_i", "sigma_r", "Christoffel")]
    plan += [(p3, u3, f3, q, i) for q, i in (
        ("twoH_F", 1), ("K_F", 1), ("tau_i", 2), ("tau_i", 3),
        ("sigma_r", 1), ("sigma_r", 2), ("lapF_f", 1), ("norm_hmix_sq", 1))]
    gaps = []
    for patch, u, f_aux, quantity, idx in plan:
        case = vc.EvolutionCase(quantity=quantity, order_index=idx)
        pts = patch.grid.points[::61][:8] if patch is p3 else None
        rep = vc.verify_evolution(case, patch, u, f=f_aux, points=pts)
        assert rep.passed, (quantity, idx, rep.gap)
        gaps.append(rep.gap)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    announce(5, f"{len(plan)} evolution cases on curved non-symmetric patches, "
                f"largest complex-step gap {max(gaps):.1e} (tol {vc.GAP_TOLERANCE:g}), "
                f"{elapsed:.1f} s (budget 60 s)")


def test_criterion_6_first_variation_oracle_equivalence():
    rng = np.random.default_rng(42)
    t_pair = (1e-3, 5e-4)
    kinds = {
        "W_nps": fl.w_nps(2),
        "J_nps": fl.j_nps(3),
        "WF": fl.FunctionalSpec(kind="WF", f=lambda s_: s_[:, 0] ** 2 + 0.3 * s_[:, 1]),
        "JF": fl.FunctionalSpec(kind="JF", f=lambda t_: t_[:, 1] + 0.1 * t_[:, 0] ** 3),
        "WF_of_HF": fl.FunctionalSpec(
            kind="WF_of_HF", f=lambda h: h**2 + 0.5 * h, f2=lambda h: 2 * np.ones_like(h)),
        "WF_HK": fl.FunctionalSpec(kind="WF_HK", f=lambda h, k: h**2 - 0.4 * k),
        "W_conf": fl.w_conf(2),
    }
    n_pairs = 10
    worst = {k: 0.0 for k in kinds}
    for pair_idx in range(n_pairs):
        eps = float(rng.uniform(0.02, 0.07))
        patch = catalog.sheared_torus4(eps=eps, m1=6, m2=6, m3=6)
        u = random_trig_variation(3, rng, amplitude=0.5)
        x = patch.grid.points
        from leafwise.variation import deformed_patch

        geo_t = {}
        for t in t_pair:
            geo_t[+t] = deformed_patch(patch, u, +t).geometry(x)
            geo_t[-t] = deformed_patch(patch, u, -t).geometry(x)
        for name, spec in kinds.items():
            analytic = patch.integrate(
                lambda geo: fl.first_variation_density(spec, geo, 3, 2, *u.jets(geo.x)))
            errs = []
            for t in t_pair:
                wp = float(np.sum(patch.grid.weights * geo_t[+t].sqrt_det_g
                                  * fl.integrand(spec, geo_t[+t], 3, 2)))
                wm = float(np.sum(patch.grid.weights * geo_t[-t].sqrt_det_g
                                  * fl.integrand(spec, geo_t[-t], 3, 2)))
                errs.append(abs((wp - wm) / (2 * t) - analytic))
            scale = max(1.0, abs(analytic))
            if max(errs) > 1e-10 * scale:
                order = np.log(errs[0] / errs[1]) / np.log(t_pair[0] / t_pair[1])
                assert order > 1.9, (name, pair_idx, errs)
            worst[name] = max(worst[name], errs[-1] / scale)
    announce(6, f"analytic vs finite-difference first variation: order-2 agreement "
                f"for all 7 kinds over {n_pairs} random (patch, u) pairs; worst "
                f"residual at t=5e-4 {max(worst.values()):.1e} (relative)")


def test_criterion_7_conformal_invariance():
    patch = catalog.sheared_torus4(m1=8, m2=8, m3=8)  # non-umbilic foliated 3-patch
    inv = fl.conformal_density_check(patch, r=2, mode="inversion")
    sca = fl.conformal_density_check(patch, r=2, mode="scaling", scale=2.4)
    assert inv["max_rel_deviation"] < 1e-6
    assert sca["max_rel_deviation"] < 1e-12
    announce(7, f"(Q_2)^(n/2) dV invariance: inversion dev "
                f"{inv['max_rel_deviation']:.2e} (tol 1e-6), homothety dev "
                f"{sca['max_rel_deviation']:.2e} (tol 1e-12); shape-operator law "
                f"dev {inv['shape_law_deviation']:.2e}")


def test_criterion_8_second_variation_signs():
    n, p = 2, 3
    prof = rev.critical_ode_solve(n, p, 0.4, 1.0, 0.4, (0.4, 0.62))
    patch = rev.revolution_patch(prof, m_leaf=32, m_profile=40)
    d2_0 = rev.second_variation_revolution(prof, p, 0)
    d2_1 = rev.second_variation_revolution(prof, p, 1)
    bound = rev.stability_bound_integral(prof, p, 1)
    assert d2_0 < 0
    assert d2_1 > 0
    assert d2_1 >= bound - 1e-9 and bound > 0
    rels = [abs(fl.second_variation_analytic(fl.w_nps(p), patch, rev.leaf_mode_variation(j))
                - d2) / abs(d2) for j, d2 in ((0, d2_0), (1, d2_1))]
    assert max(rels) < 1e-6, rels
    announce(8, f"critical profile n=2, p=3: d2(j=0) = {d2_0:.4f} < 0, "
                f"d2(j=1) = {d2_1:.4f} > 0 >= bound {bound:.4f}; "
                f"quadratic-form code paths agree to {max(rels):.1e} "
                f"(tol 1e-6)")


def test_criterion_9_integration_identities(torus_rev, tube4):
    worst = 0.0
    for patch in (torus_rev, tube4):
        pre = vc.transversal_harmonicity_norm(patch)
        assert pre < 1e-10
        fields = vc.identity_fields(patch)
        for ident in vc.INTEGRAL_IDENTITIES:
            if ident == "ibp_full" and patch is tube4:
                continue  # full-surface IBP runs on the fully periodic chart
            rep = vc.verify_integral_identity(ident, patch, **fields)
            assert rep.applicable and rep.discrepancy < 1e-8, (ident, patch.name)
            worst = max(worst, rep.discrepancy)
    announce(9, f"Green/symmetry, full and leafwise integration by parts and "
                f"gradient adjointness on periodic revolution patches: worst "
                f"discrepancy {worst:.2e} (tol 1e-8); |(div P) o P| < 1e-10")

