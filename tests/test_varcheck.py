import numpy as np
import pytest

from leafwise import deltas, functionals as fl, revolution as rev, varcheck as vc, variation
from leafwise.errors import DomainError
from leafwise.operators import Field, hessian_full, laplacian_leaf
from leafwise.suppliers import AnalyticSupplier, ReparametrizedSupplier
from leafwise.variation import (
    COMPLEX_STEP,
    complex_step_geometry,
    deformed_patch,
    random_trig_variation,
)

AUX_F2 = Field.from_callable(
    lambda x: np.sin(x[:, 0] + 0.5 * x[:, 1]) + 0.3 * np.cos(2 * x[:, 1]), n=2)
AUX_F3 = Field.from_callable(
    lambda x: np.sin(x[:, 0] + 0.5 * x[:, 1]) + 0.3 * np.cos(x[:, 1] - 2 * x[:, 2]), n=3)

S1_CASES = ("g", "g_inv", "h", "norm_h_sq", "nH", "dV", "sH_F", "norm_hF_sq",
            "norm_hmix_sq", "lapF_f", "tau_i", "sigma_r", "Christoffel")
S2_CASES = (("twoH_F", 1), ("K_F", 1), ("tau_i", 2), ("tau_i", 3),
            ("sigma_r", 1), ("sigma_r", 2), ("lapF_f", 1), ("norm_hmix_sq", 1))


@pytest.fixture(scope="module")
def u2(rng):
    return random_trig_variation(2, np.random.default_rng(101))


@pytest.fixture(scope="module")
def u3(rng):
    return random_trig_variation(3, np.random.default_rng(102))


@pytest.mark.parametrize("quantity", S1_CASES)
def test_evolution_cases_s1(bumpy3, u2, quantity):
    case = vc.EvolutionCase(quantity=quantity, order_index=1)
    rep = vc.verify_evolution(case, bumpy3, u2, f=AUX_F2)
    assert rep.passed, (quantity, rep.gap)


@pytest.mark.parametrize("quantity,idx", S2_CASES)
def test_evolution_cases_s2(sheared4, u3, quantity, idx):
    case = vc.EvolutionCase(quantity=quantity, order_index=idx)
    rep = vc.verify_evolution(case, sheared4, u3, f=AUX_F3,
                              points=sheared4.grid.points[::61][:8])
    assert rep.passed, (quantity, rep.gap)


#: (quantity as a function of a geometry, its analytic first variation) of
#: the two ladder cases below, computed here rather than by varcheck
LADDER_CASES = {
    "h": (lambda geo: geo.h, deltas.delta_second_form),
    "lapF_f": (lambda geo: laplacian_leaf(geo, *AUX_F3.jets(geo.x)[1:]),
               lambda geo, u, du, d2u: deltas.delta_lapf(geo, u, du, d2u,
                                                         *AUX_F3.jets(geo.x)[1:])),
}


@pytest.mark.parametrize("quantity", ("h", "lapF_f"))
def test_evolution_ladder_shares_one_base_per_point_set(sheared4, u3, quantity, monkeypatch,
                                                        ladder_derivative):
    # a geometry case and lapF_f, whose stencil runs on f, not on the patch:
    # the complex step deforms the one order-3 geometry of the analytic side once
    case = vc.EvolutionCase(quantity=quantity, order_index=1)
    x = sheared4.grid.points[::61][:8]
    calls, deformed = [], []
    jets, deform = AnalyticSupplier.jets, variation.deformed_jets

    def counting(self, x, order=2):
        calls.append(order)
        return jets(self, x, order)

    def deforming(geo, *args):
        deformed.append(len(geo.x))
        return deform(geo, *args)

    monkeypatch.setattr(AnalyticSupplier, "jets", counting)
    monkeypatch.setattr(variation, "deformed_jets", deforming)
    rep = vc.verify_evolution(case, sheared4, u3, f=AUX_F3, points=x)
    monkeypatch.undo()
    assert calls.count(3) == 1
    assert deformed == [len(x)]
    quantity_of, delta = LADDER_CASES[quantity]
    geo = sheared4.geometry(x, order=3)
    analytic = delta(geo, *u3.jets(x))
    numeric = np.imag(quantity_of(complex_step_geometry(sheared4, geo, *u3.jets(x))))
    numeric = numeric / COMPLEX_STEP
    scale = float(np.max(np.abs(analytic)))
    assert rep.numeric == float(np.max(np.abs(numeric))) and rep.analytic == scale
    assert rep.gap == float(np.max(np.abs(numeric - analytic))) / max(1.0, scale)
    # the oracle: the real-t ladder over a fresh deformed patch per t
    oracle = ladder_derivative(
        lambda t: quantity_of(deformed_patch(sheared4, u3, t).geometry(x)))
    assert np.max(np.abs(numeric - oracle)) <= 1e-10 * max(1.0, scale)


@pytest.mark.parametrize("points", [np.zeros((3, 3)), np.zeros((0, 2)), [[np.nan, 0.1]],
                                    np.zeros((2, 2, 2))])
def test_bad_sample_points_raise_domain_error(torus_rev, u2, points):
    # wrong width, no point, a NaN and a stack of point sets: each is refused
    # before any jet is computed
    with pytest.raises(DomainError, match="sample points"):
        vc.verify_evolution(vc.EvolutionCase(quantity="h"), torus_rev, u2, points=points)
    with pytest.raises(DomainError, match="sample points"):
        fl.el_residual(fl.w_nps(2), torus_rev, x=points)


def test_naive_reading_deviates_on_generic_patches(sheared4, u3):
    # the leaf-intrinsic literal reading differs once the variation has a
    # transverse gradient; the report carries the deviation
    case = vc.EvolutionCase(quantity="sH_F")
    rep = vc.verify_evolution(case, sheared4, u3,
                              points=sheared4.grid.points[::61][:8])
    assert rep.naive_deviation is not None and rep.naive_deviation > 1e-4


@pytest.mark.parametrize("quantity,order_index", [("sH_F", 1), ("sigma_r", 1)])
def test_naive_reading_matches_for_leafwise_variations(torus_rev, quantity, order_index):
    # on an orthogonal chart a leaf-coordinate amplitude has no transverse
    # gradient, and the two readings coincide (sigma_1 = sH_F)
    case = vc.EvolutionCase(quantity=quantity, order_index=order_index)
    rep = vc.verify_evolution(case, torus_rev, rev.leaf_mode_variation(1))
    assert rep.passed
    assert rep.naive_deviation < 1e-12


#: a spectrum case (quantity, order_index) and its twin of equal value:
#: sigma_1 = tau_1 = s H_F, K_F = sigma_2 at s = 2, |h_F|^2 = tau_2
NAIVE_TWINS = {"sigma_r": (("sigma_r", 1), ("sH_F", 1)),
               "tau_i": (("tau_i", 1), ("sH_F", 1)),
               "K_F": (("K_F", 1), ("sigma_r", 2)),
               "norm_hF_sq": (("norm_hF_sq", 1), ("tau_i", 2))}


@pytest.mark.parametrize("quantity", list(NAIVE_TWINS))
def test_naive_sigma_1_is_naive_sh_f(sheared4, quantity):
    # equal quantities have equal naive readings for any variation
    x = sheared4.grid.points[::61][:8]
    geo = sheared4.geometry(x, order=3)
    u = random_trig_variation(3, np.random.default_rng(7))
    uu, du, d2u = u.jets(x)
    naive = [vc._naive_rhs(vc.EvolutionCase(quantity=q, order_index=k), geo, uu, du, d2u, None)
             for q, k in NAIVE_TWINS[quantity]]
    assert geo.norm_hmix_sq.max() > 1e-3
    assert np.max(np.abs(naive[0] - naive[1])) < 1e-12


def test_case_validation():
    with pytest.raises(DomainError):
        vc.EvolutionCase(quantity="bogus")


def test_k_f_needs_s2(bumpy3, u2):
    with pytest.raises(DomainError):
        vc.verify_evolution(vc.EvolutionCase(quantity="K_F"), bumpy3, u2)


@pytest.mark.parametrize("quantity,index", [("sigma_r", 2), ("tau_i", 3), ("tau_i", 0)])
def test_order_index_outside_the_leaf_spectrum(bumpy3, u2, quantity, index):
    # s = 1: sigma_1 and tau_1, tau_2 only
    case = vc.EvolutionCase(quantity=quantity, order_index=index)
    with pytest.raises(DomainError):
        vc.verify_evolution(case, bumpy3, u2)


def test_spectrum_algebraic_matches_the_closed_forms(sheared4, tube4):
    # alg_k = tr(A_F^2 W_k) against sigma_1 sigma_k - (k+1) sigma_{k+1}
    # (sigma_{s+1} = 0) and k tau_{k+1}, on patches and revolution invariants
    prof = rev.critical_ode_solve(3, 3, 0.4, 1.0, 0.4, (0.4, 0.62))
    bundles = [p.geometry(p.grid.points[::9]) for p in (sheared4, tube4)]
    bundles.append(rev.invariants(prof, prof.sample(50)))
    for geo in bundles:
        sigma, tau = geo.sigma, geo.tau
        s = sigma.shape[1] - 1
        sigma = np.concatenate([sigma, np.zeros((sigma.shape[0], 1))], axis=1)
        for k in range(1, s + 1):
            want = sigma[:, 1] * sigma[:, k] - (k + 1) * sigma[:, k + 1]
            got = deltas.spectrum_algebraic("sigma", geo, k)
            assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))
            assert np.array_equal(deltas.spectrum_algebraic("tau", geo, k), k * tau[:, k + 1])


def test_kf_consistency_chain(sheared4, u3):
    # delta K_F three ways: direct difference, delta sigma_2, and the
    # combination sigma_1 delta sigma_1 - 1/2 delta tau_2 (sigma_2 = (sigma_1^2 - tau_2)/2)
    x = sheared4.grid.points[::61][:8]
    geo = sheared4.geometry(x, order=3)
    uu, du, d2u = u3.jets(x)
    hess = geo.leaf_block(hessian_full(geo, du, d2u))
    direct = deltas.delta_spectrum("sigma", geo, uu, hess, 2)
    combo = (geo.sigma[:, 1] * deltas.delta_spectrum("sigma", geo, uu, hess, 1)
             - 0.5 * deltas.delta_spectrum("tau", geo, uu, hess, 2))
    assert np.max(np.abs(direct - combo)) < 1e-12

    def kf_at(p):
        return p.geometry(x).k_f

    errs = []
    for t in (1e-3, 5e-4):
        fd = (kf_at(deformed_patch(sheared4, u3, +t))
              - kf_at(deformed_patch(sheared4, u3, -t))) / (2 * t)
        errs.append(np.max(np.abs(fd - direct)))
    assert np.log(errs[0] / errs[1]) / np.log(2.0) > 1.9


def test_christoffel_variation_transforms_as_tensor(bumpy3):
    # compare delta Gamma on two overlapping adapted charts of one surface
    shear = 0.2

    def psi_jets(xp):
        mpts = xp.shape[0]
        y = xp.copy()
        y[:, 0] = xp[:, 0] + shear * np.sin(xp[:, 1])
        jac = np.zeros((mpts, 2, 2))
        jac[:, 0, 0] = 1.0
        jac[:, 1, 1] = 1.0
        jac[:, 1, 0] = shear * np.cos(xp[:, 1])  # jac[p, a, i] = d y^i / d x'^a
        p2 = np.zeros((mpts, 2, 2, 2))
        p2[:, 1, 1, 0] = -shear * np.sin(xp[:, 1])
        p3 = np.zeros((mpts, 2, 2, 2, 2))
        p3[:, 1, 1, 1, 0] = -shear * np.cos(xp[:, 1])
        return y, jac, p2, p3

    from dataclasses import replace

    patch_b = replace(bumpy3, supplier=ReparametrizedSupplier(bumpy3.supplier, psi_jets))
    xp = bumpy3.grid.points[::17][:6]
    y, jac, _, _ = psi_jets(xp)

    def u_fn(x):
        return np.cos(x[:, 0]) + 0.4 * np.sin(x[:, 0] - 2 * x[:, 1])

    u_a = Field.from_callable(u_fn, n=2)
    u_b = Field.from_callable(
        lambda x: u_fn(psi_jets(x)[0]), n=2)

    geo_a = bumpy3.geometry(y, order=3)
    geo_b = patch_b.geometry(xp, order=3)
    ua, dua, _ = u_a.jets(y)
    ub, dub, _ = u_b.jets(xp)
    dgamma_a = deltas.delta_christoffel(geo_a, ua, dua)
    dgamma_b = deltas.delta_christoffel(geo_b, ub, dub)
    jac_inv = np.linalg.inv(jac)
    transported = np.einsum("pkc,pkij,pai,pbj->pcab", jac_inv, dgamma_a, jac, jac)
    assert np.max(np.abs(dgamma_b - transported)) < 1e-6


def test_integral_identities_on_revolution_patches(torus_rev, tube4):
    for patch in (torus_rev, tube4):
        fields = vc.identity_fields(patch)
        assert vc.transversal_harmonicity_norm(patch) < 1e-10
        for ident in vc.INTEGRAL_IDENTITIES:
            if ident == "ibp_full" and patch is tube4:
                continue  # full-surface IBP needs a closed chart in all axes
            rep = vc.verify_integral_identity(ident, patch, **fields)
            assert rep.applicable
            assert rep.passed, (ident, patch.name, rep.discrepancy)


def test_identity_sides_do_not_vanish_on_the_revolution_torus(torus_rev):
    # an identity whose two sides vanish by symmetry checks nothing
    fields = vc.identity_fields(torus_rev)
    for ident in vc.INTEGRAL_IDENTITIES:
        rep = vc.verify_integral_identity(ident, torus_rev, **fields)
        assert abs(rep.lhs) > 1e-2, (ident, rep.lhs)


def test_ibp_full_fails_on_a_doubled_double_divergence(torus_rev, monkeypatch):
    star_squared_full = vc.star_squared_full
    monkeypatch.setattr(vc, "star_squared_full", lambda *args: 2.0 * star_squared_full(*args))
    rep = vc.verify_integral_identity("ibp_full", torus_rev, **vc.identity_fields(torus_rev))
    assert not rep.passed and rep.discrepancy > 1e-2


def test_identity_marked_not_applicable_on_nonharmonic(sheared4):
    fields = vc.identity_fields(sheared4)
    rep = vc.verify_integral_identity("green_F", sheared4, **fields)
    assert not rep.applicable
    assert not rep.passed
    assert rep.precondition_norm > 1e-3


def test_green_trivial_for_constant_f2(torus_rev):
    fields = vc.identity_fields(torus_rev)
    fields["f2"] = Field.from_callable(lambda x: np.ones(x.shape[0]), n=2)
    rep = vc.verify_integral_identity("green_F", torus_rev, **fields)
    assert abs(rep.lhs) < 1e-10 and abs(rep.rhs) < 1e-10


def test_report_rows_serializable(bumpy3, u2):
    rep = vc.verify_evolution(vc.EvolutionCase(quantity="dV"), bumpy3, u2)
    row = rep.row()
    assert set(row) >= {"case", "gap", "pass"}
    import json

    json.dumps(row)
