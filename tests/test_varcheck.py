import numpy as np
import pytest

from leafwise import deltas, varcheck as vc
from leafwise.errors import DomainError
from leafwise.operators import FullTensorField, LeafOneFormField, ScalarField
from leafwise.suppliers import ReparametrizedSupplier
from leafwise.variation import (
    VariationField,
    deformed_patch,
    random_trig_variation,
)

AUX_F2 = ScalarField.from_callable(
    lambda x: np.sin(x[:, 0] + 0.5 * x[:, 1]) + 0.3 * np.cos(2 * x[:, 1]), n=2)
AUX_F3 = ScalarField.from_callable(
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
    assert rep.passed, (quantity, rep.order_t, rep.errors)


@pytest.mark.parametrize("quantity,idx", S2_CASES)
def test_evolution_cases_s2(sheared4, u3, quantity, idx):
    case = vc.EvolutionCase(quantity=quantity, order_index=idx)
    rep = vc.verify_evolution(case, sheared4, u3, f=AUX_F3,
                              points=sheared4.grid.points[::61][:8])
    assert rep.passed, (quantity, rep.order_t, rep.errors)


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
    u_leaf = VariationField(u=ScalarField.from_callable(
        lambda x: np.cos(x[:, 0]), n=2,
        grad=lambda x: np.stack([-np.sin(x[:, 0]), np.zeros(x.shape[0])], axis=1),
        hess=lambda x: np.concatenate(
            [np.stack([-np.cos(x[:, 0]), np.zeros(x.shape[0])], axis=1)[:, None, :],
             np.zeros((x.shape[0], 1, 2))], axis=1)))
    case = vc.EvolutionCase(quantity=quantity, order_index=order_index)
    rep = vc.verify_evolution(case, torus_rev, u_leaf)
    assert rep.passed
    assert rep.naive_deviation < 1e-12


def test_naive_sigma_1_is_naive_sh_f(sheared4):
    # sigma_1 = s H_F, so their naive readings agree for any variation
    x = sheared4.grid.points[::61][:8]
    geo = sheared4.geometry(x, order=3)
    u = random_trig_variation(3, np.random.default_rng(7))
    uu, du, d2u = u.jets(x)
    naive = [vc._naive_rhs(vc.EvolutionCase(quantity=q, order_index=1), geo, uu, du, d2u, None)
             for q in ("sigma_r", "sH_F")]
    assert geo.norm_hmix_sq.max() > 1e-3
    assert np.max(np.abs(naive[0] - naive[1])) < 1e-12


def test_case_validation():
    with pytest.raises(DomainError):
        vc.EvolutionCase(quantity="bogus")
    with pytest.raises(DomainError):
        vc.EvolutionCase(quantity="g", t_values=(1e-3,))
    with pytest.raises(DomainError):
        vc.EvolutionCase(quantity="g", t_values=(1e-4, 1e-3))


def test_k_f_needs_s2(bumpy3, u2):
    with pytest.raises(DomainError):
        vc.verify_evolution(vc.EvolutionCase(quantity="K_F"), bumpy3, u2)


def test_kf_consistency_chain(sheared4, u3):
    # delta K_F three ways: direct difference, its formula, and the
    # combination 2 H_F delta(2H_F) - 1/2 delta|h_F|^2
    x = sheared4.grid.points[::61][:8]
    geo = sheared4.geometry(x, order=3)
    uu, du, d2u = u3.jets(x)
    direct = deltas.delta_k_f(geo, uu, du, d2u)
    combo = (2.0 * geo.h_f_mean * deltas.delta_s_hf(geo, uu, du, d2u)
             - 0.5 * deltas.delta_norm_hf_sq(geo, uu, du, d2u))
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
        jac[:, 0, 1] = shear * np.cos(xp[:, 1])
        p2 = np.zeros((mpts, 2, 2, 2))
        p2[:, 0, 1, 1] = -shear * np.sin(xp[:, 1])
        p3 = np.zeros((mpts, 2, 2, 2, 2))
        p3[:, 0, 1, 1, 1] = -shear * np.cos(xp[:, 1])
        return y, jac, p2, p3

    from dataclasses import replace

    patch_b = replace(bumpy3, supplier=ReparametrizedSupplier(bumpy3.supplier, psi_jets))
    xp = bumpy3.grid.points[::17][:6]
    y, jac, _, _ = psi_jets(xp)

    def u_fn(x):
        return np.cos(x[:, 0]) + 0.4 * np.sin(x[:, 0] - 2 * x[:, 1])

    u_a = VariationField(u=ScalarField.from_callable(u_fn, n=2))
    u_b = VariationField(u=ScalarField.from_callable(
        lambda x: u_fn(psi_jets(x)[0]), n=2))

    geo_a = bumpy3.geometry(y, order=3)
    geo_b = patch_b.geometry(xp, order=3)
    ua, dua, _ = u_a.jets(y)
    ub, dub, _ = u_b.jets(xp)
    dgamma_a = deltas.delta_christoffel(geo_a, ua, dua)
    dgamma_b = deltas.delta_christoffel(geo_b, ub, dub)
    jac_inv = np.linalg.inv(jac)
    transported = np.einsum("pck,pkij,pia,pjb->pcab", jac_inv, dgamma_a, jac, jac)
    assert np.max(np.abs(dgamma_b - transported)) < 1e-6


def test_integral_identities_on_revolution_patches(torus_rev, tube4):
    rng = np.random.default_rng(7)
    for patch in (torus_rev, tube4):
        fields = _identity_fields(patch)
        assert vc.transversal_harmonicity_norm(patch) < 1e-10
        for ident in vc.INTEGRAL_IDENTITIES:
            if ident == "ibp_full" and patch is tube4:
                continue  # full-surface IBP needs a closed chart in all axes
            rep = vc.verify_integral_identity(ident, patch, **fields)
            assert rep.applicable
            assert rep.passed, (ident, patch.name, rep.discrepancy)


def _identity_fields(patch):
    n, s = patch.n, patch.s

    def f_a(x):
        return np.sin(x[:, 0]) + 0.4 * np.cos(x[:, 0] - 2 * x[:, -1])

    def f_b(x):
        return np.cos(2 * x[:, 0]) + 0.5 * np.sin(x[:, 0] + x[:, -1])

    from leafwise.operators import leaf_metric_multiple

    w_field = ScalarField.from_callable(
        lambda x: np.sin(x[:, 0]) + 0.3 * np.cos(x[:, -1]), n=n)

    def b_full_fn(x):
        w = np.cos(x[:, 0] - x[:, -1])
        return w[:, None, None] * patch.geometry(x).g

    def omega_fn(x):
        return np.stack([np.sin(x[:, 0]) + 0.2 * np.cos(x[:, -1])] * s, axis=1)

    return {
        "f1": ScalarField.from_callable(f_a, n=n),
        "f2": ScalarField.from_callable(f_b, n=n),
        "u": ScalarField.from_callable(f_b, n=n),
        "b_leaf": leaf_metric_multiple(patch, w_field),
        "b_full": FullTensorField(fn=b_full_fn, n=n, step=1e-3),
        "omega": LeafOneFormField(fn=omega_fn, s=s, step=1e-3),
    }


def test_identity_marked_not_applicable_on_nonharmonic(sheared4):
    fields = _identity_fields(sheared4)
    rep = vc.verify_integral_identity("green_F", sheared4, **fields)
    assert not rep.applicable
    assert not rep.passed
    assert rep.precondition_norm > 1e-3


def test_green_trivial_for_constant_f2(torus_rev):
    fields = _identity_fields(torus_rev)
    fields["f2"] = ScalarField.from_callable(lambda x: np.ones(x.shape[0]), n=2)
    rep = vc.verify_integral_identity("green_F", torus_rev, **fields)
    assert abs(rep.lhs) < 1e-10 and abs(rep.rhs) < 1e-10


def test_grid_sampled_variation_converges_in_h(bumpy3, u2):
    # grid resolution controls the variation jets at 4th order
    rep = vc.verify_evolution(vc.EvolutionCase(quantity="sH_F"), bumpy3, u2,
                              grid_levels=(24, 48))
    assert rep.passed
    assert rep.order_h is not None and rep.order_h > 3.5


def test_report_rows_serializable(bumpy3, u2):
    rep = vc.verify_evolution(vc.EvolutionCase(quantity="dV"), bumpy3, u2)
    row = rep.row()
    assert set(row) >= {"case", "order_t", "max_error", "pass"}
    import json

    json.dumps(row)
