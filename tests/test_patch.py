import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from leafwise import catalog, functionals as fl
from leafwise.errors import DomainError, SingularImmersionError
from leafwise.patch import (BLOCK, FoliatedPatch, Grid, gauss_axis, periodic_axis,
                            point_geometry)
from leafwise.suppliers import (AnalyticSupplier, FiniteDifferenceSupplier, cholesky_frame,
                                cofactor_normal)
from leafwise.symfunc import sigma_all, sigma_of_matrix
from leafwise.variation import random_trig_variation


def test_unit_sphere_round():
    # inward orientation: shape operator is the identity, H = 1, |h|^2 = n
    for n in (2, 3):
        patch = catalog.sphere(n=n, m_polar=8, m_azimuth=10)
        geo = patch.geometry(patch.grid.points[::11])
        assert np.max(np.abs(geo.shape_op - np.eye(n))) < 1e-12
        assert np.max(np.abs(geo.mean_curvature - 1.0)) < 1e-12
        assert np.max(np.abs(geo.norm_h_sq - n)) < 1e-12


def test_flat_plane_totally_geodesic():
    patch = catalog.plane()
    geo = patch.geometry(patch.grid.points[::17])
    assert np.max(np.abs(geo.h)) < 1e-12
    assert np.max(np.abs(geo.mean_curvature)) < 1e-13


def test_cylinder_circle_foliation():
    radius = 2.0
    patch = catalog.cylinder(radius=radius, m_leaf=12, m_axis=6)
    geo = patch.geometry(patch.grid.points[::7])
    assert np.max(np.abs(geo.a_leaf[:, 0, 0] - 1.0 / radius)) < 1e-12
    assert np.max(np.abs(geo.b_perp)) < 1e-12
    assert np.max(np.abs(geo.norm_hmix_sq)) < 1e-24
    assert np.max(np.abs(geo.mean_curvature - 1.0 / (2 * radius))) < 1e-12


def test_normal_unit_and_orthogonal(bumpy3):
    geo = bumpy3.geometry(bumpy3.grid.points[::13])
    assert np.max(np.abs(np.einsum("pa,pa->p", geo.normal, geo.normal) - 1)) < 1e-12
    assert np.max(np.abs(np.einsum("pa,pai->pi", geo.normal, geo.jets.d1))) < 1e-12


@pytest.mark.parametrize("name", ["bumpy-torus3", "sheared-torus4"])
def test_projector_invariants(name):
    patch = catalog.build(name) if name != "sheared-torus4" else catalog.sheared_torus4(
        m1=6, m2=6, m3=6)
    geo = patch.geometry(patch.grid.points[::29])
    p = geo.proj
    assert np.max(np.abs(np.einsum("pij,pjk->pik", p, p) - p)) < 1e-10
    pg = np.einsum("pia,pij->paj", p, geo.g)
    assert np.max(np.abs(pg - np.swapaxes(pg, -1, -2))) < 1e-10


def test_leaf_block_is_pap(sheared4):
    geo = sheared4.geometry(sheared4.grid.points[::41])
    pap = np.einsum("pij,pjk,pkl->pil", geo.proj, geo.shape_op, geo.proj)
    e_inv = np.einsum("pia,pij->paj", geo.frame, geo.g)
    pap_frame = np.einsum("pai,pij,pjb->pab", e_inv, pap, geo.frame)
    s = sheared4.s
    dev = pap_frame.copy()
    dev[:, :s, :s] -= geo.a_leaf
    assert np.max(np.abs(dev)) < 1e-10


def test_hf_hmix_orthogonal_in_coordinates(sheared4):
    # <h_F, h_mix> = 0 with both tensors assembled in coordinates from P
    geo = sheared4.geometry(sheared4.grid.points[::41])
    p, h, gi = geo.proj, geo.h, geo.g_inv
    h_f = np.einsum("pci,pcd,pdj->pij", p, h, p)
    hp = np.einsum("pci,pcj->pij", p, h)
    h_mix = 0.5 * (hp + np.swapaxes(hp, -1, -2)) - h_f
    pair = np.einsum("pik,pjl,pij,pkl->p", gi, gi, h_f, h_mix)
    assert np.max(np.abs(pair)) < 1e-9


def test_second_form_decomposition(sheared4):
    # h = h_F + 2 h_mix + h_Fperp reconstructs h (projector blocks)
    geo = sheared4.geometry(sheared4.grid.points[::41])
    p, h = geo.proj, geo.h
    q = np.broadcast_to(np.eye(sheared4.n), p.shape) - p
    h_f = np.einsum("pci,pcd,pdj->pij", p, h, p)
    hp = np.einsum("pci,pcj->pij", p, h)
    h_mix = 0.5 * (hp + np.swapaxes(hp, -1, -2)) - h_f
    h_perp = np.einsum("pci,pcd,pdj->pij", q, h, q)
    assert np.max(np.abs(h_f + 2 * h_mix + h_perp - h)) < 1e-10


def test_mixed_norm_conventions(sheared4):
    # index-block norm is twice the square norm of the symmetrized tensor
    geo = sheared4.geometry(sheared4.grid.points[::53])
    assert np.allclose(geo.norm_hmix_sym_sq, 0.5 * geo.norm_hmix_sq)


def test_geometry_fields_are_computed_on_first_use(sheared4):
    x = sheared4.grid.points[::41]
    geo = sheared4.geometry(x)
    assert geo.sigma.shape[1] == sheared4.s + 1 and np.all(geo.sqrt_det_g > 0)
    assert not {"dg", "gamma", "proj"} & set(vars(geo))
    # reference: the Christoffel symbols assembled eagerly from the jets
    d1, d2 = geo.jets.d1, geo.jets.d2
    dg = np.einsum("paik,paj->pkij", d2, d1) + np.einsum("pai,pajk->pkij", d1, d2)
    bracket = dg + np.transpose(dg, (0, 2, 1, 3)) - np.transpose(dg, (0, 2, 3, 1))
    gamma = 0.5 * np.einsum("pkl,pijl->pkij", np.linalg.inv(geo.g), bracket)
    assert np.max(np.abs(geo.gamma - gamma)) < 1e-12
    assert "gamma" in vars(geo)


def test_second_form_derivative_needs_third_jets(bumpy3):
    x = bumpy3.grid.points[::13]
    with pytest.raises(DomainError):
        bumpy3.geometry(x).dh
    dh = bumpy3.geometry(x, order=3).dh
    assert dh.shape == (x.shape[0], 2, 2, 2)


def test_singular_immersion_raises():
    import sympy as sp

    x, y = sp.symbols("x y")
    supplier = AnalyticSupplier((x, y), [x, x, 0 * x])  # rank-1 Jacobian
    grid = Grid(axes=(gauss_axis(0, 1, 4), gauss_axis(0, 1, 4)))
    patch = FoliatedPatch(n=2, s=1, supplier=supplier, grid=grid)
    with pytest.raises(SingularImmersionError):
        patch.geometry()


# ---------------------------------------------------------------------------
# LAPACK-free pointwise kernels against the LAPACK computations they replace


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_cofactor_normal_matches_minor_determinants(n):
    d1 = np.random.default_rng(n).standard_normal((40, n + 1, n))
    ref = np.stack([(-1.0) ** (a + n) * np.linalg.det(np.delete(d1, a, axis=1))
                    for a in range(n + 1)], axis=1)
    raw = cofactor_normal(d1)
    assert np.max(np.abs(raw - ref) / np.max(np.abs(ref), axis=1, keepdims=True)) < 1e-14


def _two_cholesky_frame(g, s):
    """The adapted frame from two LAPACK Cholesky factorisations: the leaf
    block from g_FF, the transverse columns from the Gram matrix of the
    g-orthogonal complement of the leaves."""
    n = g.shape[-1]
    frame = np.zeros(g.shape)
    lf = np.linalg.cholesky(g[:, :s, :s])
    frame[:, :s, :s] = np.linalg.inv(np.swapaxes(lf, -1, -2))
    v = np.zeros((g.shape[0], n, n - s))
    v[:, :s] = -np.linalg.solve(g[:, :s, :s], g[:, :s, s:])
    v[:, s:] = np.eye(n - s)
    lv = np.linalg.cholesky(np.swapaxes(v, -1, -2) @ g @ v)
    frame[:, :, s:] = v @ np.linalg.inv(np.swapaxes(lv, -1, -2))
    return frame


@pytest.mark.parametrize("name", ["sheared4", "torus_cyl4"])
def test_cholesky_frame_is_the_two_cholesky_frame(name, request):
    patch = request.getfixturevalue(name)
    assert patch.s < patch.n
    geo = patch.geometry(patch.grid.points[::7])
    g = geo.g
    assert np.max(np.abs(geo.frame - _two_cholesky_frame(g, patch.s))) < 1e-12
    assert np.max(np.abs(geo.g_inv - np.linalg.inv(g))) < 1e-12
    s = patch.s
    assert np.max(np.abs(geo.g_ff_inv - np.linalg.inv(g[:, :s, :s]))) < 1e-12


def test_sigma_recursion_matches_eigenvalues(sheared4, tube4):
    a = np.random.default_rng(3).standard_normal((4, 50, 4, 4))
    cases = [a[s - 1, :, :s, :s] + np.swapaxes(a[s - 1, :, :s, :s], -1, -2)
             for s in (1, 2, 3, 4)]
    cases += [p.geometry(p.grid.points[::5]).a_leaf for p in (sheared4, tube4)]
    for a_f in cases:
        ref = sigma_all(np.linalg.eigvalsh(a_f))
        scale = np.max(np.abs(ref), axis=0)
        assert np.max(np.abs(sigma_of_matrix(a_f) - ref) / scale) < 1e-12


def test_non_positive_definite_metric_raises():
    g = np.tile(np.eye(3), (5, 1, 1))
    g[3, 2, 2] = -1.0  # indefinite
    with pytest.raises(SingularImmersionError):
        cholesky_frame(g)
    g[3] = np.ones((3, 3))  # semidefinite, rank 1
    with pytest.raises(SingularImmersionError):
        cholesky_frame(g)


def test_grid_energy_path_calls_no_lapack(sheared_two_blocks, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK call on the energy path")

    expected = fl.evaluate(fl.w_nps(2), sheared_two_blocks)
    for name in ("det", "inv", "cholesky", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    assert fl.evaluate(fl.w_nps(2), sheared_two_blocks) == expected


def test_point_geometry_node_api(bumpy3):
    geo = point_geometry(bumpy3, (3, 4))
    assert geo.g.shape == (1, 2, 2)
    flat = point_geometry(bumpy3, 7)
    assert flat.normal.shape == (1, 3)


def test_finite_difference_supplier_order():
    # 4th-order stencils: halving h cuts first/second-derivative errors ~16x
    base = catalog.bumpy_torus3(m_leaf=6, m_tube=6)
    fn = lambda x: base.supplier.jets(x, order=0).r
    pts = base.grid.points[::7][:5]
    exact = base.supplier.jets(pts, order=2)
    errs = {}
    for h in (2e-2, 1e-2):
        fd = FiniteDifferenceSupplier(fn, n=2, step=h).jets(pts, order=2)
        errs[h] = (np.max(np.abs(fd.d1 - exact.d1)), np.max(np.abs(fd.d2 - exact.d2)))
    order_d1 = np.log2(errs[2e-2][0] / errs[1e-2][0])
    order_d2 = np.log2(errs[2e-2][1] / errs[1e-2][1])
    assert order_d1 >= 3.9
    assert order_d2 >= 3.9


def test_finite_difference_supplier_third_jets():
    # third derivatives difference the second-derivative output at 2nd order
    base = catalog.bumpy_torus3(m_leaf=6, m_tube=6)
    fn = lambda x: base.supplier.jets(x, order=0).r
    pts = base.grid.points[::9][:4]
    exact = base.supplier.jets(pts, order=3)
    errs = []
    for h in (1e-2, 5e-3):
        fd = FiniteDifferenceSupplier(fn, n=2, step=h).jets(pts, order=3)
        errs.append(np.max(np.abs(fd.d3 - exact.d3)))
    assert errs[1] < 5e-3
    assert errs[0] / errs[1] > 3.5  # ~2nd order


def test_quadrature_weights_total():
    patch = catalog.torus(s=1, m_leaf=24, m_tube=24)
    assert np.isclose(np.sum(patch.grid.weights), (2 * np.pi) ** 2)


# ---------------------------------------------------------------------------
# blocked grid integrals


@pytest.fixture(scope="module")
def sheared_two_blocks(sheared4):
    """sheared_torus4 on a 24^3 grid (two blocks), without recompiling."""
    patch = replace(sheared4, grid=Grid(axes=tuple(
        periodic_axis(0.0, 2 * np.pi, 24) for _ in range(3))))
    assert BLOCK < patch.grid.points.shape[0] <= 2 * BLOCK
    return patch


def test_blocked_evaluate_equals_whole_grid_integral():
    patch = catalog.sphere(n=4, m_polar=16, m_azimuth=32)
    assert patch.grid.points.shape[0] == 16 * BLOCK
    spec = fl.w_nps(4)
    geo = patch.geometry()
    whole = patch.integrate(fl.integrand(spec, geo, patch.n, patch.s), geo)
    assert fl.evaluate(spec, patch) == whole


@pytest.mark.parametrize("spec", [fl.w_conf(2), fl.w_nps(2), fl.j_nps(3)],
                         ids=["W_conf", "W_nps", "J_nps"])
def test_blocked_integrals_equal_whole_grid_integrals(sheared_two_blocks, spec):
    patch = sheared_two_blocks
    u = random_trig_variation(3, np.random.default_rng(5), amplitude=0.4)
    geo = patch.geometry()
    n, s = patch.n, patch.s
    assert fl.evaluate(spec, patch) == patch.integrate(fl.integrand(spec, geo, n, s), geo)
    dens = fl.first_variation_density(spec, geo, n, s, *u.jets(patch.grid.points))
    assert fl.first_variation_analytic(spec, patch, u) == patch.integrate(dens, geo)


def test_error_in_a_later_block_reaches_the_caller(sheared_two_blocks):
    def f(sig):
        if sig.shape[0] not in (4, BLOCK):  # spot-check probes and the first block pass
            raise DomainError(f"late block of {sig.shape[0]} points")
        return sig[:, 0] ** 2

    spec = fl.FunctionalSpec(kind="WF", f=f, f_partials=lambda sig: np.stack(
        [2 * sig[:, 0], np.zeros(sig.shape[0])], axis=1))
    tail = sheared_two_blocks.grid.points.shape[0] - BLOCK
    with pytest.raises(DomainError, match=f"^late block of {tail} points$"):
        fl.evaluate(spec, sheared_two_blocks)


def test_one_block_grid_runs_in_the_calling_thread(sheared4):
    threads = []

    def density(geo):
        threads.append(threading.current_thread())
        return np.ones(geo.x.shape[0])

    volume = sheared4.integral(density)
    assert threads == [threading.current_thread()]
    assert volume == sheared4.integrate(np.ones(sheared4.grid.points.shape[0]),
                                        sheared4.geometry())


def test_integral_inside_a_block_runs_inline(sheared_two_blocks):
    patch = sheared_two_blocks
    volume = patch.integral(lambda geo: np.ones(geo.x.shape[0]))
    nested = patch.integral(lambda geo: np.full(geo.x.shape[0], patch.integral(
        lambda inner: np.ones(inner.x.shape[0]))))
    assert nested == pytest.approx(volume**2, rel=1e-12)


def test_concurrent_integrals_share_the_pool(sheared_two_blocks):
    patch = sheared_two_blocks
    expected = patch.integral(lambda geo: geo.sigma[:, 1])
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=lambda: results.append(
            patch.integral(lambda geo: geo.sigma[:, 1]))) for _ in range(4)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert results == [expected] * 4


def test_volume_projection_integrates_in_one_pass(sheared_two_blocks, monkeypatch):
    patch = sheared_two_blocks
    u = random_trig_variation(3, np.random.default_rng(5), amplitude=0.4)
    moment = patch.integral(lambda geo: u(geo.x))
    volume = patch.integral(lambda geo: np.ones(geo.x.shape[0]))
    calls = []
    geometry = FoliatedPatch.geometry

    def counted(self, *args, **kwargs):
        calls.append(None)
        return geometry(self, *args, **kwargs)

    monkeypatch.setattr(FoliatedPatch, "geometry", counted)
    shifted = fl.project_volume_preserving(patch, u)
    assert len(calls) == 2  # one geometry per block
    x = patch.grid.points[:5]
    assert np.array_equal(shifted(x), u(x) - moment / volume)
