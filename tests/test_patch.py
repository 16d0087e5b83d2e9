import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from leafwise import catalog, functionals as fl, varcheck as vc
from leafwise.errors import DomainError, SingularImmersionError
from leafwise.patch import FoliatedPatch, Grid, PointGeometry, gauss_axis, lazy, periodic_axis
from leafwise.suppliers import (AnalyticSupplier, FiniteDifferenceSupplier, InvertedImmersion,
                                Jets, cholesky_frame, cofactor_normal, normal_jets)
from leafwise.symfunc import sigma_all, sigma_from_traces
from leafwise.variation import random_trig_variation


def test_unit_sphere_round():
    # inward orientation: shape operator is the identity, H = 1, |h|^2 = n
    for n in (2, 3):
        patch = catalog.sphere(n=n, m_polar=8, m_azimuth=10)
        geo = patch.geometry(patch.grid.points[::11])
        assert np.max(np.abs(geo.shape_op - np.eye(n))) < 1e-12
        assert np.max(np.abs(geo.mean_curvature - 1.0)) < 1e-12
        assert np.max(np.abs(geo.norm_h_sq - n)) < 1e-12


def test_normal_orientation_must_be_a_sign():
    # an orientation of -0.5 scaled the normal and read W_nps(2) of the unit
    # sphere as pi; both signs give 4 pi
    sphere = catalog.sphere(m_polar=8, m_azimuth=16)
    for sign in (1.0, -1):
        flipped = replace(sphere, normal_orientation=sign)
        assert abs(fl.evaluate(fl.w_nps(2), flipped) - 4 * np.pi) < 1e-10
    for bad in (-0.5, 0.0, 2.0, np.nan):
        with pytest.raises(DomainError, match="normal_orientation must be"):
            replace(sphere, normal_orientation=bad)


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
    assert np.max(np.abs(np.einsum("pa,pia->pi", geo.normal, geo.jets.d1))) < 1e-12


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


def test_geometry_fields_are_computed_on_first_use(sheared4):
    x = sheared4.grid.points[::41]
    geo = sheared4.geometry(x)
    assert geo.sigma.shape[1] == sheared4.s + 1 and np.all(geo.sqrt_det_g > 0)
    assert not {"dg", "gamma", "proj"} & set(vars(geo))
    # reference: the Christoffel symbols assembled eagerly from the jets
    d1, d2 = geo.jets.d1, geo.jets.d2
    dg = np.einsum("pkia,pja->pkij", d2, d1) + np.einsum("pia,pkja->pkij", d1, d2)
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
    d1 = np.random.default_rng(n).standard_normal((40, n, n + 1))
    ref = np.stack([(-1.0) ** (a + n) * np.linalg.det(np.delete(d1, a, axis=2))
                    for a in range(n + 1)], axis=1)
    raw = cofactor_normal(np.moveaxis(d1, 0, -1))
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


@pytest.fixture(scope="module")
def sphere4():
    return catalog.sphere(n=4, m_polar=6, m_azimuth=8)


class _Fixed:
    """Supplier of the same jets at any points."""

    def __init__(self, jets):
        self.fixed = jets

    def jets(self, x, order=2):
        return self.fixed


def _relaid(jets, points_last):
    """The same jets as C-contiguous point-first copies, or as point-first
    views of C-contiguous point-last copies."""
    def lay(a):
        if a is None:
            return None
        if points_last:
            return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 0, -1)), -1, 0)
        return np.ascontiguousarray(a)
    return Jets(*(lay(a) for a in (jets.r, jets.d1, jets.d2, jets.d3)))


@pytest.mark.parametrize("name", ["sphere4", "sheared4", "finite-difference"])
def test_normal_jets_and_geometry_do_not_depend_on_the_jet_layout(name, request):
    if name == "finite-difference":
        patch = catalog.sphere(n=4, m_polar=6, m_azimuth=8)
        base = patch.supplier
        supplier = FiniteDifferenceSupplier(lambda x: base.jets(x, order=0).r, n=4)
        patch = replace(patch, supplier=supplier)
    else:
        patch = request.getfixturevalue(name)
    x = patch.grid.points[::5]
    jets = patch.supplier.jets(x, order=3)
    first = normal_jets(_relaid(jets, points_last=False), -1.0)
    last = normal_jets(_relaid(jets, points_last=True), -1.0)
    for a, b in zip(first, last):
        assert np.array_equal(a, b)
    for out in (first, last):
        assert all(a.flags.c_contiguous for a in out[1:4])  # g, h, frame
    # every array field of the geometry, stored or lazy, is bit-identical
    fields = [name for name, v in vars(PointGeometry).items()
              if isinstance(v, lazy) and name != "contiguous_jets"]
    geos = [patch.geometry_from_jets(x, _relaid(jets, points_last=last))
            for last in (False, True)]
    for field in ["normal", "g", "h", "frame", "sqrt_det_g"] + fields:
        a, b = (getattr(geo, field) for geo in geos)
        assert a.tobytes() == b.tobytes()
    # and so are the jets of a supplier built on them
    inverted = [InvertedImmersion(_Fixed(_relaid(jets, points_last=last))).jets(x)
                for last in (False, True)]
    for field in ("r", "d1", "d2"):
        a, b = (getattr(j, field) for j in inverted)
        assert a.tobytes() == b.tobytes()


_WF_OF_HF = fl.FunctionalSpec(kind="WF_of_HF", f=lambda h: h**2 + h)


@pytest.mark.parametrize("name, spec", [("sheared4", fl.w_conf(2)), ("sheared4", fl.j_nps(3)),
                                        ("sphere4", fl.w_nps(4)), ("sheared4", _WF_OF_HF)],
                         ids=["W_conf-sheared4", "J_nps-sheared4", "W_nps-sphere4",
                              "WF_of_HF-sheared4"])
def test_energy_integrand_leaves_weingarten_fields_unbuilt(name, spec, request):
    patch = request.getfixturevalue(name)
    geo = patch.geometry(patch.grid.points[::7])
    fl.integrand(spec, geo, patch.n, patch.s)
    assert not {"g_inv", "shape_op", "dn"} & set(vars(geo))
    if spec.kind in ("W_nps", "WF_of_HF"):
        # F(H_F) reads sigma_1 = tr A_F alone: no frame sandwich, no leaf power
        assert "a_frame" not in vars(geo)
        assert geo._leaf_powers == ()


@pytest.mark.parametrize("name", ["sheared4", "sphere4", "tube4", "torus_rev"])
def test_spectrum_to_top_is_a_prefix_of_the_full_spectrum(name, request):
    patch = request.getfixturevalue(name)
    x = patch.grid.points[::7]
    full = patch.geometry(x)
    for family, top in (("sigma", patch.s), ("tau", patch.s + 2)):
        whole = getattr(full, family)
        assert whole.shape == (x.shape[0], top + 1)
        for k in range(top + 1):
            assert np.array_equal(patch.geometry(x).spectrum(family, k), whole[:, : k + 1])
    # tau_1 = <g_FF^-1, h_FF> is the trace of the frame-sandwiched leaf block
    tau1, a_trace = full.tau[:, 1], np.trace(full.a_leaf, axis1=-2, axis2=-1)
    assert np.max(np.abs(tau1 - a_trace)) <= 1e-13 * np.max(np.abs(a_trace))
    assert np.array_equal(full.h_f_mean, full.sigma[:, 1] / patch.s)
    if name == "sheared4":
        assert np.max(full.norm_hmix_sq) > 1e-3  # the mixed block is not zero
    if name == "torus_rev":
        assert patch.s == 1


@pytest.mark.parametrize("name", ["sheared4", "sphere4"])
def test_lazy_weingarten_fields_match_lapack_and_finite_differences(name, request):
    patch = request.getfixturevalue(name)
    x = patch.grid.points[::7]
    geo = patch.geometry(x)
    g_inv = np.linalg.inv(geo.g)
    # sphere4's polar nodes make g nearly singular, so the bounds are relative
    assert np.max(np.abs(geo.g_inv - g_inv)) < 1e-12 * np.max(np.abs(g_inv))
    a_op = g_inv @ geo.h
    assert np.max(np.abs(geo.shape_op - a_op)) < 1e-12 * np.max(np.abs(a_op))
    # dn[:, i] and d2n[:, i] against a 4th-order central difference along
    # axis i of the normal and of dn
    step, geo = 1e-3, patch.geometry(x, order=3)
    for field, of in (("dn", "normal"), ("d2n", "dn")):
        for i in range(patch.n):
            def at(k):
                return getattr(patch.geometry(x + k * step * np.eye(patch.n)[i], order=3), of)

            fd = (8.0 * (at(1) - at(-1)) - (at(2) - at(-2))) / (12 * step)
            assert np.max(np.abs(getattr(geo, field)[:, i] - fd)) < 1e-7, (field, i)


def test_sigma_recursion_matches_eigenvalues(sheared4, tube4):
    a = np.random.default_rng(3).standard_normal((4, 50, 4, 4))
    cases = []
    for s in (1, 2, 3, 4):
        a_f = a[s - 1, :, :s, :s] + np.swapaxes(a[s - 1, :, :s, :s], -1, -2)
        traces = [np.trace(np.linalg.matrix_power(a_f, j), axis1=-2, axis2=-1)
                  for j in range(s + 1)]
        cases.append((a_f, sigma_from_traces(np.stack(traces, axis=-1))))
    for p in (sheared4, tube4):
        geo = p.geometry(p.grid.points[::5])
        cases.append((geo.a_leaf, geo.sigma))
    for a_f, sigma in cases:
        ref = sigma_all(np.linalg.eigvalsh(a_f))
        scale = np.max(np.abs(ref), axis=0)
        assert np.max(np.abs(sigma - ref) / scale) < 1e-12


def test_leaf_powers_are_built_once(sheared4, tube4):
    for p in (sheared4, tube4):
        geo = p.geometry(p.grid.points[::7])
        tau = geo.tau
        for j in range(p.s + 3):
            assert geo.leaf_power(j) is geo.leaf_power(j)
            np.testing.assert_allclose(geo.leaf_power(j),
                                       np.linalg.matrix_power(geo.a_leaf, j), atol=1e-12)
            np.testing.assert_allclose(tau[:, j], np.trace(geo.leaf_power(j), axis1=-2,
                                                           axis2=-1), rtol=0, atol=0)


def test_axis_node_counts_and_sphere_dimension_are_checked():
    for make, least in ((periodic_axis, 1), (gauss_axis, 1)):
        assert make(0.0, 1.0, np.int64(least)).nodes.shape == (least,)
        for m in (least - 1, -3, 2.5, True, None):
            with pytest.raises(DomainError):
                make(0.0, 1.0, m)
    for n in (0, 1.5, True):
        with pytest.raises(DomainError):
            catalog.sphere(n=n)


def test_non_positive_definite_metric_raises():
    g = np.tile(np.eye(3), (5, 1, 1))
    g[3, 2, 2] = -1.0  # indefinite
    with pytest.raises(SingularImmersionError):
        cholesky_frame(np.moveaxis(g, 0, -1))
    g[3] = np.ones((3, 3))  # semidefinite, rank 1
    with pytest.raises(SingularImmersionError):
        cholesky_frame(np.moveaxis(g, 0, -1))


def test_grid_energy_path_calls_no_lapack(sheared_two_blocks, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK call on the energy path")

    expected = fl.evaluate(fl.w_nps(2), sheared_two_blocks)
    for name in ("det", "inv", "cholesky", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    assert fl.evaluate(fl.w_nps(2), sheared_two_blocks) == expected


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
    """sheared_torus4 on a 25^3 grid (two blocks), without recompiling."""
    patch = replace(sheared4, grid=Grid(axes=tuple(
        periodic_axis(0.0, 2 * np.pi, 25) for _ in range(3))))
    assert patch.block_size < patch.grid.points.shape[0] <= 2 * patch.block_size
    return patch


def whole_grid_sum(patch, geo, density):
    """The quadrature sum over the whole grid at once, with the whole-grid
    geometry ``geo``, that a blocked integral must equal bit for bit."""
    return float(np.sum(patch.grid.weights * geo.sqrt_det_g * density))


def test_blocked_evaluate_equals_whole_grid_integral():
    patch = catalog.sphere(n=4, m_polar=16, m_azimuth=32)
    assert patch.grid.points.shape[0] == 16 * patch.block_size
    spec = fl.w_nps(4)
    geo = patch.geometry()
    whole = whole_grid_sum(patch, geo, fl.integrand(spec, geo, patch.n, patch.s))
    assert fl.evaluate(spec, patch) == whole


def test_blocked_n2_evaluate_equals_whole_grid_integral():
    patch = catalog.torus_revolution(m_leaf=192, m_profile=192)
    assert patch.block_size < patch.grid.points.shape[0] <= 2 * patch.block_size
    spec = fl.w_nps(2)
    geo = patch.geometry()
    whole = whole_grid_sum(patch, geo, fl.integrand(spec, geo, patch.n, patch.s))
    assert fl.evaluate(spec, patch) == whole


@pytest.mark.parametrize(("build", "sizes"), [
    (lambda: catalog.sphere(n=4, m_polar=16, m_azimuth=32), [8192] * 16),
    (lambda: catalog.torus_revolution(m_leaf=512, m_profile=512), [32768] * 8),
    (lambda: catalog.sheared_torus4(m1=25, m2=25, m3=25), [25**3 - 14563, 14563]),
], ids=["sphere4", "torus512", "sheared25"])
def test_blocks_hold_as_many_metric_entries_whatever_n(build, sizes):
    # 2**17 // n**2 points per block: the grid-energy sphere keeps its 16
    # blocks, and its 512 x 512 torus runs in 8
    patch = build()
    assert patch.block_size == sizes[-1]
    seen = []
    patch.integrate(lambda geo: seen.append(geo.x.shape[0]) or np.ones(geo.x.shape[0]))
    assert sorted(seen) == sizes


@pytest.mark.parametrize("spec", [fl.w_conf(2), fl.w_nps(2), fl.j_nps(3)],
                         ids=["W_conf", "W_nps", "J_nps"])
def test_blocked_integrals_equal_whole_grid_integrals(sheared_two_blocks, spec):
    patch = sheared_two_blocks
    u = random_trig_variation(3, np.random.default_rng(5), amplitude=0.4)
    geo = patch.geometry()
    n, s = patch.n, patch.s
    assert fl.evaluate(spec, patch) == whole_grid_sum(patch, geo, fl.integrand(spec, geo, n, s))
    dens = fl.first_variation_density(spec, geo, n, s, *u.jets(patch.grid.points))
    assert fl.first_variation_analytic(spec, patch, u) == whole_grid_sum(patch, geo, dens)


def test_blocked_identities_equal_whole_grid_sums():
    # both sides of each identity, integrated as one stack in blocks
    patch = catalog.torus_revolution(m_leaf=192, m_profile=192)
    assert patch.block_size < patch.grid.points.shape[0] <= 2 * patch.block_size
    fields = vc.identity_fields(patch)
    geo = patch.geometry(order=3)
    for identity, sides in vc.INTEGRAL_IDENTITIES.items():
        rep = vc.verify_integral_identity(identity, patch, **fields)
        lhs, rhs = sides(patch, geo, geo.x, **fields)
        assert (rep.lhs, rep.rhs) == (whole_grid_sum(patch, geo, lhs),
                                      whole_grid_sum(patch, geo, rhs)), identity


def test_error_in_a_later_block_reaches_the_caller(sheared_two_blocks):
    size = sheared_two_blocks.block_size

    def f(sig):
        if sig.shape[0] not in (4, size):  # analyticity probes and the first block pass
            raise DomainError(f"late block of {sig.shape[0]} points")
        return sig[:, 0] ** 2

    spec = fl.FunctionalSpec(kind="WF", f=f)
    tail = sheared_two_blocks.grid.points.shape[0] - size
    with pytest.raises(DomainError, match=f"^late block of {tail} points$"):
        fl.evaluate(spec, sheared_two_blocks)


def test_one_block_grid_runs_in_the_calling_thread(sheared4):
    threads = []

    def density(geo):
        threads.append(threading.current_thread())
        return np.ones(geo.x.shape[0])

    volume = sheared4.integrate(density)
    assert threads == [threading.current_thread()]
    assert volume == whole_grid_sum(sheared4, sheared4.geometry(),
                                    np.ones(sheared4.grid.points.shape[0]))


def test_integral_inside_a_block_runs_inline(sheared_two_blocks):
    patch = sheared_two_blocks
    volume = patch.integrate(lambda geo: np.ones(geo.x.shape[0]))
    nested = patch.integrate(lambda geo: np.full(geo.x.shape[0], patch.integrate(
        lambda inner: np.ones(inner.x.shape[0]))))
    assert nested == pytest.approx(volume**2, rel=1e-12)


def test_concurrent_integrals_share_the_pool(sheared_two_blocks):
    patch = sheared_two_blocks
    expected = patch.integrate(lambda geo: geo.sigma[:, 1])
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=lambda: results.append(
            patch.integrate(lambda geo: geo.sigma[:, 1]))) for _ in range(4)]
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
    moment = patch.integrate(lambda geo: u(geo.x))
    volume = patch.integrate(lambda geo: np.ones(geo.x.shape[0]))
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


def test_lazy_fields_of_two_instances_fill_at_once():
    # each fill waits for the other: a lock shared by all instances of the
    # class (functools.cached_property on Python 3.11) breaks the barrier
    barrier = threading.Barrier(2, timeout=5)

    class Probe:
        @type(PointGeometry.__dict__["g_inv"])
        def field(self):
            barrier.wait()
            return id(self)

    probes, errors = [Probe(), Probe()], []

    def fill(probe):
        try:
            probe.field
        except threading.BrokenBarrierError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=fill, args=(probe,)) for probe in probes]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert [vars(probe) for probe in probes] == [{"field": id(probe)} for probe in probes]
