import numpy as np
import pytest

from leafwise import catalog, operators as ops, varcheck as vc
from leafwise.errors import DomainError
from leafwise.operators import Field, leaf_metric_multiple
from leafwise.patch import Grid, periodic_axis


def trig_field(n, seed=0, amplitude=1.0):
    rng = np.random.default_rng(seed)
    ks = rng.integers(-2, 3, size=(3, n))
    cs = amplitude * rng.normal(size=3)
    ph = rng.uniform(0, 2 * np.pi, size=3)

    def fn(x):
        return sum(c * np.cos(x @ k + f) for k, c, f in zip(ks, cs, ph))

    return Field.from_callable(fn, n=n)


def test_leaf_laplacian_constant_is_zero(bumpy3):
    u = Field.from_callable(lambda x: np.full(x.shape[0], 2.5), n=2)
    vals = ops.leaf_laplacian(bumpy3, u, bumpy3.grid.points[::19])
    assert np.max(np.abs(vals)) < 1e-9


def test_leaf_laplacian_unit_circle_harmonic():
    # u = x-coordinate restricted to a unit-circle leaf: Delta_F u = -u
    patch = catalog.cylinder(radius=1.0, m_leaf=12, m_axis=4)
    x = patch.grid.points[::5]
    u = Field.from_callable(lambda p: np.cos(p[:, 0]), n=2)
    vals = ops.leaf_laplacian(patch, u, x)
    assert np.max(np.abs(vals + np.cos(x[:, 0]))) < 1e-10


def test_leaf_laplacian_sphere_eigenfunction(tube4):
    # degree-1 harmonic on S^{n-1}(rho) leaves: Delta_F u = -(n-1) rho^-2 u
    pts = tube4.grid.points
    interior = pts[(pts[:, 0] > 0.7) & (pts[:, 0] < np.pi - 0.7)][::23]
    u = Field.from_callable(lambda p: np.cos(p[:, 0]), n=3)
    vals = ops.leaf_laplacian(tube4, u, interior)
    rho = tube4.meta["r1"] + tube4.meta["r2"] * np.cos(interior[:, 2])
    lam = 2.0  # j(j+n-2) with j=1, n=3
    expect = -lam / rho**2 * np.cos(interior[:, 0])
    assert np.max(np.abs(vals - expect)) < 1e-8


def test_hessians_flat_quadratic():
    patch = catalog.plane()
    x = patch.grid.points[::13]
    u = Field.from_callable(lambda p: 0.5 * (p[:, 0] ** 2 + p[:, 1] ** 2), n=2)
    hess, hess_leaf, hess_mix = ops.hessians(patch, u, x)
    assert np.max(np.abs(hess - np.eye(2))) < 1e-9
    assert np.max(np.abs(hess_leaf - 1.0)) < 1e-9  # leaf block of the identity
    assert np.max(np.abs(hess_mix)) < 1e-9


def test_hessians_constant_zero(bumpy3):
    u = Field.from_callable(lambda x: np.full(x.shape[0], 1.0), n=2)
    hess, hess_leaf, hess_mix = ops.hessians(bumpy3, u, bumpy3.grid.points[::31])
    for t in (hess, hess_leaf, hess_mix):
        assert np.max(np.abs(t)) < 1e-9


def test_trace_of_hessian_is_laplacian(bumpy3):
    x = bumpy3.grid.points[::17]
    u = trig_field(2, seed=4)
    geo = bumpy3.geometry(x)
    _, du, d2u = u.jets(x)
    lhs = np.einsum("pij,pij->p", geo.g_inv, ops.hessian_full(geo, du, d2u))
    rhs = ops.laplacian_full(geo, du, d2u)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_div_projector_revolution_vanishes(torus_rev):
    dp, _ = ops.div_projector(torus_rev, torus_rev.grid.points[::37])
    assert np.max(np.abs(dp)) < 1e-12


def test_div_projector_product_vanishes():
    patch = catalog.product_chart()
    dp, hp = ops.div_projector(patch, patch.grid.points[::11])
    assert np.max(np.abs(dp)) < 1e-12
    assert np.max(np.abs(hp)) < 1e-12


def test_div_projector_sheared_identity(sheared4):
    # (div P)(PX) = -<X, (n-s) Hperp> on a chart with Hperp != 0
    x = sheared4.grid.points[::47]
    geo = sheared4.geometry(x)
    dp, hp = ops.div_projector(sheared4, x, geo)
    assert np.max(np.abs(hp)) > 1e-3  # genuinely non-harmonic
    resid = dp + (sheared4.n - sheared4.s) * np.einsum("pbi,pi->pb", geo.g, hp)
    assert np.max(np.abs(resid)) < 1e-8


def test_fstar_squared_zero_tensor(torus_rev):
    b = Field.from_callable(lambda x: np.zeros((x.shape[0], 1, 1)), n=2, axes=1)
    vals = ops.fstar_squared(torus_rev, b, torus_rev.grid.points[::41])
    assert np.max(np.abs(vals)) < 1e-12


def test_fstar_squared_metric_multiple_reduces_to_laplacian(tube4):
    # B = u g_L  =>  (nabla^{F*})^2 B = Delta_F u (metric is leaf-parallel)
    u = Field.from_callable(
        lambda p: np.sin(p[:, 0]) * np.sin(p[:, 1]) + 0.2 * np.cos(p[:, 0]), n=3)
    b = leaf_metric_multiple(tube4, u)
    pts = tube4.grid.points
    interior = pts[(pts[:, 0] > 0.7) & (pts[:, 0] < np.pi - 0.7)][::31]
    lhs = ops.fstar_squared(tube4, b, interior)
    rhs = ops.leaf_laplacian(tube4, u, interior)
    assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_fstar_squared_weak_identity(torus_rev):
    # int <B, Hess^F u> dV = int u (nabla^{F*})^2 B dV on a harmonic foliation
    def bfun(p):
        w = np.sin(p[:, 0]) + 0.5 * np.cos(p[:, 0] - 2 * p[:, 1])
        return w[:, None, None] * torus_rev.geometry(p).g_ff

    rep = vc.verify_integral_identity("ibp_F", torus_rev, u=trig_field(2, seed=7),
                                      b_leaf=Field.from_callable(bfun, 2, step=1e-3, axes=1))
    assert rep.applicable and rep.discrepancy < 1e-8


def test_green_formula_leafwise(torus_rev):
    # int f1 Delta_F f2 dV = -int <grad_F f1, grad_F f2> dV
    rep = vc.verify_integral_identity("green_F", torus_rev, f1=trig_field(2, seed=1),
                                      f2=trig_field(2, seed=2))
    assert rep.applicable and rep.discrepancy < 1e-9


def test_laplacian_symmetry_leafwise(torus_rev):
    rep = vc.verify_integral_identity("symm_F", torus_rev, f1=trig_field(2, seed=5),
                                      f2=trig_field(2, seed=6))
    assert rep.applicable and rep.discrepancy < 1e-9


def test_adjoint_gradient_pairing(torus_rev):
    omega = Field.from_callable(
        lambda p: (np.sin(p[:, 0]) + 0.2 * np.cos(p[:, 1]))[:, None], n=2, axes=1)
    rep = vc.verify_integral_identity("adjoint_F", torus_rev, f1=trig_field(2, seed=8),
                                      omega=omega)
    assert rep.applicable and rep.discrepancy < 1e-9


def test_full_ibp_on_closed_surface():
    patch = catalog.torus(s=2, m_leaf=32, m_tube=32)

    def bfull(p):
        w = np.cos(p[:, 0] - p[:, 1])
        return w[:, None, None] * patch.geometry(p).g

    rep = vc.verify_integral_identity("ibp_full", patch, u=trig_field(2, seed=9),
                                      b_full=Field.from_callable(bfull, 2, step=1e-3))
    assert rep.discrepancy < 1e-8


def test_scalar_fields_refuse_points_that_are_not_finite_n_columns():
    # a 3-column point on a 2-dimensional chart, and a NaN point, are refused
    # by every way into a scalar field, stencil jets or jets given directly
    grid = Grid(axes=(periodic_axis(0, 2 * np.pi, 8), periodic_axis(0, 2 * np.pi, 8)))
    cos = lambda x: np.cos(x[:, 0])
    fields = [Field.from_callable(cos, n=2),
              Field(lambda x: (cos(x), np.zeros((len(x), 2)), np.zeros((len(x), 2, 2))), 2, cos)]
    for field in fields:
        for bad in ([[0.1, 0.2, 0.3]], [[np.nan, 0.2]], [0.0, np.inf]):
            with pytest.raises(DomainError, match="finite"):
                field.jets(bad)
            with pytest.raises(DomainError, match="finite"):
                field(bad)
        assert field(grid.points[9]).shape == (1,)  # one point as a vector


def test_derivative_axis_count_must_be_an_integer_in_one_to_n():
    # refused when the field is built: unchecked, axes=5 on n = 3 fails as an
    # IndexError at the first jets call, and axes=0 gives (k, 0) derivatives
    fn = lambda x: np.cos(x[:, 0])
    for bad in (5, 4, 0, -1, 2.0, True, "2"):
        with pytest.raises(DomainError, match="derivative axis count"):
            Field.from_callable(fn, n=3, axes=bad)
    for axes in (1, np.int64(2), 3):
        assert Field.from_callable(fn, n=3, axes=axes).jets([0.1, 0.2, 0.3])[1].shape == (1, axes)


def test_tensor_fields_refuse_points_that_are_not_finite_arrays(torus_rev):
    # every tensor field checks its n columns as a scalar field does, the
    # leafwise ones too: a 3-column point on a 2-dimensional chart is refused
    u = Field.from_callable(lambda x: np.cos(x[:, 0]), n=2)
    fields = [Field.from_callable(lambda x: np.zeros((len(x), 2, 2)), n=2),
              Field.from_callable(lambda x: np.zeros((len(x), 1, 1)), n=2, axes=1),
              Field.from_callable(lambda x: np.zeros((len(x), 1)), n=2, axes=1),
              leaf_metric_multiple(torus_rev, u)]
    bads = ([[np.nan, 0.2]], [0.0, np.inf], np.zeros((1, 1, 2)), np.zeros((0, 2)),
            [[0.1, 0.2, 0.3]])
    for field in fields:
        for bad in bads:
            with pytest.raises(DomainError, match="finite"):
                field.jets(bad)
            with pytest.raises(DomainError, match="finite"):
                field(bad)
        assert field([0.1, 2.0]).shape[0] == 1  # one point as a vector
    # jets run over the first `axes` coordinates; 1-forms get 2-jets too
    assert [f.jets([0.1, 2.0])[2].shape for f in fields] == [
        (1, 2, 2, 2, 2), (1, 1, 1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1, 1)]


def test_one_field_class_broadcasts_its_values_over_the_points():
    # the former per-kind names are the one class
    assert ops.ScalarField is ops.LeafTensorField is ops.FullTensorField is ops.Field
    assert ops.LeafOneFormField is ops.Field
    x = np.zeros((3, 2))
    assert Field.from_callable(lambda x: 2.5, n=2)(x).shape == (3,)
    constant = Field.from_callable(lambda x: np.eye(2)[None], n=2)
    assert constant(x).shape == (3, 2, 2)
    f0, df, d2f = constant.jets(x)
    assert np.array_equal(f0, np.broadcast_to(np.eye(2), (3, 2, 2)))
    assert d2f.shape == (3, 2, 2, 2, 2) and max(np.max(np.abs(df)), np.max(np.abs(d2f))) < 1e-10
