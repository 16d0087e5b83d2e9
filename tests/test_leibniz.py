"""Jets of pointwise products: ``suppliers.leibniz`` at orders 0-3 against
the sympy derivatives of closed-form products, with and without a
contraction, and the Möbius inversion's jets to order 3 against an analytic
supplier of the inverted expressions."""

import itertools

import numpy as np
import pytest
import sympy as sp

from leafwise import catalog
from leafwise.suppliers import AnalyticSupplier, InvertedImmersion, leibniz

X = sp.symbols("x0 x1 x2")
POINTS = np.random.default_rng(5).uniform(-1.5, 1.5, size=(7, 3))


def sympy_jets(expr, order):
    """(value, first, ..., order-th derivatives) of a sympy array at POINTS,
    the derivative axes right after the point axis."""
    expr = sp.Array(expr)
    jets = []
    for k in range(order + 1):
        jet = np.empty((POINTS.shape[0],) + (3,) * k + expr.shape)
        for idx in itertools.product(range(3), repeat=k):
            for entry in itertools.product(*map(range, expr.shape)):
                d = sp.diff(expr[entry], *(X[i] for i in idx)) if k else expr[entry]
                jet[(slice(None),) + idx + entry] = sp.lambdify(X, d, "numpy")(*POINTS.T)
        jets.append(jet)
    return jets


TRIG = sp.sin(X[0]) * sp.cos(X[1] - 2 * X[2])
POLY = [X[0] ** 2 * X[1] + X[2], X[1] * X[2] ** 3 - 1, 1 + X[0] * X[2]]
MATRIX = [[TRIG, sp.cos(X[2])], [sp.exp(X[1]) * sp.sin(X[0] + X[2]), 2 * TRIG]]


@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("subscripts, a, b, product", [
    (",i->i", TRIG, POLY, [TRIG * p for p in POLY]),
    ("ij,j->i", MATRIX, POLY[:2],
     [sum(MATRIX[i][j] * POLY[j] for j in range(2)) for i in range(2)]),
], ids=["scalar-times-vector", "matrix-times-vector"])
def test_leibniz_equals_the_derivatives_of_the_product(subscripts, a, b, product, order):
    got = leibniz(subscripts, sympy_jets(a, order), sympy_jets(b, order), order)
    expected = sympy_jets(product, order)
    assert len(got) == order + 1
    for g, e in zip(got, expected):
        assert g.shape == e.shape
        np.testing.assert_allclose(g, e, rtol=1e-13, atol=1e-13 * np.max(np.abs(e)))


def test_inverted_jets_to_order_three_equal_the_inverted_expressions():
    # the expressions of catalog.bumpy_torus4(eps=0.03)
    eps = 0.03
    rr = 0.55 * (1 + eps * sp.cos(X[0] + 2 * X[1] - X[2]))
    w2 = 1.3 * (1 + 0.7 * eps * sp.sin(2 * X[0] - X[2])) + rr * sp.cos(X[2])
    w1 = sp.Float(3.0) + w2 * sp.cos(X[1])
    exprs = [w1 * sp.cos(X[0]), w1 * sp.sin(X[0]), w2 * sp.sin(X[1]), rr * sp.sin(X[2])]
    patch = catalog.bumpy_torus4(eps=eps, m1=6, m2=6, m3=6)
    x = patch.grid.points
    assert np.array_equal(AnalyticSupplier(X, exprs).jets(x, order=0).r,
                          patch.supplier.jets(x, order=0).r)
    w = sum(e**2 for e in exprs)
    expected = AnalyticSupplier(X, [e / w for e in exprs]).jets(x, order=3)
    got = InvertedImmersion(patch.supplier).jets(x, order=3)
    for field in ("r", "d1", "d2", "d3"):
        g, e = getattr(got, field), getattr(expected, field)
        assert g.shape == e.shape
        assert np.max(np.abs(g - e)) < 1e-13 * np.max(np.abs(e))
    assert InvertedImmersion(patch.supplier).jets(x).d3 is None
