"""The shared 4th-order stencil engine: exactness on low-degree polynomials,
the number of field samples it takes, and steps that are not finite and
> 0 refused wherever a stencil is built."""

import numpy as np
import numpy.polynomial.polynomial as P
import pytest

from leafwise import catalog, functionals as fl
from leafwise.errors import DomainError
from leafwise.operators import Field
from leafwise.suppliers import FiniteDifferenceSupplier, callable_jets, stencil_jets

# degree <= 4 in each of three variables: the 5-point first- and
# second-derivative stencils and their tensor products are exact on it
COEFS = np.random.default_rng(3).normal(size=(5, 5, 5))


def poly(x, coefs=COEFS):
    return P.polyval3d(x[:, 0], x[:, 1], x[:, 2], coefs)


def exact_jets(x):
    def derived(*axes):
        c = COEFS
        for axis in axes:
            c = P.polyder(c, axis=axis)
        return poly(x, c)

    du = np.stack([derived(i) for i in range(3)], axis=1)
    d2u = np.stack([np.stack([derived(i, j) for j in range(3)], axis=1)
                    for i in range(3)], axis=1)
    return poly(x), du, d2u


def assert_exact(jets, x):
    for got, want in zip(jets, exact_jets(x)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-9 * max(1.0, np.max(np.abs(want)))


def test_callable_sampler_is_exact_on_quartics():
    x = np.random.default_rng(4).uniform(-1.0, 1.0, size=(9, 3))
    assert_exact(callable_jets(poly, x, (0.1, 0.05, 0.2)), x)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("order", [1, 2])
def test_each_distinct_shift_is_sampled_once(dim, order):
    shifts = []

    def sample(shift):
        shifts.append(shift)
        return np.zeros((2, 3))

    f, *derivs = stencil_jets(sample, (0.1,) * dim, order=order)
    expected = 1 + 4 * dim + (8 * dim * (dim - 1) if order == 2 else 0)
    assert len(shifts) == len(set(shifts)) == expected
    assert shifts[0] == ()
    assert [d.shape for d in derivs] == [(2,) + (dim,) * k + (3,)
                                         for k in range(1, order + 1)]


def test_callable_scalar_field_calls_once_per_shift():
    calls = []

    def fn(x):
        calls.append(x.shape[0])
        return np.sin(x).sum(axis=1)

    Field.from_callable(fn, n=3).jets(np.zeros((5, 3)))
    assert calls == [5] * (1 + 4 * 3 + 8 * 3 * 2)


BAD_STEPS = [0.0, -1e-3, np.nan, np.inf, (1e-3, 0.0, 1e-3)]


@pytest.mark.parametrize("step", BAD_STEPS, ids=["zero", "negative", "nan", "inf", "one-zero"])
def test_stencils_refuse_steps_that_are_not_finite_and_positive(step):
    with pytest.raises(DomainError, match="stencil steps"):
        Field.from_callable(lambda x: np.sin(x).sum(axis=1), n=3, step=step)
    with pytest.raises(DomainError, match="stencil steps"):
        FiniteDifferenceSupplier(lambda x: np.concatenate([x, x[:, :1]], axis=1), n=3, step=step)


def test_el_residual_refuses_a_zero_stencil_step():
    with pytest.raises(DomainError, match="stencil steps"):
        fl.el_residual(fl.w_nps(3), catalog.tube4(6, 8, 8), fd_step=0.0)
