from math import comb

import numpy as np
import pytest

from leafwise.errors import DomainError
from leafwise.symfunc import (
    newton_weights,
    q_r_from_sigma,
    sigma_all,
    sigma_from_traces,
)
from leafwise.variation import COMPLEX_STEP

RNG = np.random.default_rng(20240811)


def random_symmetric(batch, s):
    m = RNG.normal(size=(batch, s, s))
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def traces_of_powers(a, max_j):
    """tau_1..tau_max_j = tr A^j along the last axis, for a batch of matrices."""
    out, power = [], np.broadcast_to(np.eye(a.shape[-1]), a.shape)
    for _ in range(max_j):
        power = power @ a
        out.append(np.trace(power, axis1=-2, axis2=-1))
    return np.stack(out, axis=-1)


def sigma_of(a):
    """sigma_0..sigma_s of a batch of matrices through ``sigma_from_traces``."""
    s = a.shape[-1]
    return sigma_from_traces(np.concatenate(
        [np.full(a.shape[:-2] + (1,), float(s)), traces_of_powers(a, s)], axis=-1))


def weight(a, family, q, k):
    """W_k = sum_j c_j A^j from the coefficients of ``newton_weights``, with
    the powers A^j built here."""
    c = newton_weights(family, q, k)
    power = np.broadcast_to(np.eye(a.shape[-1]), a.shape)
    acc = c[..., 0, None, None] * power
    for j in range(1, k):
        power = power @ a
        acc = acc + c[..., j, None, None] * power
    return acc


def eigenbasis_newton(a, r):
    """T_r = Q diag(sigma_r(lambda without lambda_i)) Q^T from the eigenbasis."""
    lam, vec = np.linalg.eigh(a)
    s = a.shape[-1]
    diag = np.stack([sigma_all(np.delete(lam, i, axis=-1))[..., r] if r < s
                     else np.zeros(lam.shape[:-1]) for i in range(s)], axis=-1)
    return (vec * diag[..., None, :]) @ np.swapaxes(vec, -1, -2)


def test_sigma_zero_spectrum():
    for sig in (sigma_all(np.zeros((2, 4))), sigma_of(np.zeros((2, 4, 4)))):
        assert np.array_equal(sig, np.tile([1.0, 0.0, 0.0, 0.0, 0.0], (2, 1)))


def test_sigma_123_hand_expansion():
    # (1+t)(1+2t)(1+3t) = 1 + 6t + 11t^2 + 6t^3
    eigs = np.array([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0]])
    for sig in (sigma_all(eigs), sigma_of(eigs[:, :, None] * np.eye(3))):
        np.testing.assert_allclose(sig, np.tile([1.0, 6.0, 11.0, 6.0], (2, 1)),
                                   rtol=0, atol=1e-14)


def test_two_sigma2_equals_tau1_sq_minus_tau2():
    c = np.array([0.7, -1.3, 2.0])
    a = c[:, None, None] * np.eye(2)
    for sig in (sigma_all(np.stack([c, c], axis=-1)), sigma_of(a)):
        tau = traces_of_powers(a, 2)
        np.testing.assert_allclose(tau, np.stack([2 * c, 2 * c * c], axis=-1))
        np.testing.assert_allclose(2 * sig[:, 2], tau[:, 0] ** 2 - tau[:, 1])


def test_two_sigma2_identity_random_spectra():
    for s in range(2, 7):
        eigs = RNG.normal(size=(6, s))
        tau = np.stack([np.sum(eigs, axis=-1), np.sum(eigs**2, axis=-1)], axis=-1)
        sig = sigma_all(eigs)
        np.testing.assert_allclose(2 * sig[:, 2], tau[:, 0] ** 2 - tau[:, 1],
                                   rtol=0, atol=1e-12)
        a = random_symmetric(6, s)
        tau = traces_of_powers(a, 2)
        sig = sigma_of(a)
        np.testing.assert_allclose(2 * sig[:, 2], tau[:, 0] ** 2 - tau[:, 1],
                                   rtol=0, atol=1e-12)


def test_newton_identities_reconstruct_sigma():
    # k sigma_k = sum_{j=1..k} (-1)^(j-1) sigma_{k-j} tau_j, for eigenvalue
    # power sums and for matrix traces tr A^j; sigma_from_traces inverts it
    # and agrees with sigma from the eigenvalues
    for s in range(1, 7):
        eigs = RNG.normal(size=(5, s))
        tau_eigs = np.stack([np.sum(eigs**j, axis=-1) for j in range(1, s + 1)], axis=-1)
        a = random_symmetric(5, s)
        for sigma, tau in ((sigma_all(eigs), tau_eigs),
                           (sigma_of(a), traces_of_powers(a, s))):
            for k in range(1, s + 1):
                rhs = sum((-1) ** (j - 1) * sigma[:, k - j] * tau[:, j - 1]
                          for j in range(1, k + 1))
                np.testing.assert_allclose(k * sigma[:, k], rhs, rtol=0, atol=1e-12)
        for ref, tau in ((sigma_all(eigs), tau_eigs),
                         (sigma_all(np.linalg.eigvalsh(a)), traces_of_powers(a, s))):
            got = sigma_from_traces(np.concatenate([np.full((5, 1), float(s)), tau], axis=-1))
            scale = np.max(np.abs(ref), axis=0)
            assert np.max(np.abs(got - ref) / scale) < 1e-12


def test_newton_transform_order_zero_is_identity():
    a = random_symmetric(4, 3)
    np.testing.assert_allclose(weight(a, "sigma", sigma_of(a), 1),
                               np.tile(np.eye(3), (4, 1, 1)))


def test_newton_transform_order_one_diag():
    a = np.diag([1.0, 2.0])[None]
    np.testing.assert_allclose(weight(a, "sigma", sigma_of(a), 2),
                               np.diag([2.0, 1.0])[None])


def test_newton_transform_top_order_vanishes():
    for s in (2, 3, 5):
        a = random_symmetric(4, s)
        assert np.max(np.abs(weight(a, "sigma", sigma_of(a), s + 1))) < 1e-10


def test_newton_transform_matches_induction():
    # W_{r+1} = T_r against the induction T_r = sigma_r id - A T_{r-1} and the
    # eigenbasis form Q diag(sigma_r(lambda without lambda_i)) Q^T
    for s in (2, 3, 4, 5):
        a = random_symmetric(4, s)
        sigma = sigma_of(a)
        t_r = np.broadcast_to(np.eye(s), a.shape)
        for r in range(s + 1):
            if r:
                t_r = sigma[:, r, None, None] * np.eye(s) - a @ t_r
            w = weight(a, "sigma", sigma, r + 1)
            np.testing.assert_allclose(w, t_r, atol=1e-12)
            np.testing.assert_allclose(w, eigenbasis_newton(a, r), atol=1e-12)


def test_newton_trace_identities():
    # tr T_r = (s-r) sigma_r ; tr(A T_r) = (r+1) sigma_{r+1}
    # tr(A^2 T_r) = sigma_1 sigma_{r+1} - (r+2) sigma_{r+2}
    # with sigma from the eigenvalues as the reference
    def tr(m):
        return np.trace(m, axis1=-2, axis2=-1)

    for s in (2, 3, 4, 5):
        a = random_symmetric(4, s)
        sigma = sigma_all(np.linalg.eigvalsh(a))
        scale = np.maximum(1.0, np.abs(sigma).max(axis=-1))
        sigma = np.concatenate([sigma, np.zeros((4, 2))], axis=-1)
        for r in range(s):
            t_r = weight(a, "sigma", sigma_of(a), r + 1)
            assert np.all(np.abs(tr(t_r) - (s - r) * sigma[:, r]) <= 1e-10 * scale)
            assert np.all(np.abs(tr(a @ t_r) - (r + 1) * sigma[:, r + 1]) <= 1e-10 * scale)
            assert np.all(np.abs(tr(a @ a @ t_r) - (sigma[:, 1] * sigma[:, r + 1]
                                                    - (r + 2) * sigma[:, r + 2]))
                          <= 1e-10 * scale**2)


def test_tau_weights_are_scaled_powers():
    # W_k = k A^{k-1} for tau_k: tr(A W_k) / k = tau_k and tr(A^2 W_k) = k tau_{k+1}
    a = random_symmetric(4, 3)
    tau = np.concatenate([np.full((4, 1), 3.0), traces_of_powers(a, 5)], axis=-1)
    for k in range(1, 5):
        w = weight(a, "tau", tau, k)
        np.testing.assert_allclose(w, k * np.linalg.matrix_power(a, k - 1), atol=1e-12)
        np.testing.assert_allclose(np.trace(a @ w, axis1=-2, axis2=-1) / k, tau[:, k],
                                   atol=1e-12)
        np.testing.assert_allclose(np.trace(a @ a @ w, axis1=-2, axis2=-1),
                                   k * tau[:, k + 1], atol=1e-11)


def test_q1_vanishes():
    for s in range(1, 7):
        sigma = sigma_all(RNG.normal(size=(10, s)))
        np.testing.assert_allclose(q_r_from_sigma(sigma, 1, s), 0.0, rtol=0, atol=1e-13)


def test_q_r_vanishes_on_umbilic_spectra():
    for s in (2, 3, 5):
        sigma = sigma_all(np.full((1, s), 0.83))
        for r in range(1, s + 1):
            np.testing.assert_allclose(q_r_from_sigma(sigma, r, s), 0.0,
                                       rtol=0, atol=1e-12)


def test_q2_two_eigenvalues_quarter_square_gap():
    k = RNG.normal(size=(10, 2))
    np.testing.assert_allclose(q_r_from_sigma(sigma_all(k), 2, 2),
                               (k[:, 0] - k[:, 1]) ** 2 / 4, rtol=0, atol=1e-12)


def test_q_r_scaling_law():
    # replacing eigenvalues k -> k/mu multiplies Q_r by mu^(-r)
    mu = 2.7
    for s in (2, 3, 4):
        eigs = RNG.normal(size=(5, s))
        for r in range(1, s + 1):
            q = q_r_from_sigma(sigma_all(eigs), r, s)
            q_scaled = q_r_from_sigma(sigma_all(eigs / mu), r, s)
            np.testing.assert_allclose(q_scaled * mu**r, q, rtol=0, atol=1e-12)


def test_q_r_from_traceless_part():
    # Q_r = -sigma_r(B) / C(s, r) with B = (tr A / s) id - A the traceless
    # remainder.  The binomial is C(s, r); this test pins that reading down.
    for s in (2, 3, 4, 5):
        a = random_symmetric(4, s)
        b = (np.trace(a, axis1=-2, axis2=-1) / s)[:, None, None] * np.eye(s) - a
        assert np.max(np.abs(np.trace(b, axis1=-2, axis2=-1))) < 1e-12
        sigma_a, sigma_b = sigma_of(a), sigma_of(b)
        for r in range(1, s + 1):
            np.testing.assert_allclose(q_r_from_sigma(sigma_a, r, s),
                                       -sigma_b[:, r] / comb(s, r), rtol=0, atol=1e-10)


def q_r_partial(sigma, r, s, j):
    """dQ_r/dsigma_j, the complex step of ``q_r_from_sigma``."""
    step = np.zeros(sigma.shape, dtype=complex)
    step[:, j] = 1j * COMPLEX_STEP
    return np.imag(q_r_from_sigma(sigma + step, r, s)) / COMPLEX_STEP


def test_q_r_partials_match_central_differences():
    eps = 1e-6
    for s in (2, 3, 4, 5):
        sigma = sigma_all(RNG.normal(size=(6, s)))
        for r in range(1, s + 1):
            for j in range(1, r + 1):
                grad = q_r_partial(sigma, r, s, j)
                bump = np.zeros_like(sigma)
                bump[:, j] = eps
                fd = (q_r_from_sigma(sigma + bump, r, s)
                      - q_r_from_sigma(sigma - bump, r, s)) / (2 * eps)
                np.testing.assert_allclose(grad, fd, rtol=0,
                                           atol=1e-8 * max(1.0, np.max(np.abs(fd))))


def test_q2_partials_are_the_closed_forms():
    # dQ_2/dsigma_1 = 2 sigma_1 / s^2, dQ_2/dsigma_2 = -2 / (s (s - 1))
    for s in (2, 3, 4):
        sigma = sigma_all(RNG.normal(size=(6, s)))
        d1, d2 = (q_r_partial(sigma, 2, s, j) for j in (1, 2))
        np.testing.assert_allclose(d1, 2 * sigma[:, 1] / s**2, rtol=1e-15, atol=0)
        np.testing.assert_allclose(d2, np.full(6, -2 / (s * (s - 1))), rtol=1e-15, atol=0)


def test_domain_errors():
    sigma = sigma_all(np.array([[1.0, 2.0]]))
    for r in (0, 3):
        with pytest.raises(DomainError):
            q_r_from_sigma(sigma, r, 2)


def test_exports_resolve_and_scalar_spectrum_api_is_gone():
    import leafwise
    from leafwise import symfunc

    missing = [name for name in leafwise.__all__ if not hasattr(leafwise, name)]
    assert not missing, missing
    for name in ("SymmetricSpectrum", "NewtonOperator", "TracelessPart",
                 "elementary_symmetric", "power_sums", "tau_all", "sigma_from_power_sums",
                 "mean_curvature_functions", "newton_transform", "traceless_part", "q_r",
                 "DEFAULT_TOL", "MAX_DIM", "newton_recursion", "sigma_of_matrix"):
        assert not hasattr(leafwise, name) and not hasattr(symfunc, name), name
