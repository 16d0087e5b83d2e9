from math import comb

import numpy as np
import pytest

from leafwise.errors import DomainError
from leafwise.symfunc import newton_recursion, q_r_from_sigma, sigma_all, sigma_of_matrix

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


def power_expansion(a, sigma, r):
    """T_r = sum_j (-1)^j sigma_{r-j} A^j, summed term by term."""
    power = np.broadcast_to(np.eye(a.shape[-1]), a.shape)
    acc = sigma[..., r, None, None] * power
    for j in range(1, r + 1):
        power = power @ a
        acc = acc + (-1) ** j * sigma[..., r - j, None, None] * power
    return acc


def test_sigma_zero_spectrum():
    for sig in (sigma_all(np.zeros((2, 4))), sigma_of_matrix(np.zeros((2, 4, 4)))):
        assert np.array_equal(sig, np.tile([1.0, 0.0, 0.0, 0.0, 0.0], (2, 1)))


def test_sigma_123_hand_expansion():
    # (1+t)(1+2t)(1+3t) = 1 + 6t + 11t^2 + 6t^3
    eigs = np.array([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0]])
    for sig in (sigma_all(eigs), sigma_of_matrix(eigs[:, :, None] * np.eye(3))):
        np.testing.assert_allclose(sig, np.tile([1.0, 6.0, 11.0, 6.0], (2, 1)),
                                   rtol=0, atol=1e-14)


def test_two_sigma2_equals_tau1_sq_minus_tau2():
    c = np.array([0.7, -1.3, 2.0])
    a = c[:, None, None] * np.eye(2)
    for sig in (sigma_all(np.stack([c, c], axis=-1)), sigma_of_matrix(a)):
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
        sig = sigma_of_matrix(a)
        np.testing.assert_allclose(2 * sig[:, 2], tau[:, 0] ** 2 - tau[:, 1],
                                   rtol=0, atol=1e-12)


def test_newton_identities_reconstruct_sigma():
    # k sigma_k = sum_{j=1..k} (-1)^(j-1) sigma_{k-j} tau_j, for eigenvalue
    # power sums and for matrix traces tr A^j
    for s in range(1, 7):
        eigs = RNG.normal(size=(5, s))
        tau_eigs = np.stack([np.sum(eigs**j, axis=-1) for j in range(1, s + 1)], axis=-1)
        a = random_symmetric(5, s)
        for sigma, tau in ((sigma_all(eigs), tau_eigs),
                           (sigma_of_matrix(a), traces_of_powers(a, s))):
            for k in range(1, s + 1):
                rhs = sum((-1) ** (j - 1) * sigma[:, k - j] * tau[:, j - 1]
                          for j in range(1, k + 1))
                np.testing.assert_allclose(k * sigma[:, k], rhs, rtol=0, atol=1e-12)


def test_newton_transform_order_zero_is_identity():
    a = random_symmetric(4, 3)
    np.testing.assert_allclose(newton_recursion(a, sigma_of_matrix(a), 0),
                               np.tile(np.eye(3), (4, 1, 1)))


def test_newton_transform_order_one_diag():
    a = np.diag([1.0, 2.0])[None]
    np.testing.assert_allclose(newton_recursion(a, sigma_of_matrix(a), 1),
                               np.diag([2.0, 1.0])[None])


def test_newton_transform_top_order_vanishes():
    for s in (2, 3, 5):
        a = random_symmetric(4, s)
        assert np.max(np.abs(newton_recursion(a, sigma_of_matrix(a), s))) < 1e-10


def test_newton_transform_matches_induction():
    for s in (2, 3, 4, 5):
        a = random_symmetric(4, s)
        sigma = sigma_of_matrix(a)
        for r in range(s + 1):
            np.testing.assert_allclose(newton_recursion(a, sigma, r),
                                       power_expansion(a, sigma, r), atol=1e-12)


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
            t_r = newton_recursion(a, sigma_of_matrix(a), r)
            assert np.all(np.abs(tr(t_r) - (s - r) * sigma[:, r]) <= 1e-10 * scale)
            assert np.all(np.abs(tr(a @ t_r) - (r + 1) * sigma[:, r + 1]) <= 1e-10 * scale)
            assert np.all(np.abs(tr(a @ a @ t_r) - (sigma[:, 1] * sigma[:, r + 1]
                                                    - (r + 2) * sigma[:, r + 2]))
                          <= 1e-10 * scale**2)


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
        sigma_a, sigma_b = sigma_of_matrix(a), sigma_of_matrix(b)
        for r in range(1, s + 1):
            np.testing.assert_allclose(q_r_from_sigma(sigma_a, r, s),
                                       -sigma_b[:, r] / comb(s, r), rtol=0, atol=1e-10)


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
                 "DEFAULT_TOL", "MAX_DIM"):
        assert not hasattr(leafwise, name) and not hasattr(symfunc, name), name
