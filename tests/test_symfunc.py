import numpy as np
import pytest

from leafwise.errors import DomainError, ValidationError
from leafwise.symfunc import (
    NewtonOperator,
    SymmetricSpectrum,
    elementary_symmetric,
    mean_curvature_functions,
    newton_transform,
    newton_recursion,
    power_sums,
    q_r,
    sigma_all,
    sigma_from_power_sums,
    tau_all,
    traceless_part,
)

RNG = np.random.default_rng(20240811)


def random_symmetric(s, scale=1.0):
    m = RNG.normal(size=(s, s), scale=scale)
    return 0.5 * (m + m.T)


def test_sigma_zero_spectrum():
    sig = elementary_symmetric(SymmetricSpectrum((0.0,) * 4))
    assert np.array_equal(sig, [1.0, 0.0, 0.0, 0.0, 0.0])


def test_sigma_123_hand_expansion():
    # (1+t)(1+2t)(1+3t) = 1 + 6t + 11t^2 + 6t^3
    sig = elementary_symmetric(SymmetricSpectrum((1.0, 2.0, 3.0)))
    np.testing.assert_allclose(sig, [1.0, 6.0, 11.0, 6.0], rtol=0, atol=1e-14)


def test_two_sigma2_equals_tau1_sq_minus_tau2():
    for c in (0.7, -1.3, 2.0):
        spec = SymmetricSpectrum((c, c))
        sig = elementary_symmetric(spec)
        tau = power_sums(spec, 2)
        assert tau[0] == pytest.approx(2 * c)
        assert tau[1] == pytest.approx(2 * c * c)
        assert 2 * sig[2] == pytest.approx(tau[0] ** 2 - tau[1])


def test_two_sigma2_identity_random_spectra():
    for _ in range(30):
        s = int(RNG.integers(2, 7))
        spec = SymmetricSpectrum(tuple(RNG.normal(size=s)))
        sig = elementary_symmetric(spec)
        tau = power_sums(spec, 2)
        assert 2 * sig[2] == pytest.approx(tau[0] ** 2 - tau[1], abs=1e-12)


def test_power_sums_constant_spectrum():
    spec = SymmetricSpectrum((1.0,) * 5)
    np.testing.assert_allclose(power_sums(spec, 4), [5.0] * 4)


def test_power_sums_123_direct_summation():
    spec = SymmetricSpectrum((1.0, 2.0, 3.0))
    np.testing.assert_allclose(power_sums(spec, 3), [6.0, 14.0, 36.0])


def test_power_sums_single_eigenvalue():
    spec = SymmetricSpectrum((1.7,))
    np.testing.assert_allclose(power_sums(spec, 5), [1.7**i for i in range(1, 6)])


def test_newton_identities_reconstruct_sigma():
    for s in range(1, 7):
        eigs = RNG.normal(size=s)
        sigma = sigma_all(eigs)
        tau = tau_all(eigs, s)
        np.testing.assert_allclose(sigma_from_power_sums(tau), sigma, atol=1e-12)


def test_newton_transform_order_zero_is_identity():
    a = random_symmetric(3)
    np.testing.assert_allclose(newton_transform(a, 0).matrix, np.eye(3))


def test_newton_transform_order_one_diag():
    t1 = newton_transform(np.diag([1.0, 2.0]), 1)
    np.testing.assert_allclose(t1.matrix, np.diag([2.0, 1.0]))


def test_newton_transform_top_order_vanishes():
    for s in (2, 3, 5):
        a = random_symmetric(s)
        assert np.max(np.abs(newton_transform(a, s).matrix)) < 1e-10


def test_newton_transform_matches_induction():
    for s in (2, 3, 4, 5):
        a = random_symmetric(s)
        for r in range(s + 1):
            np.testing.assert_allclose(
                newton_transform(a, r).matrix,
                newton_recursion(a, sigma_all(np.linalg.eigvalsh(a)), r),
                atol=1e-12,
            )


def test_newton_trace_identities():
    # tr T_r = (s-r) sigma_r ; tr(A T_r) = (r+1) sigma_{r+1}
    # tr(A^2 T_r) = sigma_1 sigma_{r+1} - (r+2) sigma_{r+2}
    for s in (2, 3, 4, 5):
        a = random_symmetric(s)
        sigma = np.append(sigma_all(np.linalg.eigvalsh(a)), [0.0, 0.0])
        for r in range(s):
            t_r = newton_transform(a, r).matrix
            scale = max(1.0, np.abs(sigma[: s + 1]).max())
            assert np.trace(t_r) == pytest.approx((s - r) * sigma[r], abs=1e-10 * scale)
            assert np.trace(a @ t_r) == pytest.approx((r + 1) * sigma[r + 1], abs=1e-10 * scale)
            assert np.trace(a @ a @ t_r) == pytest.approx(
                sigma[1] * sigma[r + 1] - (r + 2) * sigma[r + 2], abs=1e-10 * scale**2
            )


def test_q1_vanishes():
    for _ in range(10):
        spec = SymmetricSpectrum(tuple(RNG.normal(size=int(RNG.integers(1, 7)))))
        assert q_r(spec, 1) == pytest.approx(0.0, abs=1e-13)


def test_q_r_vanishes_on_umbilic_spectra():
    for s in (2, 3, 5):
        spec = SymmetricSpectrum((0.83,) * s)
        for r in range(1, s + 1):
            assert q_r(spec, r) == pytest.approx(0.0, abs=1e-12)


def test_q2_two_eigenvalues_quarter_square_gap():
    for _ in range(10):
        k1, k2 = RNG.normal(size=2)
        spec = SymmetricSpectrum((k1, k2))
        assert q_r(spec, 2) == pytest.approx((k1 - k2) ** 2 / 4, abs=1e-12)


def test_q_r_scaling_law():
    # replacing eigenvalues k -> k/mu multiplies Q_r by mu^(-r)
    mu = 2.7
    for s in (2, 3, 4):
        eigs = RNG.normal(size=s)
        for r in range(1, s + 1):
            q = q_r(SymmetricSpectrum(tuple(eigs)), r)
            q_scaled = q_r(SymmetricSpectrum(tuple(eigs / mu)), r)
            assert q_scaled * mu**r == pytest.approx(q, abs=1e-12)


def test_q_r_from_traceless_part():
    # Q_r = -sigma_r(B) / C(s, r) with B the traceless remainder.
    # The binomial is C(s, r); this test pins that reading down.
    from math import comb

    for s in (2, 3, 4, 5):
        a = random_symmetric(s)
        spec = SymmetricSpectrum.from_matrix(a)
        b = traceless_part(a).matrix
        assert abs(np.trace(b)) < 1e-12
        sigma_b = sigma_all(np.linalg.eigvalsh(b))
        for r in range(1, s + 1):
            assert q_r(spec, r) == pytest.approx(-sigma_b[r] / comb(s, r), abs=1e-10)


def test_mean_curvature_functions_normalization():
    spec = SymmetricSpectrum((1.0, 2.0, 3.0))
    s_r = mean_curvature_functions(spec)
    np.testing.assert_allclose(s_r, [1.0, 2.0, 11.0 / 3.0, 6.0])


def test_domain_errors():
    with pytest.raises(DomainError):
        SymmetricSpectrum(())
    with pytest.raises(DomainError):
        power_sums(SymmetricSpectrum((1.0,)), 0)
    with pytest.raises(DomainError):
        newton_transform(np.eye(2), 3)
    with pytest.raises(DomainError):
        q_r(SymmetricSpectrum((1.0, 2.0)), 3)


def test_asymmetric_matrix_rejected():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValidationError):
        newton_transform(bad, 1)
    with pytest.raises(ValidationError):
        NewtonOperator(matrix=bad, r=1)
