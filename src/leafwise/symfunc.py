"""Batched symmetric-function kernels of a leafwise shape operator A_F.

Every function works on stacks of points along the leading axes.  The one
coefficient rule ``newton_weights`` states the weight W_k = sum_j c_j A_F^j
through which a leaf spectrum member q_k varies, W_k = T_{k-1} (the Newton
transform, Reilly 1973) for sigma_k and W_k = k A_F^{k-1} for tau_k; it is the
only code that tells the two spectra apart.  With tau_j = tr A_F^j,
q_k = tr(A_F W_k) / k and the algebraic term of delta q_k is
tr(A_F^2 W_k) = sum_j c_j tau_{j+2}; ``sigma_from_traces`` reads sigma off
tau by the first of these (Newton's identities), without a matrix product.
``q_r_from_sigma`` gives the conformally covariant combination Q_r.
``sigma_all`` expands sigma from eigenvalues; it is the reference the
functional analyticity check and the tests compare against.  ``safe_power``
and ``umbilic_power`` raise curvature quantities to real exponents without
choosing a complex branch; their checks read the real part of a complex step.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .errors import DomainError

#: fractional powers of quantities below this threshold are refused
POWER_EPS = 1e-12


def safe_power(base: np.ndarray, expo: float) -> np.ndarray:
    """base**expo, refusing non-integer powers of non-positive bases."""
    if float(expo) == int(expo):
        return base ** float(expo)
    if np.any(np.real(base) <= POWER_EPS):
        raise DomainError(
            f"non-integer power {expo} of a non-positive quantity "
            f"(min base {np.min(np.real(base)):.3e}); no branch is chosen")
    return base**expo


def umbilic_power(q: np.ndarray, expo: float) -> np.ndarray:
    """q**expo for a curvature combination q = Q_r that vanishes on umbilic
    leaves and whose power a conformal density takes.

    |q| <= POWER_EPS counts as 0, as on umbilic leaves, where rounding
    leaves q slightly negative; q < -POWER_EPS raises DomainError.  Only the
    real part is zeroed, so a complex step survives.
    """
    q = np.where(np.abs(np.real(q)) <= POWER_EPS, q - np.real(q), q)
    if np.any(np.real(q) < 0.0):
        raise DomainError(
            f"power {expo} of a negative curvature combination (min {np.min(np.real(q)):.3e})")
    return q ** float(expo)


def sigma_all(eigs: np.ndarray) -> np.ndarray:
    """All elementary symmetric functions sigma_0..sigma_s of ``eigs``.

    Works on batched input: the last axis holds the eigenvalues and the
    returned array has one more entry along it.  Computed by incrementally
    multiplying the factors (1 + t*k_i), which is exact up to rounding for
    the small s used here.
    """
    eigs = np.asarray(eigs, dtype=float)
    s = eigs.shape[-1]
    out = np.zeros(eigs.shape[:-1] + (s + 1,))
    out[..., 0] = 1.0
    for i in range(s):
        k = eigs[..., i]
        out[..., 1 : i + 2] = out[..., 1 : i + 2] + k[..., None] * out[..., 0 : i + 1]
    return out


def newton_weights(family: str, q: np.ndarray, k: int) -> np.ndarray:
    """Coefficients c_0..c_{k-1}, along the last axis, of W_k = sum_j c_j A_F^j for
    the member q_k of the leaf spectrum q named by ``family``: c_j = (-1)^j
    sigma_{k-1-j} for "sigma" (W_k = T_{k-1}), c_{k-1} = k and 0 otherwise for
    "tau" (W_k = k A_F^{k-1}).  Only q_0..q_{k-1} are read."""
    if family == "tau":
        c = np.zeros(q.shape[:-1] + (k,))
        c[..., k - 1] = k
        return c
    return q[..., k - 1 :: -1] * (-1.0) ** np.arange(k)


def sigma_from_traces(tau: np.ndarray) -> np.ndarray:
    """sigma_0..sigma_s from the traces tau_0..tau_s of A_F^0..A_F^s along the
    last axis, by Newton's identities k sigma_k = tr(A_F T_{k-1}) =
    sum_j c_j tau_{j+1}."""
    sigma = np.zeros(tau.shape, dtype=tau.dtype)
    sigma[..., 0] = 1.0
    for k in range(1, tau.shape[-1]):
        c = newton_weights("sigma", sigma, k)
        sigma[..., k] = np.einsum("...j,...j->...", c, tau[..., 1 : k + 1]) / k
    return sigma


def q_r_from_sigma(sigma: np.ndarray, r: int, s: int) -> np.ndarray:
    """Q_r from a (batched) sigma_0..sigma_s vector.

    Q_r = sum_{j=0..r} (-1)^(j+1) C(r,j) S_1^(r-j) S_j with S_j = sigma_j/C(s,j).
    """
    if not 1 <= r <= s:
        raise DomainError(f"conformal order r={r} outside 1..{s}")
    s1 = sigma[..., 1] / s
    acc = np.zeros(np.shape(s1))
    for j in range(r + 1):
        s_j = sigma[..., j] / comb(s, j)
        acc = acc + (-1) ** (j + 1) * comb(r, j) * s1 ** (r - j) * s_j
    return acc

