"""Batched symmetric-function kernels of a leafwise shape operator A_F.

Every function works on stacks of points along the leading axes:
``sigma_of_matrix`` gives sigma_0..sigma_s of A_F by matrix products
alone, ``newton_recursion`` the Newton transformation T_r, and
``q_r_from_sigma`` the conformally covariant combination Q_r.
``sigma_all`` expands sigma from eigenvalues; it is the reference the
functional spot checks and the tests compare against.  ``safe_power`` and
``umbilic_power`` raise curvature quantities to real exponents without
choosing a complex branch.
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
    if np.any(base <= POWER_EPS):
        raise DomainError(
            f"non-integer power {expo} of a non-positive quantity "
            f"(min base {np.min(base):.3e}); no branch is chosen")
    return base**expo


def umbilic_power(q: np.ndarray, expo: float) -> np.ndarray:
    """q**expo for a curvature combination that is non-negative in exact
    arithmetic (Q_2 = S_1^2 - S_2 by Newton's inequality, or |Q_r|).

    |q| <= POWER_EPS counts as 0, as on umbilic leaves, where rounding
    leaves q slightly negative; q < -POWER_EPS raises DomainError.
    """
    q = np.where(np.abs(q) <= POWER_EPS, 0.0, q)
    if np.any(q < 0.0):
        raise DomainError(
            f"power {expo} of a negative curvature combination (min {np.min(q):.3e})")
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


def newton_recursion(a_f: np.ndarray, sigma: np.ndarray, r: int) -> np.ndarray:
    """T_r from T_0 = id, T_k = sigma_k id - A_F T_{k-1} (Reilly 1973), batched
    over the leading axes of ``a_f`` and of its ``sigma`` = sigma_0..sigma_s."""
    eye = np.eye(a_f.shape[-1])
    t = np.broadcast_to(eye, a_f.shape)
    for k in range(1, r + 1):
        t = sigma[..., k, None, None] * eye - a_f @ t
    return t


def sigma_of_matrix(a_f: np.ndarray) -> np.ndarray:
    """sigma_0..sigma_s of a batched symmetric matrix, without its eigenvalues:
    sigma_k = tr(A_F T_{k-1}) / k along the recursion of ``newton_recursion``
    (Faddeev-LeVerrier), so only matrix products run, no LAPACK call."""
    eye = np.eye(a_f.shape[-1])
    sigma = [np.ones(a_f.shape[:-2])]
    t = np.broadcast_to(eye, a_f.shape)
    for k in range(1, a_f.shape[-1] + 1):
        at = a_f @ t
        sigma.append(np.trace(at, axis1=-2, axis2=-1) / k)
        t = sigma[k][..., None, None] * eye - at
    return np.stack(sigma, axis=-1)


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

