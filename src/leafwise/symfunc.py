"""Symmetric-function algebra of small curvature spectra.

Everything here operates on the eigenvalues of a leafwise shape operator:
elementary symmetric functions sigma_r, power sums tau_i, normalized mean
curvature functions S_r, Newton transformations T_r, and the conformally
covariant combinations Q_r.  Dimensions are tiny (s <= 8), so the
implementations favour exactness and robustness over speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .errors import DomainError, ValidationError

#: default absolute tolerance for symmetry / structural checks
DEFAULT_TOL = 1e-10

#: largest supported spectrum size; beyond this the incremental polynomial
#: products start to lose digits and the package refuses to proceed
MAX_DIM = 8

#: fractional powers of quantities below this threshold are refused
POWER_EPS = 1e-12


@dataclass(frozen=True)
class SymmetricSpectrum:
    """Ordered eigenvalue list of a leafwise shape operator."""

    eigs: tuple[float, ...]
    s: int = field(init=False)

    def __post_init__(self):
        eigs = tuple(float(k) for k in self.eigs)
        if len(eigs) == 0:
            raise DomainError("spectrum needs at least one eigenvalue")
        if len(eigs) > MAX_DIM:
            raise DomainError(f"spectra larger than s={MAX_DIM} are not supported")
        object.__setattr__(self, "eigs", tuple(sorted(eigs)))
        object.__setattr__(self, "s", len(eigs))

    @classmethod
    def from_matrix(cls, a_f: np.ndarray, tol: float = DEFAULT_TOL) -> "SymmetricSpectrum":
        """Spectrum of a symmetric leafwise shape matrix."""
        a_f = _check_symmetric(np.asarray(a_f, dtype=float), tol)
        return cls(tuple(np.linalg.eigvalsh(a_f)))


@dataclass(frozen=True)
class NewtonOperator:
    """Newton transformation T_r of a leafwise shape matrix."""

    matrix: np.ndarray
    r: int

    def __post_init__(self):
        _check_symmetric(self.matrix, DEFAULT_TOL)


@dataclass(frozen=True)
class TracelessPart:
    """Traceless remainder (mean curvature) * id - A_F of a shape matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        _check_symmetric(self.matrix, DEFAULT_TOL)


def _check_symmetric(m: np.ndarray, tol: float) -> np.ndarray:
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    skew = np.max(np.abs(m - np.swapaxes(m, -1, -2)))
    if skew > tol:
        raise ValidationError(f"matrix is asymmetric beyond tolerance: {skew:.3e} > {tol:.3e}")
    return m


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


def tau_all(eigs: np.ndarray, max_i: int) -> np.ndarray:
    """Power sums tau_1..tau_max_i along the last axis of ``eigs``."""
    eigs = np.asarray(eigs, dtype=float)
    powers = eigs[..., None, :] ** np.arange(1, max_i + 1)[:, None]
    return powers.sum(axis=-1)


def elementary_symmetric(spec: SymmetricSpectrum) -> np.ndarray:
    """Coefficient vector (sigma_0, ..., sigma_s) of prod(1 + t k_i)."""
    return sigma_all(np.array(spec.eigs))


def power_sums(spec: SymmetricSpectrum, max_i: int) -> np.ndarray:
    """Power sums (tau_1, ..., tau_max_i) of the spectrum."""
    if max_i < 1:
        raise DomainError(f"max_i must be >= 1, got {max_i}")
    return tau_all(np.array(spec.eigs), max_i)


def sigma_from_power_sums(tau: np.ndarray) -> np.ndarray:
    """Reconstruct sigma_0..sigma_r from tau_1..tau_r via Newton's identities.

    r sigma_r = sum_{k=1..r} (-1)^{k-1} sigma_{r-k} tau_k
    """
    tau = np.asarray(tau, dtype=float)
    r_max = tau.shape[-1]
    sigma = [np.ones(tau.shape[:-1])]
    for r in range(1, r_max + 1):
        acc = np.zeros(tau.shape[:-1])
        for k in range(1, r + 1):
            acc = acc + (-1) ** (k - 1) * sigma[r - k] * tau[..., k - 1]
        sigma.append(acc / r)
    return np.stack(sigma, axis=-1)


def mean_curvature_functions(spec: SymmetricSpectrum) -> np.ndarray:
    """Normalized functions S_r = sigma_r / C(s, r), r = 0..s."""
    sigma = elementary_symmetric(spec)
    return sigma / np.array([comb(spec.s, r) for r in range(spec.s + 1)])


def newton_transform(a_f: np.ndarray, r: int, tol: float = DEFAULT_TOL) -> NewtonOperator:
    """Newton transformation T_r(A_F) = sum_j (-1)^j sigma_{r-j} A_F^j."""
    a_f = _check_symmetric(np.asarray(a_f, dtype=float), tol)
    s = a_f.shape[-1]
    if not 0 <= r <= s:
        raise DomainError(f"Newton transformation order r={r} outside 0..{s}")
    sigma = sigma_all(np.linalg.eigvalsh(a_f))
    power = np.eye(s)
    acc = sigma[r] * np.eye(s)
    for j in range(1, r + 1):
        power = power @ a_f
        acc = acc + (-1) ** j * sigma[r - j] * power
    # symmetrize away rounding noise before the dataclass check
    return NewtonOperator(matrix=0.5 * (acc + acc.T), r=r)


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


def traceless_part(a_f: np.ndarray, tol: float = DEFAULT_TOL) -> TracelessPart:
    """B_F = H_F * id - A_F, the traceless remainder of a shape matrix."""
    a_f = _check_symmetric(np.asarray(a_f, dtype=float), tol)
    s = a_f.shape[-1]
    h_f = np.trace(a_f) / s
    return TracelessPart(matrix=h_f * np.eye(s) - a_f)


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


def q_r(spec: SymmetricSpectrum, r: int) -> float:
    """Conformally covariant curvature combination Q_r of a spectrum.

    Vanishes when all eigenvalues coincide; Q_2 = S_1^2 - S_2.
    """
    sigma = elementary_symmetric(spec)
    return float(q_r_from_sigma(sigma, r, spec.s))
