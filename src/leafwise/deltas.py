"""Analytic first-variation formulas for normal deformations r + t*u*N.

Every formula is the tensorial restatement of the corresponding evolution
equation: second derivatives of the variation amplitude u enter through
the full covariant Hessian (or its leafwise block), never through the
leaf-intrinsic Hessian, because that is what differentiating the immersion
produces in an arbitrary adapted chart.  Every leaf spectrum member,
sigma_k or tau_k, varies by the one formula ``delta_spectrum``; varcheck
feeds it the leaf-intrinsic Hessian for the naive reading (valid when u
has no transverse gradient) and reports the difference.

All leafwise pairings use the adapted orthonormal frame blocks a (leaf),
c (mixed) and b (transverse) of the shape operator; the mixed norm is the
index-block convention |c|_F^2.
"""

from __future__ import annotations

import numpy as np

from .operators import (
    hessian_full,
    hessian_leaf,
    hessian_mixed_frame,
    laplacian_full,
    leaf_gradient,
)
from .patch import PointGeometry, christoffel_bracket, inverse_derivative
from .suppliers import leibniz
from .symfunc import newton_weights


def delta_metric(geo: PointGeometry, u: np.ndarray) -> np.ndarray:
    """delta g_ij = -2 u h_ij."""
    return -2.0 * u[:, None, None] * geo.h


def delta_metric_inverse(geo: PointGeometry, u: np.ndarray) -> np.ndarray:
    """delta g^ij = 2 u h^ij."""
    return 2.0 * u[:, None, None] * (geo.shape_op @ geo.g_inv)


def delta_second_form(geo: PointGeometry, u, du, d2u) -> np.ndarray:
    """delta h_ij = Hess_u(i,j) - u (h^2)_ij."""
    return hessian_full(geo, du, d2u) - u[:, None, None] * (geo.h @ geo.shape_op)


def delta_norm_h_sq(geo: PointGeometry, u, du, d2u) -> np.ndarray:
    """delta |h|^2 = 2 <h, u h^2 + Hess_u>."""
    hess = hessian_full(geo, du, d2u)
    a = geo.shape_op
    pair_hess = np.einsum("pji,pij->p", a, geo.g_inv @ hess)
    tr_a3 = np.einsum("pij,pji->p", a @ a, a)
    return 2.0 * (u * tr_a3 + pair_hess)


def delta_nh(geo: PointGeometry, u, du, d2u) -> np.ndarray:
    """delta (n H) = Delta u + u |h|^2."""
    return laplacian_full(geo, du, d2u) + u * geo.norm_h_sq


def delta_volume_density(geo: PointGeometry, u: np.ndarray) -> np.ndarray:
    """delta sqrt(det g) = -n u H sqrt(det g)."""
    return -geo.n * u * geo.mean_curvature * geo.sqrt_det_g


def delta_norm_hmix_sq(geo: PointGeometry, u, du, d2u) -> np.ndarray:
    """delta |h_mix|^2 = 2 <h_mix, Hess_u^mix> + 4u <h_F, h_mix^2>.

    Derived by varying tr(P A Q A P) with the projector moving along the
    deformation; the fixed-projector reading misses the 4u term.
    """
    pair_hess = np.einsum("pia,pia->p", hessian_mixed_frame(geo, du, d2u), geo.c_mix)
    return 2.0 * pair_hess + 4.0 * u * geo.mix_pairing(geo.a_leaf)


def spectrum_algebraic(family: str, geo, k: int) -> np.ndarray:
    """alg_k = tr(A_F^2 W_k) = sum_j c_j tau_{j+2}, the u-term of delta q_k without
    h_mix, with the coefficients c_j of ``symfunc.newton_weights``, on a
    PointGeometry or on RevolutionInvariants."""
    c = newton_weights(family, getattr(geo, family), k)
    return np.einsum("pj,pj->p", c, geo.tau[:, 2 : k + 2])


def delta_spectrum(family: str, geo: PointGeometry, u, b, k: int) -> np.ndarray:
    """delta q_k = <W_k, B> + u (alg_k - <W_k, h_mix^2>) for the leaf spectrum q
    named by ``family``, with W_k = sum_j c_j A_F^j from ``symfunc.newton_weights``
    (T_{k-1} for sigma, k A_F^{k-1} for tau) over the cached leaf powers.

    B is the leaf frame block of a Hessian of u: the full covariant Hessian for
    the tensorial formula, the leaf-intrinsic one for varcheck's naive reading.
    """
    c = newton_weights(family, getattr(geo, family), k)
    w = sum(c[:, j, None, None] * geo.leaf_power(j) for j in range(k))
    alg = spectrum_algebraic(family, geo, k)
    return np.einsum("pij,pij->p", w, b) + u * (alg - geo.mix_pairing(w))


def covariant_dh(geo: PointGeometry) -> np.ndarray:
    """nabla_k h_ij (totally symmetric for flat ambient space)."""
    return (
        geo.dh
        - np.einsum("plki,plj->pkij", geo.gamma, geo.h)
        - np.einsum("plkj,pil->pkij", geo.gamma, geo.h)
    )


def delta_christoffel(geo: PointGeometry, u, du) -> np.ndarray:
    """delta Gamma^k_ij = -u g^{kl}(nabla_i h_jl + nabla_j h_il - nabla_l h_ij)
    - g^{kl}(u_i h_jl + u_j h_il - u_l h_ij)."""
    sym = christoffel_bracket(covariant_dh(geo))
    grad_part = christoffel_bracket(du[:, :, None, None] * geo.h[:, None, :, :])
    total = u[:, None, None, None] * sym + grad_part
    return -np.einsum("pkl,pijl->pkij", geo.g_inv, total)


def leaf_divergence_hf(geo: PointGeometry) -> np.ndarray:
    """Leaf-intrinsic covariant divergence of h_F, lower leaf index.

    (div_L h_F)_j = g_F^{ik} (partial_i h_kj - Gamma^{L,m}_{ik} h_mj
    - Gamma^{L,m}_{ij} h_km), all indices leafwise.
    """
    s = geo.s
    dh = geo.dh[:, :s, :s, :s]
    h_ff = geo.h[:, :s, :s]
    gl = geo.gamma_leaf
    nab = (
        dh
        - np.einsum("pmik,pmj->pikj", gl, h_ff)
        - np.einsum("pmij,pkm->pikj", gl, h_ff)
    )
    return np.einsum("pik,pikj->pj", geo.g_ff_inv, nab)


def delta_lapf(geo: PointGeometry, u, du, d2u, f_du, f_d2u) -> np.ndarray:
    """delta (Delta_F f) for a fixed function f under the deformation by u.

    Obtained from the leafwise metric variation delta g_L = -2 u h_F with
    the standard Laplacian variation formula; every object is intrinsic to
    the leaves.
    """
    pair, h_grads, grads, hf_grad_term, xi_f = _lapf_terms(geo, du, f_du, f_d2u)
    div_term = np.einsum("pj,pj->p", leaf_divergence_hf(geo), xi_f)
    return (
        2.0 * u * pair
        + 2.0 * u * div_term
        - u * hf_grad_term
        + 2.0 * h_grads
        - geo.sigma[:, 1] * grads
    )


def _lapf_terms(geo: PointGeometry, du, f_du, f_d2u):
    """Terms of delta (Delta_F f) that its naive reading shares, with xi the
    leaf gradients: <h_F, Hess^F f>, h(xi_u, xi_f), g(xi_u, xi_f),
    d(s H_F)(xi_f) and xi_f."""
    s = geo.s
    pair = np.einsum("pij,pij->p", geo.a_leaf, geo.leaf_block(hessian_leaf(geo, f_du, f_d2u)))
    xi_u = leaf_gradient(geo, du)
    xi_f = leaf_gradient(geo, f_du)
    h_grads = np.einsum("pi,pij,pj->p", xi_u, geo.h[:, :s, :s], xi_f)
    grads = np.einsum("pi,pij,pj->p", xi_u, geo.g_ff, xi_f)
    hf_grad = np.einsum("pj,pj->p", _leaf_function_gradient_shf(geo), xi_f)
    return pair, h_grads, grads, hf_grad, xi_f


def _leaf_function_gradient_shf(geo: PointGeometry) -> np.ndarray:
    """Leafwise differential of s*H_F = tr_F h_F = g_F^{ik} h_ki, lower leaf
    components, by the product rule along leaf directions."""
    s = geo.s
    ginv = geo.g_ff_inv
    inv_jets = (ginv, inverse_derivative(ginv, geo.dg[:, :s, :s, :s]))
    return leibniz("ik,ki->", inv_jets, (geo.h[:, :s, :s], geo.dh[:, :s, :s, :s]), 1)[1]
