"""Analytic first-variation formulas for normal deformations r + t*u*N.

Every formula is the tensorial restatement of the corresponding evolution
equation: second derivatives of the variation amplitude u enter through
the full covariant Hessian (or its leafwise block), never through the
leaf-intrinsic Hessian, because that is what differentiating the immersion
produces in an arbitrary adapted chart.  The leaf-intrinsic reading (valid
when u has no transverse gradient) is provided separately by varcheck for
diagnostic comparison.

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
    laplacian_block,
    laplacian_full,
    leaf_gradient,
)
from .patch import PointGeometry, christoffel_bracket


def delta_metric(geo: PointGeometry, u: np.ndarray) -> np.ndarray:
    """delta g_ij = -2 u h_ij."""
    return -2.0 * u[:, None, None] * geo.h


def delta_metric_inverse(geo: PointGeometry, u: np.ndarray) -> np.ndarray:
    """delta g^ij = 2 u h^ij."""
    h_up = np.einsum("pik,pkl,plj->pij", geo.g_inv, geo.h, geo.g_inv)
    return 2.0 * u[:, None, None] * h_up


def delta_second_form(geo: PointGeometry, u, du, d2u) -> np.ndarray:
    """delta h_ij = Hess_u(i,j) - u (h^2)_ij."""
    h_sq = np.einsum("pik,pkl,plj->pij", geo.h, geo.g_inv, geo.h)
    return hessian_full(geo, du, d2u) - u[:, None, None] * h_sq


def delta_norm_h_sq(geo: PointGeometry, u, du, d2u) -> np.ndarray:
    """delta |h|^2 = 2 <h, u h^2 + Hess_u>."""
    hess = hessian_full(geo, du, d2u)
    a = geo.shape_op
    pair_hess = np.einsum("pji,pij->p", a, np.einsum("pik,pkj->pij", geo.g_inv, hess))
    tr_a3 = np.einsum("pij,pjk,pki->p", a, a, a)
    return 2.0 * (u * tr_a3 + pair_hess)


def delta_nh(geo: PointGeometry, u, du, d2u) -> np.ndarray:
    """delta (n H) = Delta u + u |h|^2."""
    return laplacian_full(geo, du, d2u) + u * geo.norm_h_sq


def delta_volume_density(geo: PointGeometry, u: np.ndarray) -> np.ndarray:
    """delta sqrt(det g) = -n u H sqrt(det g)."""
    return -geo.n * u * geo.mean_curvature * geo.sqrt_det_g


def delta_s_hf(geo: PointGeometry, u, du, d2u) -> np.ndarray:
    """delta (s H_F) = tr_F Hess_u|_F + u (|h_F|^2 - |h_mix|^2)."""
    return laplacian_block(geo, du, d2u) + u * (geo.norm_hf_sq - geo.norm_hmix_sq)


def delta_norm_hf_sq(geo: PointGeometry, u, du, d2u) -> np.ndarray:
    """delta |h_F|^2 = 2 <h_F, Hess_u|_F> + 2u (<h_F,h_F^2> - <h_F,h_mix^2>)."""
    hb = geo.leaf_block(hessian_full(geo, du, d2u))
    pair_hess = np.einsum("pij,pij->p", geo.a_leaf, hb)
    return 2.0 * pair_hess + 2.0 * u * (geo.hf_hf2 - geo.hf_hmix2)


def delta_norm_hmix_sq(geo: PointGeometry, u, du, d2u) -> np.ndarray:
    """delta |h_mix|^2 = 2 <h_mix, Hess_u^mix> + 4u <h_F, h_mix^2>.

    Derived by varying tr(P A Q A P) with the projector moving along the
    deformation; the fixed-projector reading misses the 4u term.
    """
    hm = hessian_mixed_frame(geo, du, d2u)
    return 2.0 * np.einsum("pia,pia->p", hm, geo.c_mix) + 4.0 * u * geo.hf_hmix2


def delta_tau(geo: PointGeometry, u, du, d2u, i: int) -> np.ndarray:
    """delta tau_i = i [<h_F^{i-1}, Hess_u|_F> + u (tau_{i+1} - <h_F^{i-1}, h_mix^2>)]."""
    hb = geo.leaf_block(hessian_full(geo, du, d2u))
    a_pow = geo.leaf_power(i - 1)
    tau_next = np.einsum("pij,pji->p", geo.leaf_power(i), geo.a_leaf)
    pair_hess = np.einsum("pij,pij->p", a_pow, hb)
    return i * (pair_hess + u * (tau_next - geo.mix_pairing(a_pow)))


def delta_sigma(geo: PointGeometry, u, du, d2u, r: int) -> np.ndarray:
    """delta sigma_r = <T_{r-1}, Hess_u|_F> + u (sigma_1 sigma_r - (r+1) sigma_{r+1}
    - <T_{r-1}, h_mix^2>)."""
    hb = geo.leaf_block(hessian_full(geo, du, d2u))
    t_prev = geo.newton(r - 1)
    pair_hess = np.einsum("pij,pij->p", t_prev, hb)
    return pair_hess + u * (sigma_algebraic(geo.sigma, r) - geo.mix_pairing(t_prev))


def sigma_algebraic(sigma: np.ndarray, r: int) -> np.ndarray:
    """sigma_1 sigma_r - (r+1) sigma_{r+1} of a spectrum sigma_0..sigma_s, with
    sigma_{s+1} = 0."""
    return sigma[:, 1] * sigma[:, r] - (r + 1) * (
        sigma[:, r + 1] if r + 1 < sigma.shape[1] else 0.0)


def delta_k_f(geo: PointGeometry, u, du, d2u) -> np.ndarray:
    """delta K_F for s=2: 2H_F tr_F Hess|_F - <h_F, Hess|_F>
    + u (2 H_F K_F - 2 H_F |h_mix|^2 + <h_F, h_mix^2>)."""
    h_f = geo.h_f_mean
    k_f = geo.k_f
    hb = geo.leaf_block(hessian_full(geo, du, d2u))
    tr_hb = laplacian_block(geo, du, d2u)
    pair = np.einsum("pij,pij->p", geo.a_leaf, hb)
    return (
        2.0 * h_f * tr_hb
        - pair
        + u * (2.0 * h_f * k_f - 2.0 * h_f * geo.norm_hmix_sq + geo.hf_hmix2)
    )


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
    """Leafwise differential of s*H_F = tr_F h_F, lower leaf components.

    d(sigma_1) = d(g_F^{ik}) h_ki + g_F^{ik} d h_ki along leaf directions.
    """
    s = geo.s
    dh = geo.dh[:, :s, :s, :s]
    dgl = geo.dg[:, :s, :s, :s]
    dginv = -np.einsum("pim,pkmn,pnj->pkij", geo.g_ff_inv, dgl, geo.g_ff_inv)
    h_ff = geo.h[:, :s, :s]
    return np.einsum("pkij,pji->pk", dginv, h_ff) + np.einsum(
        "pij,pkji->pk", geo.g_ff_inv, dh
    )
