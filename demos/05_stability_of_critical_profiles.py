"""Stability of critical revolution profiles under leafwise modes.

At a critical profile the second variation decomposes over the Laplace
eigenfunctions of the leaf spheres.  The constant mode (j=0) makes the
energy strictly decrease when p > n, so critical profiles are never local
minima under general deformations; modes orthogonal to the leafwise
constants (j >= 1) give a strictly positive quadratic form bounded below
by an explicit curvature integral.
"""

import numpy as np

from leafwise import functionals as fl, revolution as rev

n, p = 2, 3
prof = rev.critical_ode_solve(n, p, 0.4, 1.0, 0.4, (0.4, 0.62))
print(f"critical profile: n={n}, p={p}, rho in [{prof.rho_min}, {prof.rho_max:.3f}], "
      f"slope {prof.f1(np.array([prof.rho_min]))[0]:.2f}.."
      f"{prof.f1(np.array([prof.rho_max]))[0]:.2f}")

print("\nmode-by-mode second variation (unit amplitude):")
for j in range(0, 4):
    d2 = rev.second_variation_revolution(prof, p, j)
    lam = rev.leaf_eigenvalue(n, j)
    print(f"  j={j} (leaf eigenvalue {lam:4.0f}): d2 = {d2:+.6f}")

bound = rev.stability_bound_integral(prof, p, 1)
d2_1 = rev.second_variation_revolution(prof, p, 1)
print(f"\nlower bound for j=1:  d2 = {d2_1:.6f} >= {bound:.6f} > 0")

print("\ncross-check against the general quadratic form on the patch:")
patch = rev.revolution_patch(prof, m_leaf=32, m_profile=40)
general = fl.second_variation_analytic(fl.w_nps(p), patch, rev.leaf_mode_variation(1))
print(f"  reduced formula {d2_1:.9f}  vs  general path {general:.9f} "
      f"(rel diff {abs(general - d2_1)/abs(d2_1):.1e})")

print("\np = n kills the destabilizing constant mode:")
prof_n = rev.critical_ode_solve(2, 2, 0.4, 1.0, 0.4, (0.4, 0.7))
print(f"  n=p=2, j=0: d2 = {rev.second_variation_revolution(prof_n, 2, 0):+.2e}")
