"""Conformal invariance of the traceless leaf-curvature density.

Q_2 = (mean leaf curvature)^2 - (second mean curvature function) vanishes
exactly on umbilic leaves and transforms with weight -2 under conformal
rescalings, so (Q_2)^{n/2} dV is invariant under the full Möbius group.
The script checks both the density invariance and the shape-operator
transformation law under an ambient inversion on a sheared, non-umbilic
foliated 3-torus in R^4, shows the density vanish on a parallels-
foliated revolution hypersurface (umbilic leaves), and checks that the first
variation is conformally covariant: the variation of W_conf(2) along u on
the torus equals the variation along u/|x|^2 on its inverted image, whose
order-3 jets the numeric variation reads.
"""

from dataclasses import replace

import numpy as np

from leafwise import catalog, functionals as fl, revolution as rev
from leafwise.operators import Field
from leafwise.suppliers import InvertedImmersion
from leafwise.variation import random_trig_variation

patch = catalog.sheared_torus4(m1=8, m2=8, m3=8)

print("surface: sheared non-umbilic foliated 3-torus in R^4")
res = fl.conformal_density_check(patch, r=2, mode="scaling", scale=2.4)
print(f"  homothety x -> 2.4 x : density deviation {res['max_rel_deviation']:.2e}")
res = fl.conformal_density_check(patch, r=2, mode="inversion")
print(f"  inversion x -> x/|x|^2: density deviation {res['max_rel_deviation']:.2e}")
print(f"  shape-operator law A_F -> (A_F - <grad mu, N>/mu)/mu with mu = |x|^-2:"
      f" deviation {res['shape_law_deviation']:.2e}")

print("\numbilic leaves kill the density identically:")
prof = rev.critical_ode_solve(3, 4, 0.4, 1.0, 0.4, (0.4, 0.6))
rpatch = rev.revolution_patch(prof, m_leaf=10, m_profile=8, rho_window=(0.45, 0.55))
geo = rpatch.geometry(rpatch.grid.points[::7])
dens = fl.integrand(fl.w_conf(2), geo, rpatch.n, rpatch.s) * geo.sqrt_det_g
print(f"  revolution hypersurface in R^4, sphere parallels: max density "
      f"{np.max(np.abs(dens)):.2e}")

print("\nfirst variation of W_conf(2) along u, and along u/|x|^2 on the inverted image:")
torus = catalog.sheared_torus4(m1=10, m2=10, m3=10)
u = random_trig_variation(3, np.random.default_rng(3), 0.5)
image = replace(torus, supplier=InvertedImmersion(torus.supplier),
                normal_orientation=-torus.normal_orientation)


def u_image(x):
    r = torus.supplier.jets(x, order=0).r
    return u(x) / np.einsum("pa,pa->p", r, r)


v = Field.from_callable(u_image, n=3)
base = fl.first_variation_analytic(fl.w_conf(2), torus, u)
analytic = fl.first_variation_analytic(fl.w_conf(2), image, v)
numeric = fl.first_variation_numeric(fl.w_conf(2), image, v)
print(f"  torus {base:.12f}, image {analytic:.12f} (relative gap "
      f"{abs(analytic - base) / abs(base):.1e}); numeric on the image {numeric:.12f} "
      f"(relative gap {abs(numeric - analytic) / abs(analytic):.1e})")
