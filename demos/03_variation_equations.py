"""Verifying the evolution equations of a normal deformation.

Every pointwise quantity of a foliated hypersurface (metric, second
fundamental form, leafwise curvature functions, Christoffel symbols, ...)
has a first-variation formula under r -> r + t u N.  This script
recomputes each quantity on the complex-step immersion r + i h u N,
h = 1e-30, whose imaginary part over h is the t-derivative exact to
rounding, and prints its gap to the analytic formula.

The leafwise formulas need care: second derivatives of u enter through
the leafwise block of the full covariant Hessian.  Reading them with the
leaf-intrinsic Hessian instead is only correct when u has no transverse
gradient; the reports carry the deviation of that naive reading.
"""

import numpy as np

from leafwise import catalog, varcheck as vc
from leafwise.operators import Field
from leafwise.variation import random_trig_variation

rng = np.random.default_rng(3)
patch2 = catalog.bumpy_torus3(m_leaf=12, m_tube=12)
patch3 = catalog.sheared_torus4(m1=8, m2=8, m3=8)
u2 = random_trig_variation(2, rng)
u3 = random_trig_variation(3, rng)
f2 = Field.from_callable(lambda x: np.sin(x[:, 0] + 0.5 * x[:, 1]), n=2)
f3 = Field.from_callable(lambda x: np.sin(x[:, 0]) + 0.3 * np.cos(x[:, 1] - x[:, 2]), n=3)

print(f"{'quantity':16s} {'gap':>10s} {'naive deviation':>16s}")
print("-" * 44)
for patch, u, f, quantity, idx in [
    (patch2, u2, f2, "g", 1), (patch2, u2, f2, "h", 1), (patch2, u2, f2, "nH", 1),
    (patch2, u2, f2, "dV", 1), (patch2, u2, f2, "sH_F", 1),
    (patch2, u2, f2, "norm_hF_sq", 1), (patch2, u2, f2, "norm_hmix_sq", 1),
    (patch2, u2, f2, "lapF_f", 1), (patch2, u2, f2, "Christoffel", 1),
    (patch3, u3, f3, "twoH_F", 1), (patch3, u3, f3, "K_F", 1),
    (patch3, u3, f3, "sigma_r", 2), (patch3, u3, f3, "tau_i", 3),
]:
    case = vc.EvolutionCase(quantity=quantity, order_index=idx)
    pts = patch.grid.points[::61][:8] if patch is patch3 else None
    rep = vc.verify_evolution(case, patch, u, f=f, points=pts)
    naive = "-" if rep.naive_deviation is None else f"{rep.naive_deviation:.2e}"
    print(f"{quantity + (f'[{idx}]' if quantity in ('tau_i', 'sigma_r') else ''):16s} "
          f"{rep.gap:10.1e} {naive:>16s}")

print("\nIntegration identities on closed revolution foliations:")
torus = catalog.torus_revolution(m_leaf=32, m_profile=32)
fields = vc.identity_fields(torus)
for ident in vc.INTEGRAL_IDENTITIES:
    rep = vc.verify_integral_identity(ident, torus, **fields)
    print(f"  {ident:10s}: lhs {rep.lhs:+.10e}  rhs {rep.rhs:+.10e}  "
          f"discrepancy {rep.discrepancy:.1e}")
