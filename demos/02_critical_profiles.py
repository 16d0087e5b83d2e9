"""Critical hypersurfaces of revolution.

A revolution graph x_{n+1} = f(rho) is critical for the leafwise energy
with exponent p exactly when its two principal curvatures satisfy
kn = (p-n+1) k1, a first-order ODE for the slope.  This script integrates
the profile family for n=2 and p=2..8 from shared initial data, compares
the adaptive Runge-Kutta solution with the closed-form quadrature
solution, and draws the overlay plot.
"""

from leafwise import revolution as rev
from leafwise.svgplot import svg_line_plot

n, rho0, f0, slope0 = 2, 0.4, 1.0, 0.4
series = []
print("p   window                ODE vs closed form    |kn-(p-1)k1|    H^2/K")
for p in range(2, 9):
    prof = rev.critical_ode_solve(n, p, rho0, f0, slope0, (rho0, 3.0))
    rho, dev, resid = rev.compare_with_closed_form(prof, 200)
    k1, kn = rev.principal_curvatures(prof, rho)
    h_sq_over_k = ((k1 + kn) / 2) ** 2 / (k1 * kn)
    print(f"{p}   [{rho0:.2f}, {rho[-1]:.4f}]      {dev:.2e}              "
          f"{resid:.1e}        {h_sq_over_k[0]:.6f} (expect {p*p/(4*(p-1)):.6f})")
    series.append((f"p={p}", rho, prof.f(rho)))

svg_line_plot(series, "critical_profiles.svg",
              title="critical revolution profiles, f(0.4)=1, f'(0.4)=0.4",
              xlabel="rho", ylabel="f")
print("\nwrote critical_profiles.svg")
print("Every profile ends at a vertical tangent: the graph representation")
print("breaks down exactly where the closed form's denominator vanishes.")
