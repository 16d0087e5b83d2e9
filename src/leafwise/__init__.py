"""Curvature functionals on foliated hypersurfaces in Euclidean space.

The package evaluates leafwise Willmore-type energies on immersed
hypersurfaces carrying a coordinate foliation, differentiates them along
normal deformations both analytically and by a complex step, checks
the evolution equations and integration identities the formulas rest on,
solves the critical profile equation for hypersurfaces of revolution, and
verifies conformal invariance of the Q_r densities under homotheties and
Möbius inversions.

Entry points
------------
catalog
    closed-form foliated test surfaces (spheres, tori, tubes, sheared and
    bumpy charts).
functionals
    functional values, first/second variations, Euler-Lagrange residuals,
    conformal checks.
revolution
    critical profiles, their closed form, curvature algebra, stability.
varcheck
    systematic convergence verification of every evolution equation and
    integral identity.
cli
    batch front end (`leafwise <command> --config cfg.json`).
"""

from . import catalog, deltas, functionals, operators, revolution, suppliers, varcheck
from .errors import (
    DomainError,
    LeafwiseError,
    PreconditionError,
    SingularImmersionError,
    SpecError,
    ValidationError,
)
from .functionals import (
    FunctionalSpec,
    conformal_density_check,
    el_residual,
    evaluate,
    first_variation_analytic,
    first_variation_numeric,
    second_variation_analytic,
)
from .operators import (
    Field,
    div_projector,
    fstar_squared,
    hessians,
    leaf_laplacian,
)
from .patch import FoliatedPatch, Grid, PointGeometry
from .revolution import (
    RevolutionProfile,
    critical_closed_form,
    critical_ode_solve,
    fit_constants,
    principal_curvatures,
    revolution_patch,
    second_variation_revolution,
)
from .variation import deformed_patch
from .varcheck import EvolutionCase, verify_evolution, verify_integral_identity

__version__ = "0.1.0"

__all__ = [
    "catalog", "deltas", "functionals", "operators", "revolution", "suppliers",
    "varcheck",
    "LeafwiseError", "DomainError", "ValidationError", "SingularImmersionError",
    "PreconditionError", "SpecError",
    "FunctionalSpec", "evaluate", "first_variation_analytic",
    "first_variation_numeric", "el_residual", "second_variation_analytic",
    "conformal_density_check",
    "Field", "leaf_laplacian", "hessians",
    "div_projector", "fstar_squared",
    "FoliatedPatch", "Grid", "PointGeometry",
    "RevolutionProfile", "critical_ode_solve", "critical_closed_form",
    "fit_constants", "principal_curvatures", "revolution_patch",
    "second_variation_revolution",
    "deformed_patch",
    "EvolutionCase", "verify_evolution", "verify_integral_identity",
    "__version__",
]
