"""Normal deformations r_t = r + t*u*N and their complex-step t-derivative."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .operators import Field
from .patch import FoliatedPatch
from .suppliers import NormalDeformation, deformed_jets


def deformed_patch(patch: FoliatedPatch, u: Field, t: float) -> FoliatedPatch:
    """Patch moved along its unit normal by t*u.

    Periodic charts need no support restriction for u; on charts with
    non-periodic axes the caller is responsible for compact support away
    from the margins when integrated quantities are compared.
    """
    supplier = NormalDeformation(base_geometry=patch.geometry, u_jets_fn=u.jets, t=t)
    return replace(patch, supplier=supplier, name=f"{patch.name}+t*u*N")


def random_trig_variation(n: int, rng, amplitude: float = 1.0) -> Field:
    """Random smooth 2pi-periodic amplitude with analytic jets, three cosine modes."""
    ks = rng.integers(-2, 3, size=(3, n))
    coefs = amplitude * rng.normal(size=3) / 3
    phases = rng.uniform(0, 2 * np.pi, size=3)

    def u(x):
        acc = np.zeros(x.shape[0])
        for k, c, ph in zip(ks, coefs, phases):
            acc += c * np.cos(x @ k + ph)
        return acc

    def grad(x):
        acc = np.zeros_like(x)
        for k, c, ph in zip(ks, coefs, phases):
            acc += -c * np.sin(x @ k + ph)[:, None] * k[None, :]
        return acc

    def hess(x):
        acc = np.zeros((x.shape[0], n, n))
        for k, c, ph in zip(ks, coefs, phases):
            acc += -c * np.cos(x @ k + ph)[:, None, None] * np.outer(k, k)[None, :, :]
        return acc

    return Field(lambda x: (u(x), grad(x), hess(x)), n, u)


#: h of the complex step dQ/dt(0) = Im Q(r + i h u N) / h, exact to rounding as
#: nothing is subtracted (Squire & Trapp, SIAM Rev. 40, 1998)
COMPLEX_STEP = 1e-30


def complex_step_geometry(patch: FoliatedPatch, geo, u, du, d2u):
    """Geometry of r + i h u N at the points of an order-3 base geometry ``geo``
    (u-jets there), h = COMPLEX_STEP: Im Q / h of its quantities Q is dQ/dt(0)."""
    return patch.geometry_from_jets(geo.x, deformed_jets(geo, u, du, d2u, 1j * COMPLEX_STEP))

