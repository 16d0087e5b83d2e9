"""Normal deformations r_t = r + t*u*N and numeric t-derivatives."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .operators import Field
from .patch import FoliatedPatch
from .suppliers import NormalDeformation


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

    return Field.from_callable(u, n, grad=grad, hess=hess)


#: default ladder of deformation magnitudes for numeric derivatives
DEFAULT_T_LADDER = (1e-3, 5e-4, 2.5e-4)


def richardson(values, t_values):
    """Richardson extrapolation of a 2nd-order central-difference sequence."""
    v1, v2 = values[-2], values[-1]
    t1, t2 = t_values[-2], t_values[-1]
    r = (t1 / t2) ** 2
    return (r * v2 - v1) / (r - 1.0)


def estimate_order(errors, t_values):
    """Least-squares slope of log(error) against log(t).

    Errors at the rounding floor are clipped so a vanishing analytic
    mismatch reports a large order rather than NaN.
    """
    e = np.maximum(np.asarray(errors, dtype=float), 1e-300)
    t = np.asarray(t_values, dtype=float)
    if np.all(e < 1e-13):
        return np.inf
    slope = np.polyfit(np.log(t), np.log(e), 1)[0]
    return float(slope)
