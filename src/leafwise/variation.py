"""Normal deformations r_t = r + t*u*N and numeric t-derivatives."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .operators import ScalarField
from .patch import FoliatedPatch
from .suppliers import NormalDeformation


@dataclass
class VariationField:
    """Normal displacement amplitude u for a deformation family.

    Periodic charts need no support restriction; on charts with
    non-periodic axes the caller is responsible for compact support away
    from the margins when integrated quantities are compared.
    """

    u: ScalarField

    @classmethod
    def from_callable(cls, fn, n: int, step=2e-3, grad=None, hess=None) -> "VariationField":
        return cls(u=ScalarField.from_callable(fn, n, step=step, grad=grad, hess=hess))

    def jets(self, x):
        return self.u.jets(x)

    def __call__(self, x):
        return self.u(x)


def deformed_patch(patch: FoliatedPatch, u: VariationField, t: float) -> FoliatedPatch:
    """Patch moved along its unit normal by t*u."""
    supplier = NormalDeformation(
        base=patch.supplier,
        u_jets_fn=u.jets,
        t=t,
        orientation=patch.normal_orientation,
    )
    return replace(patch, supplier=supplier, name=f"{patch.name}+t*u*N")


def random_trig_variation(n: int, rng, amplitude: float = 1.0,
                          n_modes: int = 3) -> VariationField:
    """Random smooth 2pi-periodic amplitude with analytic jets."""
    ks = rng.integers(-2, 3, size=(n_modes, n))
    coefs = amplitude * rng.normal(size=n_modes) / n_modes
    phases = rng.uniform(0, 2 * np.pi, size=n_modes)

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

    return VariationField(u=ScalarField.from_callable(u, n, grad=grad, hess=hess))


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
