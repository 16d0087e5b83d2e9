"""Built-in foliated surfaces.

Closed-form immersions with leafwise-first coordinate ordering.  Periodic
charts (tori, tubes) carry uniform/trapezoid axes; polar-type angles carry
Gauss-Legendre axes whose nodes stay inside the open interval, so chart
singularities at the poles are never evaluated.
"""

from __future__ import annotations

import numpy as np
import sympy as sp

from .errors import DomainError
from .patch import FoliatedPatch, Grid, check_count, gauss_axis, periodic_axis
from .suppliers import AnalyticSupplier


def _patch(n, s, coords, exprs, axes, orientation, name, **meta):
    return FoliatedPatch(n=n, s=s, supplier=AnalyticSupplier(coords, exprs),
                         grid=Grid(axes=tuple(axes)), normal_orientation=orientation,
                         name=name, meta=meta)


def sphere_exprs(n: int, radius: float):
    """Hyperspherical chart of S^n(radius): n-1 polar angles then azimuth."""
    coords = sp.symbols(f"t0:{n}")
    exprs = []
    for a in range(n + 1):
        term = sp.Float(radius)
        for i in range(min(a, n - 1)):
            term = term * sp.sin(coords[i])
        if a < n:
            term = term * sp.cos(coords[a])
        else:
            term = term * sp.sin(coords[n - 1])
        exprs.append(term)
    return coords, exprs


def sphere(n: int = 2, radius: float = 1.0, m_polar: int = 32, m_azimuth: int = 64,
           s: int | None = None) -> FoliatedPatch:
    """Round n-sphere with inward normal (shape operator = id/radius)."""
    check_count(n, 1, "the sphere dimension n")
    coords, exprs = sphere_exprs(n, radius)
    axes = [gauss_axis(0.0, np.pi, m_polar) for _ in range(n - 1)]
    axes.append(periodic_axis(0.0, 2 * np.pi, m_azimuth))
    return _patch(n, n if s is None else s, coords, exprs, axes,
                  orientation=-1.0 if n % 2 == 0 else 1.0,
                  name=f"sphere{n}", radius=radius)


def sphere_parallels(radius: float = 1.0, m_leaf: int = 64, m_polar: int = 32,
                     polar_window=(0.35, np.pi - 0.35)) -> FoliatedPatch:
    """Unit 2-sphere foliated by circles of latitude (s=1, leaf coord first).

    The polar window stays away from the chart singularities at the poles.
    """
    phi, theta = sp.symbols("phi theta")
    r = sp.Float(radius)
    exprs = [r * sp.sin(theta) * sp.cos(phi), r * sp.sin(theta) * sp.sin(phi), r * sp.cos(theta)]
    axes = [periodic_axis(0.0, 2 * np.pi, m_leaf), gauss_axis(*polar_window, m_polar)]
    return _patch(2, 1, (phi, theta), exprs, axes, orientation=1.0,
                  name="sphere-parallels", radius=radius)


def plane(extent: float = 1.0, m: int = 24) -> FoliatedPatch:
    """Flat chart in R^3 (totally geodesic)."""
    x, y = sp.symbols("x y")
    axes = [gauss_axis(-extent, extent, m), gauss_axis(-extent, extent, m)]
    return _patch(2, 1, (x, y), [x, y, 0 * x], axes, orientation=1.0, name="plane")


def cylinder(radius: float = 1.0, height: float = 2.0, m_leaf: int = 48,
             m_axis: int = 24) -> FoliatedPatch:
    """Cylinder S^1(radius) x R in R^3 foliated by circles (s=1)."""
    phi, z = sp.symbols("phi z")
    exprs = [radius * sp.cos(phi), radius * sp.sin(phi), z]
    axes = [periodic_axis(0.0, 2 * np.pi, m_leaf), gauss_axis(-height / 2, height / 2, m_axis)]
    return _patch(2, 1, (phi, z), exprs, axes, orientation=-1.0,
                  name="cylinder", radius=radius)


def torus(big_radius: float = np.sqrt(2.0), small_radius: float = 1.0, s: int = 2,
          m_leaf: int = 64, m_tube: int = 64) -> FoliatedPatch:
    """Torus of revolution in R^3; s=1 foliates by the rotation circles.

    Default radii hit the Willmore-minimizing ratio small/big = 1/sqrt(2).
    """
    if small_radius >= big_radius:
        raise DomainError("torus needs small_radius < big_radius")
    phi, v = sp.symbols("phi v")
    w = big_radius + small_radius * sp.cos(v)
    exprs = [w * sp.cos(phi), w * sp.sin(phi), small_radius * sp.sin(v)]
    axes = [periodic_axis(0.0, 2 * np.pi, m_leaf), periodic_axis(0.0, 2 * np.pi, m_tube)]
    return _patch(2, s, (phi, v), exprs, axes, orientation=-1.0, name="torus",
                  big_radius=big_radius, small_radius=small_radius)


def bumpy_torus3(eps: float = 0.04, s: int = 1, m_leaf: int = 48, m_tube: int = 48,
                 big_radius: float = 2.0, small_radius: float = 0.8) -> FoliatedPatch:
    """Non-symmetric perturbed torus in R^3; generic test patch."""
    phi, v = sp.symbols("phi v")
    rr = small_radius * (1 + eps * sp.cos(2 * phi + v) + 0.6 * eps * sp.sin(phi - v))
    w = big_radius + rr * sp.cos(v) + 0.5 * eps * sp.sin(phi + 2 * v)
    exprs = [w * sp.cos(phi), w * sp.sin(phi),
             rr * sp.sin(v) + 0.4 * eps * sp.cos(2 * phi - v)]
    axes = [periodic_axis(0.0, 2 * np.pi, m_leaf), periodic_axis(0.0, 2 * np.pi, m_tube)]
    return _patch(2, s, (phi, v), exprs, axes, orientation=-1.0, name="bumpy-torus3")


def _tube4_exprs(coords, r1, r2, rr):
    y1, y2, y3 = coords
    w2 = r2 + rr * sp.cos(y3)
    w1 = r1 + w2 * sp.cos(y2)
    return [w1 * sp.cos(y1), w1 * sp.sin(y1), w2 * sp.sin(y2), rr * sp.sin(y3)]


def bumpy_torus4(eps: float = 0.03, s: int = 2, m1: int = 24, m2: int = 24,
                 m3: int = 24) -> FoliatedPatch:
    """Iterated-tube 3-torus in R^4 with symmetry-breaking bumps."""
    x1, x2, x3 = sp.symbols("x1 x2 x3")
    rr = 0.55 * (1 + eps * sp.cos(x1 + 2 * x2 - x3))
    r2 = 1.3 * (1 + 0.7 * eps * sp.sin(2 * x1 - x3))
    exprs = _tube4_exprs((x1, x2, x3), sp.Float(3.0), r2, rr)
    axes = [periodic_axis(0.0, 2 * np.pi, m) for m in (m1, m2, m3)]
    return _patch(3, s, (x1, x2, x3), exprs, axes, orientation=1.0, name="bumpy-torus4")


def sheared_torus4(eps: float = 0.05, s: int = 2, m1: int = 20, m2: int = 20,
                   m3: int = 20) -> FoliatedPatch:
    """Sheared non-umbilic foliated 3-torus in R^4 ("sheared-torus-3").

    The chart shear x -> (x1 + x3, x2 - x3, x3) keeps 2pi-periodicity while
    making the coordinate foliation non-orthogonal; bumps break the tube
    symmetry so the leaves are non-umbilic and h_mix != 0.
    """
    x1, x2, x3 = sp.symbols("x1 x2 x3")
    y1, y2, y3 = x1 + x3, x2 - x3, x3
    rr = 0.55 * (1 + eps * sp.cos(y1 + 2 * y2 - y3))
    r2 = 1.3 * (1 + 0.7 * eps * sp.sin(2 * y1 - y3))
    exprs = _tube4_exprs((y1, y2, y3), sp.Float(3.0), r2, rr)
    axes = [periodic_axis(0.0, 2 * np.pi, m) for m in (m1, m2, m3)]
    return _patch(3, s, (x1, x2, x3), exprs, axes, orientation=1.0, name="sheared-torus4")


def product_chart(m_leaf: int = 32, m_axis: int = 16) -> FoliatedPatch:
    """Cylinder-like product L^1 x Q^1 in R^3 with a product metric."""
    return cylinder(radius=1.3, height=2.0, m_leaf=m_leaf, m_axis=m_axis)


def torus_cylinder4(big_radius: float = 2.0, small_radius: float = 0.8,
                    height: float = 2.0, m_leaf: int = 24, m_axis: int = 12,
                    ) -> FoliatedPatch:
    """Product T^2 x interval in R^4 (s=2): a Riemannian foliation with
    non-umbilic leaves, so conformal quantities are nondegenerate."""
    phi, v, z = sp.symbols("phi v z")
    w = big_radius + small_radius * sp.cos(v)
    exprs = [w * sp.cos(phi), w * sp.sin(phi), small_radius * sp.sin(v), z]
    axes = [periodic_axis(0.0, 2 * np.pi, m_leaf), periodic_axis(0.0, 2 * np.pi, m_leaf),
            gauss_axis(-height / 2, height / 2, m_axis)]
    return _patch(3, 2, (phi, v, z), exprs, axes, orientation=-1.0,
                  name="torus-cylinder4")


def tube4(r1: float = 2.0, r2: float = 0.7, m_polar: int = 24, m_azimuth: int = 32,
          m_profile: int = 48) -> FoliatedPatch:
    """Closed revolution hypersurface in R^4 foliated by 2-sphere parallels.

    Rotates the circle (rho, x4) = (r1 + r2 cos v, r2 sin v) and therefore
    has a periodic profile coordinate; leaves are round 2-spheres.
    """
    th, ph, v = sp.symbols("th ph v")
    rho = r1 + r2 * sp.cos(v)
    exprs = [rho * sp.sin(th) * sp.cos(ph), rho * sp.sin(th) * sp.sin(ph),
             rho * sp.cos(th), r2 * sp.sin(v)]
    axes = [gauss_axis(0.0, np.pi, m_polar), periodic_axis(0.0, 2 * np.pi, m_azimuth),
            periodic_axis(0.0, 2 * np.pi, m_profile)]
    return _patch(3, 2, (th, ph, v), exprs, axes, orientation=1.0, name="tube4",
                  r1=r1, r2=r2)


def torus_revolution(big_radius: float = 2.0, small_radius: float = 0.8,
                     m_leaf: int = 48, m_profile: int = 48) -> FoliatedPatch:
    """Torus as a closed revolution surface (s=1 parallels), generic radii."""
    return torus(big_radius=big_radius, small_radius=small_radius, s=1,
                 m_leaf=m_leaf, m_tube=m_profile)


CATALOG = {
    "sphere": sphere,
    "sphere-parallels": sphere_parallels,
    "plane": plane,
    "cylinder": cylinder,
    "torus": torus,
    "torus-revolution": torus_revolution,
    "bumpy-torus3": bumpy_torus3,
    "bumpy-torus4": bumpy_torus4,
    "sheared-torus4": sheared_torus4,
    "sheared-torus-3": sheared_torus4,
    "torus-cylinder4": torus_cylinder4,
    "tube4": tube4,
    "product": product_chart,
}


def build(name: str, **params) -> FoliatedPatch:
    """Instantiate a catalog surface by id."""
    try:
        builder = CATALOG[name]
    except KeyError:
        raise DomainError(f"unknown catalog surface {name!r}; known: {sorted(CATALOG)}")
    return builder(**params)
