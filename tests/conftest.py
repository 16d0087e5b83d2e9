import numpy as np
import pytest

from leafwise import catalog


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture(scope="session")
def bumpy3():
    return catalog.bumpy_torus3(m_leaf=12, m_tube=12)


@pytest.fixture(scope="session")
def sheared4():
    return catalog.sheared_torus4(m1=8, m2=8, m3=8)


@pytest.fixture(scope="session")
def torus_rev():
    return catalog.torus_revolution(m_leaf=32, m_profile=32)


@pytest.fixture(scope="session")
def tube4():
    return catalog.tube4(m_polar=16, m_azimuth=20, m_profile=24)


@pytest.fixture(scope="session")
def torus_cyl4():
    return catalog.torus_cylinder4(m_leaf=16, m_axis=8)


@pytest.fixture(scope="session")
def ladder_derivative():
    """The real-t oracle of the complex step: d/dt at 0 of value_at(t) by
    central differences at t = 5e-4 and 2.5e-4, Richardson-extrapolated."""
    def derivative(value_at, steps=(5e-4, 2.5e-4)):
        d1, d2 = ((value_at(t) - value_at(-t)) / (2.0 * t) for t in steps)
        r = (steps[0] / steps[1]) ** 2
        return (r * d2 - d1) / (r - 1.0)

    return derivative
