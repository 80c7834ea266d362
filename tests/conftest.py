import math

import pytest

from conelab.geometry import ConeDomain
from conelab.grids import PolarGrid


@pytest.fixture(scope="session")
def dom2():
    return ConeDomain(2, math.pi / 4)


@pytest.fixture(scope="session")
def dom3():
    return ConeDomain(3, math.pi / 4)


@pytest.fixture(scope="session")
def grid_small(dom2):
    """Fast structural grid: shallow inner radius."""
    return PolarGrid.cone(dom2, nr=220, nt=48, r_max=40.0, r_min=4e-8)


@pytest.fixture(scope="session")
def grid_default(dom2):
    """The production grid used for quantitative oracles."""
    return PolarGrid.cone(dom2)


@pytest.fixture(scope="session")
def grid3_small(dom3):
    return PolarGrid.cone(dom3, nr=220, nt=48, r_max=40.0, r_min=4e-8)


@pytest.fixture(scope="session")
def full_small(grid_small):
    return PolarGrid.fullplane(grid_small)


@pytest.fixture(scope="session")
def oracle_grid(dom2):
    """Shallow radial span: vertex depth is irrelevant for smooth radial
    profiles and the coarser log-spacing buys quadrature accuracy."""
    return PolarGrid.cone(dom2, nr=600, nt=96, r_max=40.0, r_min=4e-4)
