import math

import numpy as np
import pytest

from conelab.acceptance import AcceptanceContext
from conelab.config import RunConfig
from conelab.grids import PolarGrid


def test_total_measure_matches_analytic(grid_small):
    g = grid_small
    exact = 2 * g.domain.sector_measure(1) * (g.r_max**2 - g.r_min**2) / 2
    assert g.total_measure() == pytest.approx(exact, rel=1e-12)


def test_total_measure_3d(grid3_small):
    g = grid3_small
    exact = 2 * g.domain.sector_measure(1) * (g.r_max**3 - g.r_min**3) / 3
    assert g.total_measure() == pytest.approx(exact, rel=1e-12)


def test_geometric_spacing_constant(grid_small):
    ratios = grid_small.r[1:] / grid_small.r[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-9)
    assert grid_small.q < 1.0


def test_cell_measures_positive(grid_small):
    assert np.all(grid_small.cell_measure > 0)


def test_default_grid_reaches_deep(grid_default):
    assert grid_default.r_min == pytest.approx(4e-11, rel=1e-6)
    assert grid_default.nr == 600 and grid_default.nt == 96


def test_sigma_weights_consistent_with_cells(grid_small):
    # cap integral of 1 at radius r times the radial weight = ring measure
    g = grid_small
    ring = g.radial_weight * g.angular_weight.sum()
    assert np.allclose(ring, g.cell_measure.sum(axis=1), rtol=1e-14)


def test_fullplane_covers_circle(full_small):
    assert full_small.theta_edges[0] == pytest.approx(-math.pi)
    assert full_small.theta_edges[-1] == pytest.approx(math.pi)
    exact = math.pi * (full_small.r_max**2 - full_small.r_min**2)
    assert full_small.total_measure() == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("cfg", [RunConfig(), RunConfig(nr=220, nt=48, r_min=4e-8)])
def test_fullplane_shares_the_cone_radii(cfg):
    # restrict and extend read a full-plane ring as the cone's ring of the
    # same index, so the full grid holds the cone's radial arrays themselves
    ctx = AcceptanceContext(cfg)
    for cone, full in ((ctx.grid2, ctx.full2), (ctx.grid2_fine, ctx.full2_fine),
                       (ctx.gridq, ctx.fullq)):
        assert full.r is cone.r and full.r_edges is cone.r_edges
        assert PolarGrid.fullplane(cone).r is cone.r
        assert not full.r.flags.writeable and not full.r_edges.flags.writeable


def test_fullplane_alignment_with_cone(grid_small, full_small):
    # standard half-angle: cone node angles appear exactly in the full grid
    cone_angles = grid_small.global_theta("plus")
    k = np.argmin(np.abs(full_small.theta - cone_angles[0]))
    assert full_small.theta[k] == pytest.approx(cone_angles[0], abs=1e-12)


def test_radial_derivative_exact_for_linear(grid_small):
    vals = np.broadcast_to(grid_small.r[None, :, None],
                           grid_small.shape).copy()
    d = grid_small.d_dr(vals)
    assert np.abs(d - 1.0).max() <= 1e-9


def test_angular_derivative_periodic_wrap(full_small):
    vals = np.sin(full_small.theta)[None, None, :] * np.ones(
        (1, full_small.nr, 1))
    d = full_small.d_dtheta(vals)
    assert np.abs(d - np.cos(full_small.theta)[None, None, :]).max() <= 1e-3


def test_too_coarse_grid_rejected(dom2):
    with pytest.raises(ValueError):
        PolarGrid.cone(dom2, nr=2, nt=48)
    with pytest.raises(ValueError):
        PolarGrid.cone(dom2, nr=100, nt=2)


def test_fullplane_needs_2d(grid3_small):
    with pytest.raises(ValueError):
        PolarGrid.fullplane(grid3_small)
