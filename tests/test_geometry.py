import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conelab.geometry import (BilipschitzConeMap, ConeDomain, ball_measure,
                              cutoff_for_map, default_enlargement,
                              doubling_ratio)


def classify(domain: ConeDomain, points) -> np.ndarray:
    """+1 / -1 / 0 for membership in the plus half, the minus half or
    neither: the membership oracle of the measure and cone-map tests."""
    x = np.asarray(points, dtype=float)
    if x.shape[-1] != domain.n:
        raise ValueError(f"expected points in R^{domain.n}, got shape {x.shape}")
    r = np.linalg.norm(x, axis=-1)
    a = domain.axis("plus")
    proj = x @ a
    cosw = math.cos(domain.omega)
    plus = proj > r * cosw
    minus = -proj > r * cosw
    out = np.zeros(x.shape[:-1], dtype=int)
    out[plus & (r > 0)] = 1
    out[minus & (r > 0)] = -1
    return out


class TestMembership:
    def test_axis_point_inside(self, dom2):
        assert classify(dom2, (0.0, 1.0)) == 1

    def test_boundary_direction_excluded(self, dom2):
        assert classify(dom2, (1.0, 0.0)) == 0
        assert classify(dom2, (1.0, 1.0)) == 0   # on the boundary ray

    def test_vertex_excluded(self, dom2):
        assert classify(dom2, (0.0, 0.0)) == 0

    def test_halves(self, dom2):
        assert classify(dom2, (0.1, 1.0)) == 1
        assert classify(dom2, (0.1, -1.0)) == -1

    def test_quadrant_variant(self):
        d = ConeDomain(2, math.pi / 4, "quadrant")
        assert classify(d, (1.0, 1.0)) == 1
        assert classify(d, (-2.0, -0.5)) == -1
        assert classify(d, (1.0, -1.0)) == 0

    def test_dimension_mismatch(self, dom2):
        with pytest.raises(ValueError):
            classify(dom2, (1.0, 2.0, 3.0))


class TestBallMeasure:
    def test_vertex_sector_2d(self, dom2):
        R = 3.0
        assert ball_measure(dom2, (0, 0), R) == pytest.approx(math.pi / 4 * R**2,
                                                              rel=1e-14)

    def test_vertex_sector_3d(self, dom3):
        R = 2.0
        exact = 2 * math.pi * (1 - math.cos(math.pi / 4)) * R**3 / 3
        assert ball_measure(dom3, (0, 0, 0), R) == pytest.approx(exact, rel=1e-14)

    def test_interior_disk(self, dom2):
        m = ball_measure(dom2, (0.0, 10.0), 1.0)
        assert m == pytest.approx(math.pi, rel=1e-6)

    def test_interior_ball_3d(self, dom3):
        m = ball_measure(dom3, (0.0, 0.0, 10.0), 1.0)
        assert m == pytest.approx(4 * math.pi / 3, rel=1e-6)

    def test_boundary_half_disk(self, dom2):
        m = ball_measure(dom2, (0.5, 0.5), 0.1)
        assert m == pytest.approx(math.pi * 0.01 / 2, rel=1e-10)

    def test_monte_carlo_cross_check(self, dom2):
        rng = np.random.default_rng(7)
        c, rad = np.array([0.4, 0.7]), 0.5
        pts = c + (rng.random((400000, 2)) * 2 - 1) * rad
        inside = (np.linalg.norm(pts - c, axis=1) < rad) & (classify(dom2, pts) == 1)
        mc = inside.mean() * (2 * rad) ** 2
        assert ball_measure(dom2, c, rad) == pytest.approx(mc, rel=0.02)

    def test_nonpositive_radius(self, dom2):
        with pytest.raises(ValueError):
            ball_measure(dom2, (0, 1), 0.0)


class TestDoubling:
    def test_vertex_exact(self, dom2, dom3):
        assert doubling_ratio(dom2, (0, 0), 1.7) == 4.0
        assert doubling_ratio(dom3, (0, 0, 0), 0.3) == 8.0

    def test_interior_locally_euclidean(self, dom2):
        assert doubling_ratio(dom2, (0.0, 10.0), 0.5) == pytest.approx(4.0, abs=1e-3)

    def test_sweep_bounded_by_vertex_value(self, dom2):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(300):
            th = rng.uniform(math.pi / 4, 3 * math.pi / 4)
            r0 = 10 ** rng.uniform(-3, 1)
            c = r0 * np.array([math.cos(th), math.sin(th)])
            rad = r0 * 10 ** rng.uniform(-2, 1)
            worst = max(worst, doubling_ratio(dom2, c, rad))
        assert worst <= 4.0 + 1e-9

    def test_sweep_3d(self, dom3):
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(40):
            t = rng.uniform(0, math.pi / 4)
            r0 = 10 ** rng.uniform(-2, 1)
            c = r0 * np.array([math.sin(t), 0.0, math.cos(t)])
            rad = r0 * 10 ** rng.uniform(-1, 0.5)
            worst = max(worst, doubling_ratio(dom3, c, rad))
        assert worst <= 8.0 + 1e-6

    def test_degenerate_ball(self, dom2):
        with pytest.raises(ValueError):
            doubling_ratio(dom2, (0, 1), -1.0)


def _upper_halfplane_points(n, rng):
    pts = rng.normal(size=(n, 2))
    pts[:, 1] = np.abs(pts[:, 1]) + 1e-12
    return pts


class TestConeMap:
    def setup_method(self):
        self.map = BilipschitzConeMap(math.pi / 2, math.pi / 4, 0.1)

    def test_axis_fixed(self):
        y = self.map.forward((0.0, 3.0))
        assert np.allclose(y, (0.0, 3.0))

    def test_norm_preserved(self):
        rng = np.random.default_rng(0)
        pts = _upper_halfplane_points(10000, rng)
        ys = self.map.forward(pts)
        rel = np.abs(np.linalg.norm(ys, axis=1) - np.linalg.norm(pts, axis=1))
        assert (rel / np.linalg.norm(pts, axis=1)).max() <= 1e-12

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(1)
        pts = _upper_halfplane_points(5000, rng)
        back = self.map.inverse(self.map.forward(pts))
        rel = np.linalg.norm(back - pts, axis=1) / np.linalg.norm(pts, axis=1)
        assert rel.max() <= 1e-9

    def test_matches_cartesian_formula(self):
        # y = (sin(k*theta)/sin(theta) x', cos(k*theta)/cos(theta) x_n)
        rng = np.random.default_rng(2)
        pts = _upper_halfplane_points(2000, rng)
        r = np.linalg.norm(pts, axis=1)
        th = np.arccos(pts[:, 1] / r)
        good = (np.abs(np.sin(th)) > 1e-3) & (np.abs(np.cos(th)) > 1e-3)
        k = self.map.kappa
        ycart = np.stack([np.sin(k * th) / np.sin(th) * pts[:, 0],
                          np.cos(k * th) / np.cos(th) * pts[:, 1]], axis=1)
        ys = self.map.forward(pts)
        assert np.abs(ys[good] - ycart[good]).max() <= 1e-11

    def test_maps_halfplane_into_cone(self, dom2):
        rng = np.random.default_rng(5)
        ys = self.map.forward(_upper_halfplane_points(3000, rng))
        assert np.all(classify(dom2, ys) == 1)

    def test_outside_source_rejected(self):
        bad = np.array([0.1, -5.0])    # angle beyond the enlarged half-space
        with pytest.raises(ValueError):
            self.map.forward(bad)

    def test_measured_bilipschitz_constant(self):
        rng = np.random.default_rng(6)
        pts = _upper_halfplane_points(4000, rng)
        eps = 1e-5 * np.linalg.norm(pts, axis=1)[:, None]
        dirs = rng.normal(size=pts.shape)
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        qts = pts + eps * dirs
        qts[:, 1] = np.abs(qts[:, 1]) + 1e-12
        num = np.linalg.norm(self.map.forward(qts) - self.map.forward(pts), axis=1)
        den = np.linalg.norm(qts - pts, axis=1)
        ratio = num[den > 0] / den[den > 0]
        L = max(ratio.max(), 1.0 / ratio.min())
        assert np.isfinite(L) and L < 10.0

    def test_enlargement_validation(self):
        with pytest.raises(ValueError):
            BilipschitzConeMap(math.pi / 2, math.pi / 4, math.pi / 4)
        assert default_enlargement(math.pi / 4) <= (math.pi / 2 - math.pi / 4) / 2


class TestCutoff:
    def setup_method(self):
        self.map = BilipschitzConeMap(math.pi / 2, math.pi / 4, 0.1)
        self.m = cutoff_for_map(self.map)

    def test_axis_one_opposite_zero(self):
        assert self.m((0.0, 2.0)) == 1.0
        assert self.m((0.0, -2.0)) == 0.0

    def test_origin_zero(self):
        assert self.m((0.0, 0.0)) == 0.0

    @given(st.floats(0.05, 20.0), st.floats(-3.1, 3.1))
    @settings(max_examples=100, deadline=None)
    def test_degree_zero_homogeneity(self, r, ang):
        x = np.array([r * math.sin(ang), r * math.cos(ang)])
        assert self.m(2.0 * x) == self.m(x)

    def test_sandwich(self):
        angles = np.linspace(0, math.pi, 400)
        vals = self.m.profile(angles)
        assert np.all((0.0 <= vals) & (vals <= 1.0))
        inside = angles <= math.pi / 2
        assert np.all(vals[inside] == 1.0)
        beyond = angles >= self.m.support_half_angle
        assert np.all(vals[beyond] == 0.0)

