import math

import numpy as np
import pytest

from conelab.extension import (ExtensionGateError, admissibility_gate,
                               antiradial_extension_only, cone_map_for,
                               enlarged_support_mask, extend, extend_pierre_2d,
                               extension_rows, restrict,
                               restriction_antiradial_ratio, roundtrip_error,
                               source_norm, wp_norm)
from conelab.fieldlib import (QUADRANT_MEMBERS, make_test_field,
                              suite_extension_members, suite_fullplane)
from conelab.fields import Field, lp_norm, radial_split
from conelab.geometry import ConeDomain
from conelab.grids import PolarGrid

INF = float("inf")


@pytest.fixture(scope="module")
def cone_grid(dom2):
    # deep inner radius: the membership gate reads decade trends down there
    return PolarGrid.cone(dom2, nr=220, nt=48, r_max=40.0, r_min=4e-11)


@pytest.fixture(scope="module")
def full_grid(cone_grid):
    return PolarGrid.fullplane(cone_grid)


@pytest.fixture(scope="module")
def quad_grid():
    dom = ConeDomain(2, math.pi / 4, "quadrant")
    return PolarGrid.cone(dom, nr=200, nt=48, r_max=4.0, r_min=4e-6)


@pytest.fixture(scope="module")
def quad_full(quad_grid):
    return PolarGrid.fullplane(quad_grid)


class TestRestrict:
    def test_field_supported_outside_cone(self, cone_grid, full_grid):
        def fn(r, t, h):
            # bump living in the left/right sectors, vanishing on the cones
            return np.where(np.abs(np.cos(t)) > math.cos(math.pi / 8),
                            np.exp(-r), 0.0)

        F = Field.from_function(full_grid, fn)
        rf = restrict(F, cone_grid)
        assert np.abs(rf.values).max() == 0.0

    def test_norm_monotone(self, cone_grid, full_grid):
        F = next(suite_fullplane(full_grid))
        rf = restrict(F, cone_grid)
        for p in (1.0, 2.0):
            assert lp_norm(rf, p) <= lp_norm(F, p) * (1 + 1e-9)

    def test_antiradial_chain(self, cone_grid, full_grid):
        out = restriction_antiradial_ratio(next(suite_fullplane(full_grid)),
                                           cone_grid)
        assert 0.0 < out["ratio"] < 10.0


class TestExtend:
    def test_radial_field_extends_radially(self, cone_grid, full_grid):
        f = make_test_field("radial_exp", cone_grid)
        Ef = extend(f, 1.5, full_grid)
        spread = np.abs(Ef.values[0] - Ef.values[0][:, :1]).max()
        assert spread <= 1e-14
        xi = antiradial_extension_only(f, full_grid)
        assert np.abs(xi.values).max() <= 1e-13

    def test_pipeline_matches_reflection_formula(self, cone_grid, full_grid):
        # independent oracle: on aligned grids the pulled-back/reflected/cut
        # pipeline is an exact angular index map with cutoff weights
        f = make_test_field("angular_bump", cone_grid)
        xi = antiradial_extension_only(f, full_grid)
        fa = radial_split(f).antiradial
        cmap = cone_map_for(cone_grid)
        omega = cone_grid.domain.omega
        expect = np.zeros_like(xi.values[0])
        for h in cone_grid.halves:
            tloc = ((full_grid.theta - cone_grid.domain.axis_angle(h) + math.pi)
                    % (2 * math.pi)) - math.pi
            sheet = fa.sheet(h)
            for j, t in enumerate(tloc):
                if abs(t) >= omega + cmap.enlargement:
                    continue
                u = t / cmap.kappa
                m = 1.0 if abs(u) <= math.pi / 2 else float(
                    np.clip(1 - ((abs(u) - math.pi / 2)
                                 / (cmap.source_support_angle - math.pi / 2)), 0, 1))
                src = t if abs(u) <= math.pi / 2 else math.copysign(
                    2 * omega - abs(t), t)
                jj = int(np.argmin(np.abs(cone_grid.theta - src)))
                if abs(cone_grid.theta[jj] - src) < 1e-12:
                    vals = sheet[:, jj]
                    if m == 1.0:
                        expect[:, j] += vals
        inside = np.abs(expect).max(axis=0) > 0
        assert np.allclose(xi.values[0][:, inside], expect[:, inside],
                           rtol=0, atol=1e-12)

    def test_roundtrip_small(self, cone_grid, full_grid):
        for name in ("angular_bump", "jump"):
            f = make_test_field(name, cone_grid)
            Ef = extend(f, 1.0, full_grid)
            assert roundtrip_error(f, Ef, 1.0) <= 1e-10

    def test_linearity_exact(self, cone_grid, full_grid):
        f = make_test_field("radial_exp", cone_grid)
        g = make_test_field("angular_bump", cone_grid)
        E1 = extend(f, 1.5, full_grid)
        E2 = extend(g, 1.5, full_grid)
        E12 = extend(f + g, 1.5, full_grid)
        assert np.abs(E12.values - E1.values - E2.values).max() <= 1e-13

    def test_support_confined(self, cone_grid, full_grid):
        f = make_test_field("jump", cone_grid)
        xi = antiradial_extension_only(f, full_grid)
        mask = enlarged_support_mask(full_grid, cone_grid)
        assert np.abs(xi.values[0][:, ~mask]).max() == 0.0

    def test_cutoff_never_amplifies(self, cone_grid, full_grid):
        f = make_test_field("jump", cone_grid)
        fa = radial_split(f).antiradial
        xi = antiradial_extension_only(f, full_grid)
        assert np.abs(xi.values).max() <= np.abs(fa.values).max() * (1 + 1e-12)

    def test_gate_refuses_divergent(self, cone_grid, full_grid):
        f = make_test_field("logcounter", cone_grid, beta=0.25)
        with pytest.raises(ExtensionGateError) as ei:
            extend(f, 2.0, full_grid)
        assert ei.value.growth > 0.015

    def test_gate_accepts_anti_radially_tame(self, cone_grid):
        # purely radial field with nonzero vertex value: fine at p = n
        f = make_test_field("lipschitz_compact", cone_grid)
        ok, growth = admissibility_gate(f, 2.0)
        assert ok
        # but the sign-jump field is refused at p = inf as well
        j = make_test_field("jump", cone_grid)
        assert not admissibility_gate(j, INF)[0]

    def test_report_rows(self, cone_grid, full_grid):
        rows = list(extension_rows(
            [(make_test_field("logcounter", cone_grid, beta=b), 2.0)
             for b in (1.0, 0.25)],
            lambda f, p: extend(f, p, full_grid)))
        by_field = {r["field"]: r for r in rows}
        accepted = by_field["logcounter(b=1)"]
        refused = by_field["logcounter(b=0.25)"]
        assert accepted["gate"] == "accepted"
        assert accepted["extended"].grid is full_grid
        assert refused["gate"] == "refused" and refused["extended"] is None
        assert refused["ratio"] == INF and refused["gate_growth"] > 0.015

    def test_sup_gate_verdicts(self, grid_small):
        fields = ([f for f, _ in suite_extension_members(grid_small, (INF,))]
                  + [make_test_field("jump", grid_small)])
        verdicts = {f.name: admissibility_gate(f, INF)[0] for f in fields}
        assert verdicts == {"radial_exp": True, "radial_power(a=2)": True,
                            "angular_bump": True, "lipschitz_compact": True,
                            "jump": False}


class TestExtensionCache:
    def test_gate_runs_on_a_warm_cache(self, cone_grid, full_grid):
        f = make_test_field("logcounter", cone_grid, beta=0.25)
        Ef = extend(f, 1.0, full_grid)
        assert extend(f, 1.5, full_grid) is Ef
        with pytest.raises(ExtensionGateError):
            extend(f, 2.0, full_grid)

    def test_warm_equals_cold(self, cone_grid, full_grid):
        warm = make_test_field("angular_bump", cone_grid)
        for p in (1.0, 2.0, 3.0, INF):
            Ew = extend(warm, p, full_grid)
            rt_w = roundtrip_error(warm, Ew, p)
            cold = make_test_field("angular_bump", cone_grid)
            Ec = extend(cold, p, full_grid)
            assert np.array_equal(Ew.values, Ec.values)
            assert rt_w == roundtrip_error(cold, Ec, p)


class TestPierre:
    def test_identity_on_quadrants(self, quad_grid, quad_full):
        f = make_test_field("angular_bump", quad_grid)
        Ef = extend_pierre_2d(f, quad_full)
        back = restrict(Ef, quad_grid)
        assert np.abs(back.values - f.values).max() <= 1e-12

    def test_constant_extends_to_constant(self, quad_grid, quad_full):
        f = make_test_field("constant", quad_grid, c=2.5)
        Ef = extend_pierre_2d(f, quad_full)
        assert np.abs(Ef.values - 2.5).max() <= 1e-12

    def test_closed_form_for_linear_field(self, quad_grid, quad_full):
        def xplusy(r, t, h):
            ax = quad_grid.domain.axis_angle(h)
            return r * (np.cos(ax + t) + np.sin(ax + t))

        f = Field.from_function(quad_grid, xplusy)
        Ef = extend_pierre_2d(f, quad_full)
        mask = np.zeros(quad_full.nt, bool)
        for h in quad_grid.halves:
            t = ((quad_full.theta - quad_grid.domain.axis_angle(h) + math.pi)
                 % (2 * math.pi)) - math.pi
            mask |= np.abs(t) < quad_grid.domain.omega
        rr, pp = np.meshgrid(quad_grid.r, quad_full.theta[~mask], indexing="ij")
        x, y = rr * np.cos(pp), rr * np.sin(pp)
        exact = (x + y) * (x - y) ** 2 / (x * x + y * y)
        assert np.abs(Ef.values[0][:, ~mask] - exact).max() <= 1e-12
        # the evaluation convention at (1, -1): both reflections land in the
        # opposite quadrant and the weighted sum cancels to zero
        jj = int(np.argmin(np.abs(quad_full.theta + math.pi / 4)))
        kk = int(np.argmin(np.abs(quad_grid.r - math.sqrt(2.0))))
        r0, p0 = quad_grid.r[kk], quad_full.theta[jj]
        pointwise = ((r0 * (math.cos(p0) + math.sin(p0)))
                     * (r0 * (math.cos(p0) - math.sin(p0))) ** 2 / r0**2)
        assert Ef.values[0][kk, jj] == pytest.approx(pointwise, abs=1e-12)

    def test_wrong_variant_rejected(self, cone_grid, quad_full):
        f = make_test_field("radial_exp", cone_grid)
        with pytest.raises(ValueError):
            extend_pierre_2d(f, quad_full)

    def test_pairs_above_two_need_equal_vertex_limits(self, quad_grid):
        # jump's vertex limits are +1 and -1: held at p <= n = 2 only
        pairs = [(f.name, p) for f, p in suite_extension_members(
            quad_grid, (1.0, 2.0, 3.0, INF), QUADRANT_MEMBERS)]
        assert pairs == [(name, p) for name in
                         ("radial_exp", "angular_bump", "lipschitz_compact")
                         for p in (1.0, 2.0, 3.0, INF)] + [("jump", 1.0), ("jump", 2.0)]

    def test_ratio_finite(self, quad_grid, quad_full):
        f = make_test_field("jump", quad_grid)
        Ef = extend_pierre_2d(f, quad_full)
        for p in (1.0, 1.5):
            assert wp_norm(Ef, p) / source_norm(f, p) < 100.0
