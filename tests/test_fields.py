import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from conelab.czd import hardy_sobolev_l1, maximal_function, maximal_table
from conelab.extension import (extend, restrict, roundtrip_error, source_norm,
                               wp_norm)
from conelab.fieldlib import make_test_field, suite_hardy
from conelab.fields import (Field, cap_mean, gradient, hardy_quotient,
                            integrability_gate, load_field, lp_norm,
                            partial_norm_power_table, poincare_ball_ratio,
                            poincare_rows, radial_split, save_field)
from conelab.grids import PolarGrid
from conelab.profiles import plateau
from conelab.rearrangement import rearrange, rearrange_samples

INF = float("inf")


class TestGradient:
    def test_constant(self, grid_small):
        f = make_test_field("constant", grid_small, c=3.0)
        g = gradient(f)
        assert np.abs(g.radial).max() == 0.0
        assert np.abs(g.angular).max() == 0.0

    def test_linear_radial(self, grid_small):
        f = Field.from_function(grid_small, lambda r, t, h: r)
        g = gradient(f)
        assert np.abs(g.radial - 1.0).max() <= 1e-9
        assert np.abs(g.angular).max() <= 1e-9

    def test_analytic_second_order(self, dom2):
        errs = []
        for nt in (24, 48, 96):
            grid = PolarGrid.cone(dom2, nr=200, nt=nt, r_max=2.0, r_min=1e-3)
            f = Field.from_function(grid, lambda r, t, h: r**2 * np.cos(t))
            g = gradient(f)
            rr, tt = np.meshgrid(grid.r, grid.theta, indexing="ij")
            err = np.abs(g.angular[0] - (-rr * np.sin(tt))).max()
            errs.append(err)
        order = math.log2(errs[0] / errs[1])
        assert order > 1.8
        g = gradient(Field.from_function(
            PolarGrid.cone(dom2, nr=200, nt=48, r_max=2.0, r_min=1e-3),
            lambda r, t, h: r**2 * np.cos(t)))
        assert np.abs(g.radial[0] / (2 * np.cos(g.grid.theta))[None, :]
                      - g.grid.r[:, None]).max() <= 1e-6

    def test_needs_three_nodes(self, dom2):
        grid = PolarGrid.cone(dom2, nr=3, nt=3, r_max=1.0, r_min=0.1)
        f = Field.from_function(grid, lambda r, t, h: r)
        gradient(f)  # minimal size passes


class TestNorms:
    def test_zero_field(self, grid_small):
        z = make_test_field("constant", grid_small, c=0.0)
        for p in (1.0, 2.0, INF):
            assert lp_norm(z, p) == 0.0

    def test_exponential_oracle(self, oracle_grid):
        # int over one half-cone of r e^{-r}: arc (pi/2) times Gamma(3) / 2 = pi
        f = make_test_field("radial_exp", oracle_grid)
        assert lp_norm(f, 1.0, half="plus") == pytest.approx(math.pi, rel=1e-4)
        assert lp_norm(f, 1.0) == pytest.approx(2 * math.pi, rel=1e-4)

    def test_weighted_oracle(self, oracle_grid):
        f = make_test_field("radial_exp", oracle_grid)
        assert lp_norm(f, 1.0, weight="inv_r", half="plus") == pytest.approx(
            math.pi / 2, rel=1e-4)

    def test_sup_norm(self, grid_small):
        f = make_test_field("radial_exp", grid_small)
        assert lp_norm(f, INF) == pytest.approx(math.exp(-1.0), rel=1e-3)

    def test_norm_kinds(self, grid_small):
        f = make_test_field("radial_exp", grid_small)
        assert lp_norm(f, 1.0) < wp_norm(f, 1.0) < hardy_sobolev_l1(f)
        assert lp_norm(f, 2.0) < wp_norm(f, 2.0)
        # at p = n the membership norm adds the anti-radial part: 0 here
        assert source_norm(f, 2.0) == pytest.approx(wp_norm(f, 2.0), rel=1e-10)

    def test_antiradial_norm_needs_critical_exponent(self, grid_small):
        f = make_test_field("angular_bump", grid_small)
        assert source_norm(f, 3.0) == wp_norm(f, 3.0)
        assert source_norm(f, 2.0) > wp_norm(f, 2.0)

    def test_homogeneous_past_overflow(self, grid_small):
        # 1e100**4 overflows a double; the norm itself does not
        one = make_test_field("constant", grid_small, c=1.0)
        big = make_test_field("constant", grid_small, c=1e100)
        for weight in ("none", "inv_r"):
            assert lp_norm(big, 4.0, weight=weight) == pytest.approx(
                1e100 * lp_norm(one, 4.0, weight=weight), rel=1e-12)

    def test_invalid_spec(self, grid_small):
        f = make_test_field("radial_exp", grid_small)
        with pytest.raises(ValueError):
            lp_norm(f, 0.5)
        with pytest.raises(ValueError):
            lp_norm(f, 2.0, weight="bogus")

    def test_quadrature_second_order(self, dom2):
        # smooth compactly supported field; refine radially and angularly
        def fn(r, t, h):
            return np.maximum(0.0, 1 - r)**3 * np.cos(t)

        vals = []
        for scale in (1, 2, 4):
            grid = PolarGrid.cone(dom2, nr=100 * scale, nt=16 * scale,
                                  r_max=2.0, r_min=1e-4)
            vals.append(lp_norm(Field.from_function(grid, fn), 2.0))
        e1, e2 = abs(vals[0] - vals[2]), abs(vals[1] - vals[2])
        assert math.log2(e1 / e2) > 1.6


class TestHardyQuotient:
    def test_radial_exp_oracle(self, grid_default):
        # 1D oracle: ratio = int e^{-r} dr / int |1-r| r e^{-r} dr
        num = quad(lambda r: math.exp(-r), 0, 60)[0]
        den = quad(lambda r: abs(1 - r) * r * math.exp(-r), 0, 60)[0]
        f = make_test_field("radial_exp", grid_default)
        assert den == pytest.approx(1.20728, rel=1e-4)
        assert hardy_quotient(f, 1.0) == pytest.approx(num / den, rel=5e-3)

    def test_bound_below_dimension_3d(self, grid3_small):
        for f in suite_hardy(grid3_small):
            assert hardy_quotient(f, 1.0) <= 0.5 * 1.05

    def test_zero_gradient_rejected(self, grid_small):
        c = make_test_field("constant", grid_small, c=1.0)
        with pytest.raises(ValueError):
            hardy_quotient(c, 1.0)

    def test_divergence_above_dimension_without_vertex_correction(self, dom2):
        # f(0) != 0 and p > n: the raw quotient grows as the grid deepens
        f4 = []
        for rmin in (1e-4, 1e-8):
            grid = PolarGrid.cone(dom2, nr=300, nt=32, r_max=40.0, r_min=rmin)
            f = make_test_field("lipschitz_compact", grid)
            f4.append(hardy_quotient(f, 4.0))
        assert f4[1] > 5.0 * f4[0]

    def test_vertex_corrected_quotient_stable(self, dom2):
        # subtracting the vertex value times a radial plateau leaves a field
        # vanishing at the vertex, whose quotient no longer grows
        vals = []
        for rmin in (1e-4, 1e-8):
            grid = PolarGrid.cone(dom2, nr=300, nt=32, r_max=40.0, r_min=rmin)
            f = make_test_field("lipschitz_compact", grid)
            c = f.vertex_limits[0]
            f = f.with_values(f.values - c * plateau(grid.r, 0.5, 1.0)[None, :, None])
            vals.append(hardy_quotient(f, 4.0))
        assert vals[1] == pytest.approx(vals[0], rel=0.05)


class TestSplits:
    def test_radial_field_has_no_antiradial_part(self, grid_small):
        f = make_test_field("radial_exp", grid_small)
        sp = radial_split(f)
        assert np.abs(sp.antiradial.values).max() <= 1e-14

    def test_sign_field_is_purely_antiradial(self, grid_small):
        f = make_test_field("jump", grid_small)
        sp = radial_split(f)
        assert np.abs(sp.profile).max() == 0.0
        assert np.array_equal(sp.antiradial.values, f.values)

    def test_ring_means_vanish(self, grid_small):
        rng = np.random.default_rng(0)
        c = rng.normal(size=4)

        def fn(r, t, h):
            s = 1.0 if h == "plus" else -1.0
            return (c[0] * np.exp(-r) + c[1] * r * np.exp(-r) * np.sin(t)
                    + s * c[2] * np.exp(-(r - 1) ** 2) + c[3] * np.cos(t))

        sp = radial_split(Field.from_function(grid_small, fn))
        assert np.abs(cap_mean(sp.antiradial)).max() <= 1e-10

    def test_idempotent(self, grid_small):
        f = make_test_field("angular_bump", grid_small)
        sp = radial_split(f)
        sp2 = radial_split(sp.radial)
        assert np.abs(sp2.antiradial.values).max() <= 1e-14
        assert np.allclose(sp2.radial.values, sp.radial.values)

    def test_reconstruction_exact(self, grid_small):
        f = make_test_field("angular_bump", grid_small)
        sp = radial_split(f)
        scale = np.abs(f.values).max()
        assert np.abs(sp.radial.values + sp.antiradial.values
                      - f.values).max() <= 2e-16 * scale

    def test_contraction_exact_discrete(self, grid_small):
        # Jensen with shared quadrature weights: no tolerance needed
        for f in suite_hardy(grid_small):
            sp = radial_split(f)
            for p in (1.0, 2.0):
                assert lp_norm(sp.radial, p) <= lp_norm(f, p) * (1 + 1e-12)
                dr = gradient(sp.radial)
                gm = gradient(f)
                assert lp_norm(dr, p) <= lp_norm(gm, p) * (1 + 1e-12)

    def test_even_odd_matches_antiradial_verdicts(self, grid_small):
        # at the critical exponent the anti-radial part and the odd part
        # (f - f o S)/2, S swapping the sheets, agree on divergence
        for beta in (0.25, 1.0):
            f = make_test_field("logcounter", grid_small, beta=beta)
            fa = radial_split(f).antiradial
            fo = 0.5 * (f.values - f.values[::-1])
            va = integrability_gate(fa.values, grid_small, 2.0)[0]
            vo = integrability_gate(fo, grid_small, 2.0)[0]
            assert va == vo


class TestPoincare:
    def test_ball_constant_zero(self, grid_small):
        f = make_test_field("constant", grid_small, c=1.0)
        assert poincare_ball_ratio(f, (0.0, 1.0), 0.3, 1.0) == 0.0

    def test_ball_interior_stable(self, dom2):
        vals = []
        for nt in (48, 96):
            grid = PolarGrid.cone(dom2, nr=300, nt=nt, r_max=4.0, r_min=1e-4)
            f = Field.from_function(grid, lambda r, t, h: r * np.sin(t))
            vals.append(poincare_ball_ratio(f, (0.0, 1.0), 0.25, 1.0))
        assert vals[0] == pytest.approx(vals[1], rel=0.05)
        assert 0.0 < vals[1] < 10.0

    def test_ball_fails_at_vertex_for_low_exponent(self, grid_small):
        # locally constant sign field: zero gradient, order-one oscillation
        f = make_test_field("jump", grid_small)
        chi = Field(grid_small,
                    np.where(grid_small.r[None, :, None] < 0.05,
                             np.sign(f.values), 0.0))
        ratio = poincare_ball_ratio(chi, (0.0, 0.01), 0.02, 1.0)
        assert ratio == INF

    def test_rows_slope_changes_sign_at_dimension(self, grid_small):
        # ratio ~ eps^{1-n/q}: blows up below the dimension, decays above it
        rows = list(poincare_rows(grid_small, (1.5, 4.0), (1e-2, 1e-3, 1e-4)))
        assert [r["profile"] for r in rows] == ["linear", "linear"]
        assert rows[0]["slope"] < 0.0 < rows[1]["slope"]
        assert np.all(np.diff(rows[0]["ratio"]) > 0)

    def test_rows_log_profile_only_at_dimension(self, grid_small):
        rows = list(poincare_rows(grid_small, (2.0,), (1e-2, 1e-3)))
        assert [r["profile"] for r in rows] == ["linear", "log"]
        # ratio^2 ~ log(1/eps)/2 while the grid resolves eps^2
        law = rows[1]["ratio"] ** 2 / np.log(1.0 / rows[1]["eps"])
        assert law[1] == pytest.approx(law[0], rel=0.02)
        assert 0.45 < law.mean() < 0.6


class TestDivergenceTables:
    def test_logcounter_beta_quarter_slope(self, grid_default):
        from conelab.fields import log_log_increment_slope
        f = make_test_field("logcounter", grid_default, beta=0.25)
        r_mins, P = partial_norm_power_table(f.values, grid_default, 2.0)
        s = log_log_increment_slope(r_mins, P)
        assert s == pytest.approx(0.5, abs=0.05)

    def test_gate_verdicts(self, grid_default):
        verdicts = {}
        for beta in (0.25, 0.5, 1.0):
            f = make_test_field("logcounter", grid_default, beta=beta)
            verdicts[beta] = integrability_gate(f.values, grid_default, 2.0)[0]
        assert verdicts == {0.25: False, 0.5: False, 1.0: True}

    def test_sup_table_matches_bruteforce(self, grid_small):
        # p = inf: the running sup of |v|/r over the rings with r >= r_min'
        g = grid_small
        for f in (make_test_field("jump", g),
                  make_test_field("logcounter", g, beta=0.25)):
            v = radial_split(f).antiradial.values
            r_mins, P = partial_norm_power_table(v, g, INF)
            w = np.abs(v) / g.r[None, :, None]
            for r0, got in zip(r_mins, P):
                assert got == w[:, g.r >= r0, :].max()


class TestFieldPlumbing:
    def test_shape_mismatch(self, grid_small):
        with pytest.raises(ValueError):
            Field(grid_small, np.zeros((2, 3, 3)))

    def test_unknown_family(self, grid_small):
        with pytest.raises(ValueError):
            make_test_field("nope", grid_small)

    def test_logcounter_zero_at_unit_radius(self, dom2):
        # |ln r|^-beta is infinite at r = 1, outside the cutoff's support
        grid = PolarGrid.cone(dom2, nr=3, nt=3, r_max=1.0)
        assert grid.r[-1] == 1.0
        f = make_test_field("logcounter", grid, beta=0.25)
        assert np.all(f.values[:, -1, :] == 0.0)

    def test_vertex_limits_declared(self, grid_small):
        j = make_test_field("jump", grid_small)
        assert j.vertex_limits == (1.0, -1.0)
        c = make_test_field("lipschitz_compact", grid_small)
        assert c.vertex_limits == (1.0, 1.0)

    def test_innermost_samples_approach_declared_limits(self, dom2):
        gaps = {}
        for rmin in (1e-4, 1e-8):
            grid = PolarGrid.cone(dom2, nr=200, nt=24, r_max=40.0, r_min=rmin)
            for name in ("jump", "lipschitz_compact", "logcounter"):
                f = make_test_field(name, grid)
                inner = f.values[:, 0, :].mean(axis=1)
                gaps.setdefault(name, []).append(
                    np.abs(inner - np.asarray(f.vertex_limits)).max())
        for name, (coarse, deep) in gaps.items():
            assert deep <= coarse, name          # refinement never regresses
        assert gaps["logcounter"][1] < 0.6 * gaps["logcounter"][0]

    def test_dump_roundtrip(self, dom2, tmp_path):
        grid = PolarGrid.cone(dom2, nr=20, nt=8, r_max=2.0, r_min=0.01)
        f = make_test_field("angular_bump", grid)
        path = tmp_path / "field.txt"
        save_field(f, str(path))
        g = load_field(str(path))
        assert g.grid.shape == f.grid.shape
        assert np.allclose(g.values, f.values, rtol=0, atol=0)
        head = path.read_text().splitlines()[:7]
        assert head[0] == "n=2" and head[3] == "K=20" and head[4] == "J=16"

    @given(a=st.floats(-3, 3), b=st.floats(-3, 3))
    @settings(max_examples=30, deadline=None)
    def test_split_linearity(self, grid_small, a, b):
        f = make_test_field("angular_bump", grid_small)
        g = make_test_field("jump", grid_small)
        lhs = radial_split(a * f + b * g).radial.values
        rhs = a * radial_split(f).radial.values + b * radial_split(g).radial.values
        assert np.allclose(lhs, rhs, atol=1e-12)


def _never():
    raise AssertionError("built on a repeat call")


class TestFieldCache:
    def test_repeat_calls_return_the_stored_object(self, dom2):
        grid = PolarGrid.cone(dom2, nr=40, nt=12, r_max=40.0, r_min=4e-8)
        full = PolarGrid.fullplane_matching(grid)
        f = make_test_field("angular_bump", grid)
        ops = [lambda: gradient(f), lambda: rearrange(f),
               lambda: rearrange(f, "inv_r"), lambda: rearrange(f, "gradient"),
               lambda: maximal_function(f, "plus"),
               lambda: maximal_table(f, "plus"),
               lambda: extend(f, 1.0, full)[0]]
        for op in ops:
            assert op() is op()
        # one extension per full grid: a second grid does not evict the first
        Ef = extend(f, 1.0, full)[0]
        other = extend(f, 1.0, PolarGrid.fullplane_matching(grid))[0]
        assert other is not Ef and extend(f, 1.5, full)[0] is Ef
        # the round-trip difference is kept per Ef and serves every exponent
        rt = roundtrip_error(f, Ef, 1.0)
        diff = f.cached(("roundtrip", Ef), _never)
        assert roundtrip_error(f, Ef, 1.0) == rt
        roundtrip_error(f, Ef, 2.0)
        assert f.cached(("roundtrip", Ef), _never) is diff
        assert np.array_equal(diff.values, (restrict(Ef, grid) - f).values)

    def test_derived_fields_start_empty(self, grid_small):
        f = make_test_field("angular_bump", grid_small)
        rearrange(f, "gradient")
        assert f._cache
        assert not (f - f)._cache
        assert not f.with_values(f.values)._cache

    def test_gradient_table_is_the_magnitude_table(self, grid_small):
        f = make_test_field("jump", grid_small)
        gm = gradient(f).magnitude()
        want = rearrange_samples(
            gm, np.broadcast_to(grid_small.cell_measure[None], gm.shape))
        got = rearrange(f, "gradient")
        for name in ("values", "widths", "cum", "integral"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
