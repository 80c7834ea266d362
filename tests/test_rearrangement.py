import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conelab import rearrangement as rar
from conelab.fieldlib import make_test_field, suite_hardy
from conelab.fields import lp_norm
from conelab.grids import PolarGrid
from conelab.rearrangement import (k_component_lower_bound, k_l1_linf,
                                   k_l1_linf_bruteforce, k_sobolev_estimate,
                                   k_split_random_search, rearrange,
                                   rearrange_samples)

def loop_random_search(values, weights, t, iters, rng):
    """One draw and one cost per splitting."""
    v = np.asarray(values, dtype=float).ravel()
    w = np.asarray(weights, dtype=float).ravel()
    vmax = np.abs(v).max() if len(v) else 0.0
    best = math.inf
    for _ in range(iters):
        g = rng.uniform(-vmax, vmax, size=v.shape)
        best = min(best, float(np.sum(np.abs(v - g) * w) + t * np.abs(g).max()))
    return best


def searchsorted_double_star_lp(table, p):
    """f** at every Gauss node through f_double_star's search."""
    xg, wg = np.polynomial.legendre.leggauss(8)
    los = np.concatenate([[0.0], table.cum[:-1]])
    his = table.cum
    mid, half = 0.5 * (los + his), 0.5 * (his - los)
    ts = mid[:, None] + half[:, None] * xg[None, :]
    ww = half[:, None] * wg[None, :]
    keep = half > 0
    vals = table.f_double_star(np.clip(ts[keep], 1e-300, None)) ** p
    acc = float(np.sum(vals * ww[keep]))
    acc += table.total_integral**p * table.total_measure ** (1.0 - p) / (p - 1.0)
    return acc ** (1.0 / p)


weighted_samples = st.lists(
    st.tuples(st.floats(-20, 20), st.floats(0.05, 3.0)),
    min_size=1, max_size=12)


class TestTable:
    def test_indicator(self):
        t = rearrange_samples([2.0], [1.5])
        assert t.f_star(0.5) == 2.0
        assert t.f_star(1.5) == 0.0          # right continuity at the jump
        assert t.f_double_star(1.5) == 2.0
        assert t.f_double_star(3.0) == pytest.approx(2.0 * 1.5 / 3.0)

    def test_sorting_example(self):
        t = rearrange_samples([3, 1, 4, 1], [1, 1, 1, 1])
        assert np.array_equal(t.values, [4, 3, 1, 1])
        assert t.f_star_integral(2.0) == 7.0

    @given(weighted_samples)
    @settings(max_examples=120, deadline=None)
    def test_step_function_laws(self, samples):
        vals = [v for v, _ in samples]
        ws = [w for _, w in samples]
        t = rearrange_samples(vals, ws)
        assert np.all(np.diff(t.values) <= 0)
        ts = np.linspace(1e-6, t.total_measure * 1.5, 37)
        fs = t.f_star(ts)
        fss = t.f_double_star(ts)
        assert np.all(fss >= fs - 1e-12)
        for p in (1.0, 2.0):
            assert t.lp_norm(p) == pytest.approx(
                float(np.sum(np.abs(vals) ** p * np.asarray(ws)) ** (1 / p)),
                rel=1e-12, abs=1e-12)
        for tt in ts:
            assert t.measure_above(t.f_star(tt)) <= tt + 1e-12


class TestKL1Linf:
    def test_example_value(self):
        assert k_l1_linf(rearrange_samples([3, 1, 4, 1], [1, 1, 1, 1]), 2.0) == 7.0

    @given(weighted_samples, st.floats(0.01, 50))
    @settings(max_examples=120, deadline=None)
    def test_matches_bruteforce(self, samples, t):
        vals = [v for v, _ in samples]
        ws = [w for _, w in samples]
        a = k_l1_linf(rearrange_samples(vals, ws), t)
        b = k_l1_linf_bruteforce(vals, ws, t)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_limits(self):
        t = rearrange_samples([3, 1, 4, 1], [1, 1, 1, 1])
        assert k_l1_linf(t, 1e9) == pytest.approx(t.total_integral)
        assert k_l1_linf(t, 1e-9) == pytest.approx(1e-9 * 4.0)

    @pytest.mark.parametrize("m, iters", [(1, 100), (4, 20000), (37, 5000),
                                          (70000, 3)])
    def test_random_search_equals_loop(self, m, iters):
        # blocks of whole rows, one row when a row alone exceeds the block
        draw = np.random.default_rng(11)
        vals, w = draw.uniform(-3, 3, m), draw.uniform(0.2, 1.5, m)
        got_rng, want_rng = np.random.default_rng(12), np.random.default_rng(12)
        got = k_split_random_search(vals, w, 0.7, iters=iters, rng=got_rng)
        assert got == loop_random_search(vals, w, 0.7, iters, want_rng)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_random_splits_never_beat_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            vals = rng.uniform(-3, 3, 4)
            ws = rng.uniform(0.2, 1.5, 4)
            t = 10 ** rng.uniform(-1, 1)
            k = k_l1_linf(rearrange_samples(vals, ws), t)
            best = k_split_random_search(vals, ws, t, iters=3000, rng=rng)
            assert best >= k - 1e-12

    def test_concave_nondecreasing(self, grid_small):
        f = make_test_field("radial_exp", grid_small)
        ts = np.geomspace(1e-4, 1e3, 40)
        ks = np.array([k_l1_linf(rearrange(f), t) for t in ts])
        assert np.all(np.diff(ks) >= -1e-14)
        # concavity on a uniform sub-grid
        tu = np.linspace(0.01, 5.0, 30)
        ku = np.array([k_l1_linf(rearrange(f), t) for t in tu])
        second = np.diff(ku, 2)
        assert np.all(second <= 1e-10)


class TestSobolevEstimate:
    def test_zero_field(self, grid_small):
        z = make_test_field("constant", grid_small, c=0.0)
        assert k_sobolev_estimate(z, 1.0) == 0.0

    def test_positive_homogeneity(self, grid_small):
        f = make_test_field("angular_bump", grid_small)
        a = k_sobolev_estimate(f, 0.3)
        b = k_sobolev_estimate(2.0 * f, 0.3)
        assert b == pytest.approx(2 * a, rel=1e-12)

    def test_concave_nondecreasing(self, grid_small):
        f = make_test_field("logcounter", grid_small, beta=1.0)
        tu = np.linspace(0.05, 4.0, 25)
        ks = np.array([k_sobolev_estimate(f, t) for t in tu])
        assert np.all(np.diff(ks) >= -1e-12)
        assert np.all(np.diff(ks, 2) <= 1e-9)

    def test_component_lower_bound_leq_estimate(self, grid_small):
        f = make_test_field("logcounter", grid_small, beta=1.0)
        for t in (0.01, 1.0, 100.0):
            assert k_component_lower_bound(f, t) <= k_sobolev_estimate(f, t)


class TestFieldTables:
    def test_unknown_weight_refused(self, grid_small):
        f = make_test_field("radial_exp", grid_small)
        with pytest.raises(ValueError, match="inv-r"):
            rearrange(f, "inv-r")
        assert ("rearrangement", "inv-r") not in f._cache

    def test_equimeasurability(self, grid_small):
        f = make_test_field("angular_bump", grid_small)
        t = rearrange(f)
        for p in (1.0, 2.0, 7 / 3):
            assert t.lp_norm(p) == pytest.approx(lp_norm(f, p), rel=1e-12)

    def test_equimeasurability_past_overflow(self, dom2):
        # 1e100**4 overflows a double; both norms stay finite and agree
        grid = PolarGrid.cone(dom2, nr=40, nt=8, r_max=40.0, r_min=1e-3)
        f = make_test_field("constant", grid, c=1e100)
        assert rearrange(f).lp_norm(4.0) == pytest.approx(lp_norm(f, 4.0),
                                                          rel=1e-12)

    def test_weighted_table(self, grid_small):
        f = make_test_field("radial_exp", grid_small)
        t = rearrange(f, weight="inv_r")
        assert t.lp_norm(1.0) == pytest.approx(lp_norm(f, 1.0, weight="inv_r"),
                                               rel=1e-12)

    def test_double_star_norm_bound(self, grid_small):
        f = make_test_field("lipschitz_compact", grid_small)
        t = rearrange(f)
        for p in (2.0, 3.0):
            assert t.double_star_lp(p) <= (p / (p - 1)) * t.lp_norm(p) * 1.01

    def test_double_star_equals_search(self, grid_small, monkeypatch):
        # tiny steps after a large measure: rounding puts Gauss nodes outside
        # their own step, where only the search gives f_double_star's value;
        # every node of every block is compared, at the module's block size
        # and at one that splits each table into many blocks
        rng = np.random.default_rng(3)
        tiny = rearrange_samples(np.linspace(2.0, 1.0, 400),
                                 np.concatenate([[1e6], rng.uniform(1e-11, 1e-9, 399)]))
        tables = [rearrange(f) for f in suite_hardy(grid_small)] + [tiny]
        for block in (rar._NODE_BLOCK, 7):
            monkeypatch.setattr(rar, "_NODE_BLOCK", block)
            for t in tables:
                steps = np.count_nonzero(t.cum > np.r_[0.0, t.cum[:-1]])
                blocks = list(t.double_star_nodes())
                assert len(blocks) == -(-steps // block)
                for ts, _, fss in blocks:
                    assert len(ts) <= block
                    assert np.array_equal(fss, t.f_double_star(ts))
                assert sum(len(ts) for ts, _, _ in blocks) == steps
                for p in (1.5, 2.0, 7 / 3, 3.0):
                    assert t.double_star_lp(p) == searchsorted_double_star_lp(t, p)
        lo = np.concatenate([[0.0], tiny.cum[:-1]])
        keep = tiny.cum > lo
        ts = np.concatenate([b[0] for b in tiny.double_star_nodes()])
        assert np.sum((ts < lo[keep, None]) | (ts >= tiny.cum[keep, None])) > 100

    def test_double_star_rejects_p1(self, grid_small):
        t = rearrange(make_test_field("radial_exp", grid_small))
        with pytest.raises(ValueError):
            t.double_star_lp(1.0)
