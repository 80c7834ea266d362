"""Ball-window layer against brute-force balls and the per-ring loops it replaced."""

import math
import warnings

import numpy as np
import pytest
from scipy.ndimage import maximum_filter1d

from conelab.acceptance import AcceptanceContext
from conelab.ballops import (BallAverager, SheetBalls, _nearest_cosines,
                             distance_to_cells)
from conelab.config import RunConfig
from conelab.czd import combined_intensity
from conelab.geometry import ConeDomain
from conelab.grids import PolarGrid


# -- reference: one center ring at a time ------------------------------------

def loop_full_ring_range(sheet, R, rho, lo, hi):
    span = float(sheet.theta[-1] - sheet.theta[0])
    co = math.cos(min(math.pi, span))
    disc = R * R * co * co - R * R + rho * rho
    if disc <= 0.0:
        return lo, lo - 1
    root = math.sqrt(disc)
    flo = int(np.searchsorted(sheet.r, R * co - root, side="left"))
    fhi = int(np.searchsorted(sheet.r, R * co + root, side="right")) - 1
    return max(flo, lo), min(fhi, hi)


def loop_partial_parts(sheet, k, rho):
    """(flo, fhi) and the (rings, half-widths) below and above the full range."""
    R = float(sheet.r[k])
    lo, hi = (int(i) for i in sheet.ring_span(R, rho))
    flo, fhi = loop_full_ring_range(sheet, R, rho, lo, hi)
    parts = []
    for a, b in ((lo, flo - 1), (fhi + 1, hi)):
        if b >= a:
            rings = np.arange(a, b + 1)
            parts.append((rings, sheet.half_widths(R, rho, rings)))
    return flo, fhi, parts


def loop_window_sums(sheet, cum, rings, ws):
    j = np.arange(sheet.nt)
    lo = np.clip(j[None, :] - ws[:, None], 0, sheet.nt)
    hi = np.clip(j[None, :] + ws[:, None] + 1, 0, sheet.nt)
    rows = cum[rings]
    return (np.take_along_axis(rows, hi, axis=1)
            - np.take_along_axis(rows, lo, axis=1)).sum(axis=0)


def loop_averages(sheet, intensity, rho):
    meas = sheet.grid.cell_measure
    weighted = intensity * meas
    # per-row prefix sums with a leading zero column, and row-total ones
    num_c, den_c = (np.pad(np.cumsum(a, axis=1), ((0, 0), (1, 0)))
                    for a in (weighted, meas))
    row_num, row_den = (np.r_[0.0, np.cumsum(a.sum(axis=1))] for a in (weighted, meas))
    out = np.empty((sheet.nr, sheet.nt))
    for k in range(sheet.nr):
        flo, fhi, parts = loop_partial_parts(sheet, k, rho)
        if fhi >= flo:
            num = np.full(sheet.nt, row_num[fhi + 1] - row_num[flo])
            den = np.full(sheet.nt, row_den[fhi + 1] - row_den[flo])
        else:
            num = np.zeros(sheet.nt)
            den = np.zeros(sheet.nt)
        for rings, ws in parts:
            num += loop_window_sums(sheet, num_c, rings, ws)
            den += loop_window_sums(sheet, den_c, rings, ws)
        out[k] = num / den
    return out


def loop_dilate(sheet, values, rho):
    qmax = max(1, int(math.ceil(math.log2(sheet.nt))) + 1)
    sizes = [0] + [2**q for q in range(qmax)]
    filt = np.empty((len(sizes), sheet.nr, sheet.nt))
    filt[0] = values
    for i, s in enumerate(sizes[1:], start=1):
        filt[i] = maximum_filter1d(values, size=2 * s + 1, axis=1, mode="nearest")
    rowmax = values.max(axis=1)
    out = np.empty((sheet.nr, sheet.nt))
    for k in range(sheet.nr):
        flo, fhi, parts = loop_partial_parts(sheet, k, rho)
        row = np.full(sheet.nt, rowmax[flo:fhi + 1].max() if fhi >= flo else -np.inf)
        for rings, ws in parts:
            qidx = np.zeros(len(ws), dtype=np.int64)
            pos = ws > 0
            qidx[pos] = np.floor(np.log2(ws[pos])).astype(np.int64) + 1
            np.maximum(row, filt[qidx, rings].max(axis=0), out=row)
        out[k] = row
    return out


def loop_maximal(sheet, intensity):
    out = np.array(intensity, dtype=float)
    for rho in sheet.dyadic_radii():
        avg = loop_averages(sheet, intensity, rho)
        np.maximum(out, loop_dilate(sheet, avg, rho), out=out)
    return out


def loop_distance(sheet, target_mask, query_mask):
    """Pruned sweep over ring pairs: per query ring, target rings by
    increasing radial gap until no query cell can improve; within a ring the
    nearest target is angularly adjacent in the sorted index list."""
    nr, nt, r, theta = sheet.nr, sheet.nt, sheet.r, sheet.theta
    tj = [np.flatnonzero(target_mask[k]) for k in range(nr)]
    t_th = [theta[ix] for ix in tj]
    out = np.full((nr, nt), np.inf)
    target_rings = np.flatnonzero([len(ix) > 0 for ix in tj])
    for k in range(nr):
        js = np.flatnonzero(query_mask[k])
        if len(js) == 0:
            continue
        R = float(r[k])
        th_q = theta[js]
        best2 = np.full(len(js), np.inf)
        order = target_rings[np.argsort(np.abs(r[target_rings] - R), kind="stable")]
        for kp in order:
            gap = r[kp] - R
            if gap * gap >= best2.max():
                break
            th_t = t_th[kp]
            pos = np.searchsorted(th_t, th_q)
            rr = float(r[kp])
            for cand in (pos - 1, pos):
                ok = (cand >= 0) & (cand < len(th_t))
                if not ok.any():
                    continue
                dth = np.abs(th_q[ok] - th_t[np.clip(cand, 0, len(th_t) - 1)[ok]])
                d2 = R * R + rr * rr - 2.0 * R * rr * np.cos(dth)
                best2[ok] = np.minimum(best2[ok], d2)
        out[k, js] = np.sqrt(np.maximum(best2, 0.0))
    return out


# -- brute force: exact Euclidean balls over the sheet's nodes ----------------

def node_distances(grid):
    pts = grid.points("plus").reshape(-1, 2)
    return np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)


@pytest.fixture(scope="module")
def tiny(dom2):
    grid = PolarGrid.cone(dom2, nr=40, nt=12, r_max=4.0, r_min=4e-3)
    return grid, SheetBalls(grid), node_distances(grid)


@pytest.fixture(scope="module")
def radii(tiny):
    _, sheet, _ = tiny
    extra = np.random.default_rng(1).uniform(5e-3, 6.0, 6)
    return np.concatenate([sheet.dyadic_radii(), extra])


class TestAverages:
    def test_matches_bruteforce_balls(self, tiny, radii):
        grid, sheet, dist = tiny
        x = np.random.default_rng(2).uniform(0.1, 5.0, (grid.nr, grid.nt))
        meas = grid.cell_measure.ravel()
        av = BallAverager(sheet, x)
        ties = 0
        for rho in radii:
            got = av.averages(sheet.cut_rings(rho)).ravel()
            ok = []
            # a node on the sphere to rounding may fall on either side
            for inside in (dist < rho * (1 - 1e-12), dist < rho * (1 + 1e-12)):
                brute = (inside @ (x.ravel() * meas)) / (inside @ meas)
                ok.append(np.abs(got - brute) <= 1e-12 * brute)
            assert np.all(ok[0] | ok[1])
            ties += int(np.sum(~(ok[0] & ok[1])))
        assert ties <= 8

    def test_equals_ring_loop(self, tiny, radii):
        grid, sheet, _ = tiny
        x = np.random.default_rng(3).uniform(0.1, 5.0, (grid.nr, grid.nt))
        av = BallAverager(sheet, x)
        for rho in radii:
            assert np.array_equal(av.averages(sheet.cut_rings(rho)),
                                  loop_averages(sheet, x, rho))


class TestDilate:
    @pytest.mark.parametrize("shape", [(40, 12), (220, 48), (40, 3), (60, 37)])
    def test_equals_ring_loop(self, dom2, shape):
        grid = PolarGrid.cone(dom2, nr=shape[0], nt=shape[1], r_max=40.0,
                              r_min=4e-8 if shape[0] > 60 else 4e-2)
        sheet = SheetBalls(grid)
        rng = np.random.default_rng(4)
        # ties: three values only; -inf at scattered cells and on whole rings
        ties = rng.integers(0, 3, (grid.nr, grid.nt)).astype(float)
        ties[rng.random(ties.shape) < 0.2] = -np.inf
        ties[::7] = -np.inf
        for v in (rng.random((grid.nr, grid.nt)), ties):
            for rho in sheet.dyadic_radii():
                assert np.array_equal(sheet.ball_dilate(v, sheet.cut_rings(rho)),
                                      loop_dilate(sheet, v, rho))

    def test_minorant_of_exact_dilation(self, tiny, radii):
        grid, sheet, dist = tiny
        v = np.random.default_rng(5).random((grid.nr, grid.nt))
        for rho in radii:
            exact = np.where(dist < rho, v.ravel()[None, :], -np.inf).max(axis=1)
            dil = sheet.ball_dilate(v, sheet.cut_rings(rho)).ravel()
            assert np.all(dil <= exact)
            assert np.all(dil >= v.ravel())


class TestWindows:
    @pytest.mark.parametrize("shape", [(40, 12), (220, 48)])
    def test_equals_ball_rows(self, dom2, shape):
        grid = PolarGrid.cone(dom2, nr=shape[0], nt=shape[1], r_max=40.0,
                              r_min=4e-8 if shape[0] > 40 else 4e-2)
        sheet = SheetBalls(grid)
        rng = np.random.default_rng(6)
        ks = rng.integers(0, grid.nr, 200)
        js = rng.integers(0, grid.nt, 200)
        rhos = grid.r[ks] * np.exp(rng.uniform(-6.0, 1.5, 200))
        ball, ring, lo, hi = sheet.ball_windows(ks, js, rhos)
        want = [(i, *row) for i, (k, j, rho) in enumerate(zip(ks, js, rhos))
                for row in sheet.ball_rows(int(k), int(j), float(rho))]
        assert list(zip(ball.tolist(), ring.tolist(), lo.tolist(), hi.tolist())) == want
        empty = sheet.ball_windows(ks[:0], js[:0], rhos[:0])
        assert all(len(a) == 0 for a in empty)

    def test_cells_are_bruteforce_balls(self, tiny, radii):
        grid, sheet, dist = tiny
        ks, js = np.divmod(np.arange(grid.nr * grid.nt), grid.nt)
        for rho in radii:
            ball, ring, lo, hi = sheet.ball_windows(ks, js, np.full(len(ks), rho))
            mask = np.zeros(dist.shape, dtype=bool)
            for b, k, a, z in zip(ball, ring, lo, hi):
                mask[b, k * grid.nt + a:k * grid.nt + z + 1] = True
            # a node on the sphere to rounding may fall on either side
            assert np.all(mask >= (dist < rho * (1 - 1e-12)))
            assert np.all(mask <= (dist < rho * (1 + 1e-12)))

    def test_node_distances(self, tiny, dom2):
        grid, sheet, dist = tiny
        ks, js = np.divmod(np.arange(grid.nr * grid.nt), grid.nt)
        got = sheet.node_distances(ks[:, None], js[:, None], ks, js)
        np.testing.assert_allclose(got, dist, rtol=1e-12, atol=1e-12 * grid.r_max)
        # the cosine table gives the per-pair law of cosines bit for bit
        for grid in [grid] + [PolarGrid.cone(dom2, nr=20, nt=nt, r_max=40.0,
                                             r_min=4e-2) for nt in (3, 4, 5, 97)]:
            ks, js = np.divmod(np.arange(grid.nr * grid.nt), grid.nt)
            R, rr = grid.r[ks, None], grid.r[ks]
            dth = np.abs(grid.theta[js] - grid.theta[js, None])
            want = np.sqrt(np.maximum(R * R + rr * rr - 2.0 * R * rr * np.cos(dth), 0.0))
            got = SheetBalls(grid).node_distances(ks[:, None], js[:, None], ks, js)
            assert np.array_equal(got, want)


class TestMaximal:
    def test_equals_ring_loop_on_alpha_suite(self, tiny):
        ctx = AcceptanceContext(RunConfig(nr=220, nt=48, r_min=4e-8))
        sheet = SheetBalls(ctx.grid2)
        for f in ctx.alpha_suite():
            for half in ("plus", "minus"):
                x = combined_intensity(f, half)
                assert np.array_equal(sheet.maximal(x), loop_maximal(sheet, x))
        # and random sheets on the tiny grid
        grid, sheet, _ = tiny
        for x in np.random.default_rng(9).uniform(0.1, 5.0, (2, grid.nr, grid.nt)):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got = sheet.maximal(x)
            assert np.array_equal(got, loop_maximal(sheet, x))

    def test_empty_balls_average_to_minus_inf(self):
        # r_min 4e-77: from rho ~ 1e-15 on, a ball around an outer ring holds
        # no node, not even its center (rho is below half an ulp of r)
        grid = PolarGrid.cone(ConeDomain(2), nr=40, nt=3, r_min=40.0 * 0.01**39)
        sheet = SheetBalls(grid)
        shape = (grid.nr, grid.nt)
        for x in (np.random.default_rng(8).uniform(0.1, 5.0, shape),
                  *np.random.default_rng(9).uniform(0.1, 5.0, (2,) + shape)):
            av = BallAverager(sheet, x)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got = sheet.maximal(x)
                avgs = [av.averages(sheet.cut_rings(rho)) for rho in sheet.dyadic_radii()]
            assert not any(np.isnan(a).any() for a in avgs)
            assert sum(np.isneginf(a).sum() for a in avgs) > 0
            assert not np.isnan(got).any()
            with np.errstate(invalid="ignore"):   # the ring loop divides 0/0
                assert np.array_equal(got, loop_maximal(sheet, x))


class TestNarrowSheets:
    """nt in {3, 4, 5}: partial pairs reach half-width nt - 2 (the rings at
    nt - 1 are whole, served by row totals), so the average windows run past
    both row ends into the clamped prefix columns, and the dilation levels
    shift rows only 3 to 5 columns wide."""

    @pytest.mark.parametrize("nt", [3, 4, 5])
    def test_equals_ring_loops(self, dom2, nt):
        grid = PolarGrid.cone(dom2, nr=40, nt=nt, r_max=4.0, r_min=4e-3)
        sheet = SheetBalls(grid)
        rng = np.random.default_rng(10 + nt)
        x = rng.uniform(0.1, 5.0, (grid.nr, nt))
        av = BallAverager(sheet, x)
        radii = np.concatenate([sheet.dyadic_radii(), rng.uniform(5e-3, 6.0, 8)])
        widest = 0
        for rho in radii:
            cut = sheet.cut_rings(rho)
            widest = max(widest, *(ws.max(initial=0) for *_, ws in cut[2]))
            avg = av.averages(cut)
            assert np.array_equal(avg, loop_averages(sheet, x, rho))
            assert np.array_equal(sheet.ball_dilate(avg, cut), loop_dilate(sheet, avg, rho))
        assert widest == nt - 2
        assert sheet.half_widths(grid.r, radii.max(), np.arange(grid.nr)).max() == nt - 1
        assert np.array_equal(sheet.maximal(x), loop_maximal(sheet, x))


def level_masks(grid, seed):
    """Query masks U: random cells at three densities, two blocks, and the
    sheet without one cell or without one ring (so the target is that)."""
    rng = np.random.default_rng(seed)
    shape = (grid.nr, grid.nt)
    masks = [rng.random(shape) < p for p in (0.05, 0.5, 0.97)]
    block = np.zeros(shape, dtype=bool)
    block[grid.nr // 3:grid.nr // 2, 2:grid.nt // 2] = True
    block[-4:, -3:] = True
    masks.append(block)
    for k, j in ((0, 0), (grid.nr // 2, grid.nt // 3), (grid.nr - 1, grid.nt - 1)):
        cell = np.ones(shape, dtype=bool)
        cell[k, j] = False
        masks.append(cell)
    for k in (0, grid.nr // 2, grid.nr - 1):
        ring = np.ones(shape, dtype=bool)
        ring[k] = False
        masks.append(ring)
    return masks


class TestDistance:
    @pytest.mark.parametrize("shape", [(40, 12), (220, 48)])
    def test_equals_ring_sweep(self, dom2, shape):
        grid = PolarGrid.cone(dom2, nr=shape[0], nt=shape[1], r_max=40.0,
                              r_min=4e-8 if shape[0] > 40 else 4e-2)
        sheet = SheetBalls(grid)
        for U in level_masks(grid, 7):
            assert np.array_equal(distance_to_cells(sheet, ~U, U),
                                  loop_distance(sheet, ~U, U))

    def test_matches_bruteforce(self, tiny):
        grid, sheet, dist = tiny
        for U in level_masks(grid, 8):
            got = distance_to_cells(sheet, ~U, U).ravel()
            q = U.ravel()
            brute = np.where(~q[None, :], dist, np.inf).min(axis=1)
            np.testing.assert_allclose(got[q], brute[q], rtol=1e-12, atol=0)
            assert np.all(np.isinf(got[~q]))

    @pytest.mark.parametrize("shape", [(40, 12), (220, 48)])
    def test_single_column_target_rings(self, dom2, shape):
        # each target ring holds its first, last or middle column only, so
        # the nearest target lies on one side of most columns
        grid = PolarGrid.cone(dom2, nr=shape[0], nt=shape[1], r_max=40.0,
                              r_min=4e-8 if shape[0] > 40 else 4e-2)
        sheet = SheetBalls(grid)
        nt = grid.nt
        for every in (1, 3):
            target = np.zeros((grid.nr, nt), dtype=bool)
            for k in range(0, grid.nr, every):
                target[k, (0, nt - 1, nt // 2)[k // every % 3]] = True
            cos = _nearest_cosines(sheet, target)
            left = target[:, 0] & ~target[:, 1:].any(axis=1)
            right = target[:, -1] & ~target[:, :-1].any(axis=1)
            assert np.all(np.isfinite(cos[target.any(axis=1)]))
            assert left.any() and right.any()
            assert np.array_equal(distance_to_cells(sheet, target, ~target),
                                  loop_distance(sheet, target, ~target))

    def test_no_target_rejected(self, tiny):
        grid, sheet, _ = tiny
        U = np.ones((grid.nr, grid.nt), dtype=bool)
        with pytest.raises(ValueError):
            distance_to_cells(sheet, ~U, U)
