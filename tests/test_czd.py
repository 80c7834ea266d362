
import dataclasses
import inspect

import numpy as np
import pytest

from conelab import czd
from conelab.acceptance import AcceptanceContext
from conelab.ballops import SheetBalls, distance_to_cells
from conelab.config import RunConfig
from conelab.czd import (CZParams, DegenerateLevelError, WhitneyCover,
                         _patch_grads, combined_intensity, decompose,
                         glue_good_parts, k_upper_via_cz, maximal_function,
                         maximal_table, verify)
from conelab.fieldlib import make_test_field, suite_cz
from conelab.fields import WEIGHTS, Field, lp_norm, samples
from conelab.grids import PolarGrid, radial_difference_weights
from conelab.rearrangement import k_component_lower_bound, rearrange_samples

INF = float("inf")


@pytest.fixture(scope="module")
def czgrid(dom2):
    return PolarGrid.cone(dom2, nr=260, nt=48, r_max=40.0, r_min=4e-7)


@pytest.fixture(scope="module")
def logfield(czgrid):
    return make_test_field("logcounter", czgrid, beta=1.0)


@pytest.fixture(scope="module")
def logresult(logfield):
    amax = float(maximal_function(logfield, "plus").max())
    return decompose(logfield, CZParams(alpha=amax * 1e-3), "plus")


class TestMaximal:
    def test_constant_without_weight(self, czgrid):
        f = make_test_field("constant", czgrid, c=2.0)
        M = SheetBalls(czgrid).maximal(np.full((czgrid.nr, czgrid.nt), 2.0))
        assert np.abs(M - 2.0).max() <= 1e-12

    def test_dominates_pointwise(self, logfield):
        M = maximal_function(logfield, "plus")
        intensity = combined_intensity(logfield, "plus")
        assert np.all(M >= intensity - 1e-12 * intensity)

    def test_weak_type_constant(self, logfield, czgrid):
        M = maximal_function(logfield, "plus")
        intensity = combined_intensity(logfield, "plus")
        l1 = float((intensity * czgrid.cell_measure).sum())
        meas = czgrid.cell_measure
        C = max(float(meas[M > a].sum()) * a / l1
                for a in np.geomspace(M.min() * 1.5, M.max() * 0.5, 25))
        assert C < 20.0

    def test_intensity_is_the_sample_sum(self, czgrid):
        # built on one sheet, bit for bit the sum of the sample families
        for f in suite_cz(czgrid):
            for i, h in enumerate(czgrid.halves):
                expect = sum(samples(f, w)[i] for w in WEIGHTS)
                assert combined_intensity(f, h).tobytes() == expect.tobytes()

    def test_one_half_per_call_cached(self, czgrid):
        f = make_test_field("angular_bump", czgrid)
        for h in czgrid.halves:
            M = maximal_function(f, h)
            assert np.array_equal(
                M, SheetBalls(czgrid).maximal(combined_intensity(f, h)))
            assert maximal_function(f, h) is M


class TestDecompose:
    def test_empty_level_set(self, logfield):
        amax = float(maximal_function(logfield, "plus").max())
        res = decompose(logfield, CZParams(alpha=2 * amax), "plus")
        assert not res.balls and len(res.balls.ring) == 0
        assert np.array_equal(res.good, logfield.sheet("plus"))
        assert res.cover_rows() == []
        rep = verify(res)
        assert rep["n_balls"] == rep["overlap_N"] == 0
        assert rep["partition_err"] == rep["eb_ratio"] == 0.0
        assert (rep["neighbor_radius_ratio"], rep["mean_comparability"]) == (1.0, 0.0)
        assert rep["underline_disjoint"] and rep["overline_meets_complement"]

    def test_degenerate_level(self, logfield):
        with pytest.raises(DegenerateLevelError):
            decompose(logfield, CZParams(alpha=1e-30), "plus")

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CZParams(alpha=-1.0)

    def test_reconstruction_exact(self, logfield, logresult):
        vals = logfield.sheet("plus")
        err = np.abs(vals - logresult.good - logresult.bad).max()
        assert err <= 1e-12 * np.abs(vals).max()

    def test_radii_are_half_distance(self, logresult):
        c = logresult.balls
        np.testing.assert_allclose(c.radius, 0.5 * logresult.dist[c.k, c.j],
                                   rtol=1e-14)

    def test_type_rule(self, logresult, czgrid):
        c = logresult.balls
        vertex_distance = np.maximum(czgrid.r[c.k] - c.radius, 0.0)
        assert np.array_equal(c.type1, 4.0 * c.radius <= vertex_distance)

    def test_support_inside_plain_ball(self, logresult, czgrid):
        c = logresult.balls
        dd = SheetBalls(czgrid).node_distances(c.k[c.ball], c.j[c.ball],
                                               c.ring, c.col)
        assert np.all(dd < c.radius[c.ball])

    def test_support_grouped_by_ball_ring_col(self, logresult, czgrid):
        c = logresult.balls
        key = (c.ball * czgrid.nr + c.ring) * czgrid.nt + c.col
        assert np.all(np.diff(key) > 0)
        assert np.array_equal(np.unique(c.ball), np.arange(len(c)))

    def test_bad_parts_formula(self, logfield, logresult):
        vals = logfield.sheet("plus")
        c = logresult.balls
        shift = np.where(c.type1, c.mean, 0.0)[c.ball]
        expect = (vals[c.ring, c.col] - shift) * c.chi
        assert np.allclose(c.b, expect, atol=1e-14)

    def test_overline_meets_complement_at_row_ends(self, logresult, czgrid):
        # F made of only the first (or only the last) cell of every overline row
        sheet, c = SheetBalls(czgrid), logresult.balls
        rows = [row for k, j, s in zip(c.k, c.j, c.radius / logresult.params.c1)
                for row in sheet.ball_rows(int(k), int(j), logresult.params.c2 * s)]
        for end in (1, 2):
            F = np.zeros(czgrid.shape[1:], dtype=bool)
            for row in rows:
                F[row[0], row[end]] = True
            res = dataclasses.replace(logresult, level_set=~F)
            assert verify(res)["overline_meets_complement"]
        res = dataclasses.replace(logresult, level_set=np.ones_like(F))
        assert not verify(res)["overline_meets_complement"]

    def test_verify_report(self, logresult):
        rep = verify(logresult)
        assert rep["underline_disjoint"]
        assert rep["plain_cover_exact"]
        assert rep["overline_meets_complement"]
        assert rep["type2_geometry_ok"]
        assert rep["partition_err"] <= 1e-12
        assert rep["rec_err"] <= 1e-12
        assert rep["neighbor_radius_ratio"] <= 3.0 * (1 + 1e-12)
        assert rep["overlap_N"] <= 20
        assert 0 < rep["eg_ratio"] < 100
        assert 0 < rep["eb_ratio"] < 100
        assert np.isfinite(rep["mean_comparability"])
        assert rep["mean_comparability"] < 50
        assert np.isfinite(rep["chi_grad_scaled"])


class TestGlue:
    def test_zero_fields(self, czgrid):
        z = make_test_field("constant", czgrid, c=0.0)
        # force a trivial decomposition on both halves via a positive level
        f = make_test_field("radial_exp", czgrid)
        amax = max(float(maximal_function(f, h).max()) for h in ("plus", "minus"))
        rp = decompose(f, CZParams(alpha=2 * amax), "plus")
        rm = decompose(f, CZParams(alpha=2 * amax), "minus")
        g = glue_good_parts(rp, rm)
        assert np.array_equal(g.sheet("plus"), f.sheet("plus"))
        assert lp_norm(g, INF) > 0

    def test_glued_restriction_matches_inputs(self, logfield):
        amax = float(maximal_function(logfield, "plus").max())
        params = CZParams(alpha=amax * 1e-2)
        rp = decompose(logfield, params, "plus")
        rm = decompose(logfield, params, "minus")
        g = glue_good_parts(rp, rm)
        assert np.array_equal(g.sheet("plus"), rp.good)
        assert np.array_equal(g.sheet("minus"), rm.good)
        assert lp_norm(g, INF, weight="inv_r") <= 50 * params.alpha

    def test_mismatched_fields_rejected(self, czgrid, logfield):
        other = make_test_field("radial_exp", czgrid)
        amax = float(maximal_function(logfield, "plus").max())
        rp = decompose(logfield, CZParams(alpha=amax * 0.1), "plus")
        am2 = float(maximal_function(other, "minus").max())
        rm = decompose(other, CZParams(alpha=am2 * 0.1), "minus")
        with pytest.raises(ValueError):
            glue_good_parts(rp, rm)


class TestKUpper:
    def test_zero_field(self, czgrid):
        z = make_test_field("constant", czgrid, c=0.0)
        assert k_upper_via_cz(z, 1.0)["value"] == 0.0

    def test_upper_bounds_components(self, logfield):
        for t in (0.01, 1.0, 100.0):
            up = k_upper_via_cz(logfield, t)
            assert up["value"] >= k_component_lower_bound(logfield, t) * (1 - 1e-9)

    def test_level_set_measure_bounded_by_t(self, logfield, czgrid):
        # the chosen level alpha(t) keeps the level set measure below t
        for t in (0.05, 1.0):
            for h in ("plus", "minus"):
                alpha = maximal_table(logfield, h).f_star(t)
                M = maximal_function(logfield, h)
                lam = float(czgrid.cell_measure[M > alpha].sum())
                assert lam <= t * (1 + 1e-12)


def _half_twin_field(name, grid):
    if name != "minus_doubled":
        return make_test_field(name, grid)     # logcounter at its beta = 1
    bump = make_test_field("angular_bump", grid)
    return Field.from_function(
        grid, lambda r, t, h: (2.0 if h == "minus" else 1.0) * bump.sheet(h))


class TestHalfTwins:
    """A sheet whose intensity equals an earlier half's shares its maximal
    function and table, and one whose values equal it too shares its
    decomposition.  (`jump` is no asymmetric oracle: its intensities agree.)"""

    @pytest.mark.parametrize("name,sheets,per_t", [
        ("angular_bump", 1, 1),     # equal on both halves
        ("logcounter", 1, 2),       # equal intensities, opposite values
        ("minus_doubled", 2, 2)])   # the minus half twice the plus half
    def test_work_and_results_match_per_half(self, grid_small, monkeypatch, name,
                                             sheets, per_t):
        f = _half_twin_field(name, grid_small)
        calls = {"maximal": 0, "decompose": 0}
        glued = []
        maximal, glue = SheetBalls.maximal, czd.glue_good_parts

        def counted_maximal(self, intensity):
            calls["maximal"] += 1
            return maximal(self, intensity)

        def counted_decompose(*args):
            calls["decompose"] += 1
            return decompose(*args)

        def recorded_glue(res_p, res_m):
            glued.append((res_p, res_m))
            return glue(res_p, res_m)

        monkeypatch.setattr(SheetBalls, "maximal", counted_maximal)
        monkeypatch.setattr(czd, "decompose", counted_decompose)
        monkeypatch.setattr(czd, "glue_good_parts", recorded_glue)
        ts = (1e-2, 1.0)
        ups = [k_upper_via_cz(f, t) for t in ts]
        assert calls == {"maximal": sheets, "decompose": per_t * len(ts)}
        monkeypatch.undo()

        shared = maximal_function(f, "minus") is maximal_function(f, "plus")
        assert shared == (sheets == 1)
        assert (maximal_table(f, "minus") is maximal_table(f, "plus")) == shared
        for h in grid_small.halves:
            M = SheetBalls(grid_small).maximal(combined_intensity(f, h))
            assert np.array_equal(maximal_function(f, h), M)
            want, got = rearrange_samples(M, grid_small.cell_measure), maximal_table(f, h)
            for attr in ("values", "widths", "cum", "integral"):
                assert np.array_equal(getattr(got, attr), getattr(want, attr))
        assert len(glued) == len(ts)
        for up, pair in zip(ups, glued):
            assert up["n_balls"] == sum(len(res.balls) for res in pair) > 0
            for res, h in zip(pair, grid_small.halves):
                _assert_same_result(res, decompose(f, res.params, h))

    @pytest.mark.parametrize("entry", [maximal_function, maximal_table])
    def test_a_twin_half_does_not_reenter(self, grid_small, monkeypatch, entry):
        # the minus half of angular_bump is the plus half's twin: it reads the
        # plus half's entries without a nested maximal_function call
        f = make_test_field("angular_bump", grid_small)
        depth, deepest = [0], [0]

        def nested(*args):
            depth[0] += 1
            deepest[0] = max(deepest[0], depth[0])
            try:
                return maximal_function(*args)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(czd, "maximal_function", nested)
        # called through the module, so that the outer call counts too
        got = getattr(czd, entry.__name__)(f, "minus")
        assert deepest[0] == 1
        monkeypatch.undo()
        assert got is entry(f, "plus")
        assert maximal_table(f, "minus") is maximal_table(f, "plus")


def _assert_same_result(res, want):
    assert res.field is want.field and res.half == want.half
    assert res.params == want.params
    for name in ("level_set", "dist", "good", "bad", "chi_sum"):
        assert np.array_equal(getattr(res, name), getattr(want, name)), name
    for fld in dataclasses.fields(WhitneyCover):
        assert np.array_equal(getattr(res.balls, fld.name),
                              getattr(want.balls, fld.name)), fld.name


# -- reference: the per-ball cover that WhitneyCover replaced -----------------


def _row_distances(sheet, k, j, ring, jlo, jhi):
    R, rr = float(sheet.r[k]), float(sheet.r[ring])
    dth = np.abs(sheet.theta[jlo:jhi + 1] - sheet.theta[j])
    return np.sqrt(np.maximum(R * R + rr * rr - 2.0 * R * rr * np.cos(dth), 0.0))


def _decompose_per_ball(f, params, half="plus"):
    """Per-ball decomposition with per-row lists: (balls, good, bad, chi_sum);
    each ball is a dict with k, j, radius, s, type1, mean, rows, chi, b."""
    grid = f.grid
    sheet = SheetBalls(grid)
    vals = f.sheet(half)
    U = maximal_function(f, half) > params.alpha
    d = distance_to_cells(sheet, ~U, U)
    ks, js = np.nonzero(U)
    order = np.lexsort((js, ks, -d[ks, js]))
    blocked = np.zeros(U.shape, dtype=bool)
    block_reach = 2.0 * (2.0 * params.c1 / (2.0 * params.c1 - 1.0))
    balls = []
    for idx in order:
        k, j = int(ks[idx]), int(js[idx])
        if blocked[k, j]:
            continue
        r_i = 0.5 * float(d[k, j])
        s_i = r_i / params.c1
        balls.append(dict(k=k, j=j, radius=r_i, s=s_i, rows=[], chi=[], b=[]))
        for ring, lo, hi in sheet.ball_rows(k, j, block_reach * s_i):
            blocked[ring, lo:hi + 1] = True
    den = np.zeros(U.shape)
    for ball in balls:
        for ring, lo, hi in sheet.ball_rows(ball["k"], ball["j"], ball["radius"]):
            psi = params.bump(_row_distances(sheet, ball["k"], ball["j"],
                                             ring, lo, hi) / ball["s"])
            ball["rows"].append((ring, lo, hi))
            ball["chi"].append(psi)
            den[ring, lo:hi + 1] += psi
    meas = grid.cell_measure
    bad = np.zeros_like(vals)
    chi_sum = np.zeros_like(den)
    for ball in balls:
        ball["type1"] = 4.0 * ball["radius"] <= max(
            float(grid.r[ball["k"]]) - ball["radius"], 0.0)
        num = tot = 0.0
        for ring, lo, hi in sheet.ball_rows(ball["k"], ball["j"], ball["radius"]):
            num += float((vals[ring, lo:hi + 1] * meas[ring, lo:hi + 1]).sum())
            tot += float(meas[ring, lo:hi + 1].sum())
        ball["mean"] = num / tot
        shift = ball["mean"] if ball["type1"] else 0.0
        for i, (ring, lo, hi) in enumerate(ball["rows"]):
            ball["chi"][i] = ball["chi"][i] / den[ring, lo:hi + 1]
            ball["b"].append((vals[ring, lo:hi + 1] - shift) * ball["chi"][i])
            bad[ring, lo:hi + 1] += ball["b"][i]
            chi_sum[ring, lo:hi + 1] += ball["chi"][i]
    return balls, vals - bad, bad, chi_sum


def _per_ball_rows(grid, balls):
    """`CZResult.cover_rows` of the per-ball reference cover."""
    return [(float(grid.r[b["k"]]), float(grid.theta[b["j"]]), b["radius"],
             1 if b["type1"] else 2) for b in balls]


def _sparse_patch_nodewise(grid, rows, data_rows):
    """Reference patch gradient: the 3-point radial stencil written as
    weights of f[k-1], f[k], f[k+1] on the same zero-extended patch."""
    rlo = min(r for r, _, _ in rows)
    rhi = max(r for r, _, _ in rows)
    jlo = max(0, min(lo for _, lo, _ in rows) - 1)
    jhi = min(grid.nt - 1, max(hi for _, _, hi in rows) + 1)
    patch = np.zeros((rhi - rlo + 3, jhi - jlo + 3))
    for (ring, lo, hi), vals in zip(rows, data_rows):
        patch[ring - rlo + 1, lo - jlo + 1:hi - jlo + 2] = vals
    r_ext = np.empty(rhi - rlo + 3)
    r_ext[1:-1] = grid.r[rlo:rhi + 1]
    r_ext[0] = grid.r[rlo - 1] if rlo > 0 else grid.r[0] * grid.q
    r_ext[-1] = grid.r[rhi + 1] if rhi < grid.nr - 1 else grid.r[-1] / grid.q
    h1 = (r_ext[1:-1] - r_ext[:-2])[:, None]
    h2 = (r_ext[2:] - r_ext[1:-1])[:, None]
    dr = (-h2 / (h1 * (h1 + h2)) * patch[:-2, 1:-1]
          + (h2 - h1) / (h1 * h2) * patch[1:-1, 1:-1]
          + h1 / (h2 * (h1 + h2)) * patch[2:, 1:-1])
    dth = (patch[1:-1, 2:] - patch[1:-1, :-2]) / (2.0 * grid.dtheta)
    ang = dth / r_ext[1:-1, None]
    return patch[1:-1, 1:-1], np.sqrt(dr**2 + ang**2), rlo, jlo


def _sparse_patch(grid, ring, col, values):
    """Zero-extended local patch (values and |grad|) of a sheet function given
    on the cells (ring, col) of one ball.  Returns (vals, grad_mag, rlo, jlo):
    interior arrays with origin cell (rlo, jlo); ghost cells use the
    geometric radial continuation."""
    rlo, rhi = int(ring.min()), int(ring.max())
    jlo = max(0, int(col.min()) - 1)
    jhi = min(grid.nt - 1, int(col.max()) + 1)
    patch = np.zeros((rhi - rlo + 3, jhi - jlo + 3))
    patch[ring - rlo + 1, col - jlo + 1] = values
    r_ext = np.empty(rhi - rlo + 3)
    r_ext[1:-1] = grid.r[rlo:rhi + 1]
    r_ext[0] = grid.r[rlo - 1] if rlo > 0 else grid.r[0] * grid.q
    r_ext[-1] = grid.r[rhi + 1] if rhi < grid.nr - 1 else grid.r[-1] / grid.q
    a, b = radial_difference_weights(r_ext)
    d = np.diff(patch[:, 1:-1], axis=0)
    dr = a[:, None] * d[1:] + b[:, None] * d[:-1]
    dth = (patch[1:-1, 2:] - patch[1:-1, :-2]) / (2.0 * grid.dtheta)
    ang = dth / r_ext[1:-1, None]
    return patch[1:-1, 1:-1], np.sqrt(dr**2 + ang**2), rlo, jlo


def _patch_constants_per_ball(res):
    """(eb_ratio, chi_grad_scaled) of `verify`, one `_sparse_patch` pair per
    ball: the loop that the flat patch pass replaced."""
    grid, cover, alpha = res.grid, res.balls, res.params.alpha
    meas, n = grid.cell_measure, len(res.balls)
    pball, pring, plo, phi = SheetBalls(grid).ball_windows(cover.k, cover.j,
                                                           cover.radius)
    eb_ratio = chi_grad = 0.0
    cells, rows = (np.searchsorted(a, np.arange(n + 1)) for a in (cover.ball, pball))
    for i in range(n):
        cs = slice(cells[i], cells[i + 1])
        ring, col = cover.ring[cs], cover.col[cs]
        babs, bmag, rlo, jlo = _sparse_patch(grid, ring, col, np.abs(cover.b[cs]))
        cmag = _sparse_patch(grid, ring, col, cover.chi[cs])[1]
        chi_grad = max(chi_grad, float(cmag.max()) * float(cover.radius[i]))
        # the patch rings lie inside the plain ball's, from its row p0 on
        nk, nj = bmag.shape
        p0, cols = rows[i] + rlo - pring[rows[i]], np.arange(jlo, jlo + nj)
        plain = (plo[p0:p0 + nk, None] <= cols) & (cols <= phi[p0:p0 + nk, None])
        contrib = babs * (1.0 + 1.0 / grid.r[rlo:rlo + nk, None]) + bmag
        num = float((contrib * meas[rlo:rlo + nk, jlo:jlo + nj])[plain].sum())
        eb_ratio = max(eb_ratio, num / float(cover.measure[i]) / alpha)
    return eb_ratio, chi_grad


def _dense_neighbor_constants(balls, grid, alpha, rows=1024):
    """Both constants over all ordered pairs of distinct balls, `rows` rows of
    the pair matrix at a time."""
    rc = np.array([float(grid.r[b["k"]]) for b in balls])
    tc = np.array([float(grid.theta[b["j"]]) for b in balls])
    rad = np.array([b["radius"] for b in balls])
    means = np.array([b["mean"] for b in balls])
    ratio, mean = 1.0, 0.0
    for i0 in range(0, len(balls), rows):
        i = slice(i0, i0 + rows)
        d2 = (rc[i, None]**2 + rc[None, :]**2
              - 2.0 * rc[i, None] * rc[None, :] * np.cos(tc[i, None] - tc[None, :]))
        inter = np.sqrt(np.maximum(d2, 0.0)) < rad[i, None] + rad[None, :]
        ii, jj = np.nonzero(inter)
        ii += i0
        ii, jj = ii[ii != jj], jj[ii != jj]
        if len(ii):
            ratio = max(ratio, float(np.max(rad[ii] / rad[jj])))
            mean = max(mean, float(np.max(np.abs(means[ii] - means[jj])
                                          / (np.minimum(rad[ii], rad[jj]) * alpha))))
    return ratio, mean


def _verify_per_ball(res, balls):
    """The fields of `verify` that depend on the cover, measured ball by ball
    on the per-ball reference cover with the node-wise stencil."""
    grid, params = res.grid, res.params
    sheet = SheetBalls(grid)
    meas = grid.cell_measure
    alpha = params.alpha
    intensity = combined_intensity(res.field, res.half)
    denom = float(np.sum(intensity**params.p * meas))
    sum_ball_measure = eb_ratio = chi_grad = 0.0
    overlap = np.zeros(grid.shape[1:], dtype=np.int32)
    underline_paint = np.zeros(grid.shape[1:], dtype=np.int32)
    type2_ok = overline_all_meet = True
    F = ~res.level_set
    for ball in balls:
        k, j, rad = ball["k"], ball["j"], ball["radius"]
        for ring, lo, hi in sheet.ball_rows(k, j, rad):
            sum_ball_measure += float(meas[ring, lo:hi + 1].sum())
            overlap[ring, lo:hi + 1] += 1
            if not ball["type1"] and grid.r[ring] > 6.0 * rad * (1 + 1e-12):
                type2_ok = False
        for ring, lo, hi in sheet.ball_rows(k, j, ball["s"]):
            underline_paint[ring, lo:hi + 1] += 1
        overline_all_meet &= any(
            F[ring, lo:hi + 1].any()
            for ring, lo, hi in sheet.ball_rows(k, j, params.c2 * ball["s"]))
        babs, bmag, rlo, jlo = _sparse_patch_nodewise(
            grid, ball["rows"], [np.abs(b) for b in ball["b"]])
        _, cmag, _, _ = _sparse_patch_nodewise(grid, ball["rows"], ball["chi"])
        chi_grad = max(chi_grad, float(cmag.max()) * rad)
        num = tot = 0.0
        nk, nj = bmag.shape
        for ring, lo, hi in sheet.ball_rows(k, j, rad):
            tot += float(meas[ring, lo:hi + 1].sum())
            a, z = max(lo, jlo), min(hi, jlo + nj - 1)
            if not (rlo <= ring < rlo + nk) or z < a:
                continue
            contrib = (babs[ring - rlo, a - jlo:z - jlo + 1] * (1.0 + 1.0 / grid.r[ring])
                       + bmag[ring - rlo, a - jlo:z - jlo + 1])
            num += float((contrib * meas[ring, a:z + 1]).sum())
        eb_ratio = max(eb_ratio, num / tot / alpha)
    ratio_max, mean_const = _dense_neighbor_constants(balls, grid, alpha)
    return {
        "n_balls": len(balls),
        "eb_ratio": eb_ratio,
        "eB_ratio": sum_ball_measure * alpha**params.p / denom,
        "overlap_N": int(overlap.max()),
        "underline_disjoint": bool(underline_paint.max() <= 1),
        "plain_cover_exact": bool(np.all(overlap[res.level_set] > 0)),
        "overline_meets_complement": bool(overline_all_meet),
        "type2_geometry_ok": type2_ok,
        "neighbor_radius_ratio": ratio_max,
        "mean_comparability": mean_const,
        "chi_grad_scaled": chi_grad,
    }


class TestSparsePatch:
    def test_radial_derivative_matches_grid(self, czgrid):
        # a radial field has no angular term away from the ghost columns
        sheet = make_test_field("radial_exp", czgrid).sheet("plus")
        lo, hi = 40, 200
        ring, col = np.indices((hi - lo + 1, czgrid.nt)).reshape(2, -1)
        box, [(vals, gmag)] = _patch_grads(czgrid, np.zeros_like(ring), ring + lo,
                                           col, 1, sheet[lo:hi + 1].ravel())
        assert [int(a[0]) for a in box] == [0, lo, hi, 0, czgrid.nt - 1, czgrid.nt]
        assert np.array_equal(vals, sheet[lo:hi + 1].ravel())
        gmag = gmag.reshape(hi - lo + 1, czgrid.nt)
        want = np.abs(czgrid.d_dr(sheet[None])[0])[lo + 1:hi, 1:-1]
        np.testing.assert_allclose(gmag[1:-1, 1:-1], want, rtol=1e-12)

    def test_verify_matches_nodewise_stencil(self):
        # the cz-prop41 sweep on a small grid: the flat cover and its verifier
        # against the per-ball cover, verified with the node-wise stencil
        cfg = RunConfig(nr=220, nt=48, r_min=4e-8)
        for f in AcceptanceContext(cfg).alpha_suite():
            scale = float(np.abs(f.sheet("plus")).max())
            for got in czd.level_sweep(f, cfg.alpha_decades, cfg.alpha_points):
                res = got["decomposition"]
                balls, good, bad, chi_sum = _decompose_per_ball(f, res.params)
                want = _verify_per_ball(res, balls)
                assert got["rec_err"] <= 1e-12
                assert ((got["eb_ratio"], got["chi_grad_scaled"])
                        == _patch_constants_per_ball(res))
                for key, val in want.items():
                    if isinstance(val, float):
                        assert got[key] == pytest.approx(val, rel=1e-12, abs=0)
                    else:
                        assert got[key] == val
                assert res.cover_rows() == _per_ball_rows(f.grid, balls)
                assert np.array_equal(res.chi_sum, chi_sum)
                assert np.abs(res.good - good).max() <= 1e-12 * scale
                assert np.abs(res.bad - bad).max() <= 1e-12 * scale


class TestGradMagnitude:
    def test_one_rule_bit_for_bit(self):
        # sqrt(d_dr**2 + (d_dtheta / r)**2) written out, and the field's
        # cached gradient, on every sheet of the cz suite and on a good part
        # of each member at SMALL
        grid = RunConfig(nr=220, nt=48, r_min=4e-8).grid()
        for f in suite_cz(grid):
            amax = float(maximal_function(f, "plus").max())
            good = decompose(f, CZParams(alpha=amax * 0.1)).good
            assert grid.grad_magnitude(f.values).tobytes() == samples(
                f, "gradient").tobytes()
            for v in (*f.values, good):
                dr = grid.d_dr(v[None])[0]
                ang = grid.d_dtheta(v[None])[0] / grid.r[:, None]
                want = np.sqrt(dr**2 + ang**2)
                assert grid.grad_magnitude(v).tobytes() == want.tobytes()


class TestManyBallCover:
    @pytest.mark.parametrize("t", [1e-3, 1e-1, 1e3])
    def test_greedy_equals_per_ball(self, grid_small, t):
        # angular_bump at the level of k_upper_via_cz(t): thousands of small
        # balls at small t; at t = 1e3 U is nearly the whole sheet, so the
        # first candidates' windows span most of it
        f = make_test_field("angular_bump", grid_small)
        alpha = max(czd.maximal_table(f, h).f_star(t) for h in grid_small.halves)
        for half in grid_small.halves:
            res = decompose(f, CZParams(alpha=float(alpha)), half)
            balls, _, _, chi_sum = _decompose_per_ball(f, res.params, half)
            assert len(balls) > (1000 if t < 1 else 50)
            assert res.cover_rows() == _per_ball_rows(grid_small, balls)
            assert np.array_equal(res.chi_sum, chi_sum)

    @pytest.mark.parametrize("chunk", [1, 1 << 22])
    @pytest.mark.parametrize("t", [1e-3, 1e-1, 1e3])
    def test_greedy_equals_per_ball_at_chunk_extremes(self, grid_small, t, chunk,
                                                      monkeypatch):
        # one candidate per chunk, and the whole sheet in one chunk
        monkeypatch.setattr(czd, "_CHUNK_CELLS", chunk)
        f = make_test_field("angular_bump", grid_small)
        alpha = max(czd.maximal_table(f, h).f_star(t) for h in grid_small.halves)
        res = decompose(f, CZParams(alpha=float(alpha)), "plus")
        balls, _, _, chi_sum = _decompose_per_ball(f, res.params, "plus")
        assert res.cover_rows() == _per_ball_rows(grid_small, balls)
        assert np.array_equal(res.chi_sum, chi_sum)

    def test_windows_expanded_for_chosen_balls_only(self, grid_small, monkeypatch):
        # three candidates one column apart on one ring, by decreasing d: the
        # first's window (1.5 columns) holds the second but not the third,
        # and the second's (1.485 columns) holds the third.  The second is
        # blocked, so it marks nothing and the third is accepted, also when
        # a lookahead of 2 puts the third in a later chunk than the others.
        k = grid_small.nr // 2
        col = 2.0 * grid_small.r[k] * np.sin(0.5 * grid_small.dtheta)
        U = np.zeros((grid_small.nr, grid_small.nt), dtype=bool)
        d = np.zeros(U.shape)
        U[k, 20:23] = True
        d[k, 20:23] = np.array([1.0, 0.99, 0.98]) * 1.5 * col / 0.4  # reach s = 0.4 d
        for lookahead in (2, czd._LOOKAHEAD):
            monkeypatch.setattr(czd, "_LOOKAHEAD", lookahead)
            got = czd._greedy_centers(SheetBalls(grid_small), U, d, CZParams(alpha=1.0))
            assert [a.tolist() for a in got] == [[k, k], [20, 22]], lookahead

    @pytest.mark.parametrize("t", [1e-3, 1e-1])
    def test_patch_pass_equals_per_ball(self, grid_small, t):
        f = make_test_field("angular_bump", grid_small)
        alpha = max(czd.maximal_table(f, h).f_star(t) for h in grid_small.halves)
        for half in grid_small.halves:
            res = decompose(f, CZParams(alpha=float(alpha)), half)
            rep = verify(res)
            assert rep["n_balls"] > 1000
            assert ((rep["eb_ratio"], rep["chi_grad_scaled"])
                    == _patch_constants_per_ball(res))


def _neighbor_args(res, alpha):
    c, grid = res.balls, res.grid
    balls = [dict(k=k, j=j, radius=r, mean=m)
             for k, j, r, m in zip(c.k, c.j, c.radius, c.mean)]
    return (SheetBalls(grid), c.k, c.j, c.radius, c.mean, alpha), balls


class TestNeighborConstants:
    def test_blocks_match_dense(self, logresult, czgrid):
        args, balls = _neighbor_args(logresult, 1.7)
        dense = _dense_neighbor_constants(balls, czgrid, 1.7)
        n = len(balls)
        assert n > 7 and dense[1] > 0
        for block in (1, 7, n - 1, n, n * n):
            assert czd._neighbor_constants(*args, block=block) == dense

    def test_many_balls_match_dense(self, grid_default):
        # the 7,155-ball cover of k_upper_via_cz(angular_bump, 0.01), whose
        # 316,696 radial candidate pairs fill more than one default block
        f = make_test_field("angular_bump", grid_default)
        alpha = float(max(czd.maximal_table(f, h).f_star(0.01)
                          for h in grid_default.halves))
        res = decompose(f, CZParams(alpha=alpha))
        args, balls = _neighbor_args(res, alpha)
        c = res.balls
        order = np.argsort(c.k, kind="stable")
        rc, reach = grid_default.r[c.k[order]], 2.0 * c.radius[order] * (1.0 + 1e-9)
        pairs = int(np.sum(np.searchsorted(rc, rc + reach, side="right")
                           - np.searchsorted(rc, rc - reach, side="left")))
        block = inspect.signature(czd._neighbor_constants).parameters["block"].default
        assert pairs > block
        dense = _dense_neighbor_constants(balls, grid_default, alpha)
        assert czd._neighbor_constants(*args) == dense
