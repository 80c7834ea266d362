
import numpy as np
import pytest

from conelab import czd
from conelab.acceptance import AcceptanceContext
from conelab.ballops import SheetBalls, distance_to_cells
from conelab.config import RunConfig
from conelab.czd import (CZParams, DegenerateLevelError, _sparse_patch,
                         combined_intensity, decompose, glue_good_parts,
                         k_upper_via_cz, maximal_function, verify)
from conelab.fieldlib import make_test_field
from conelab.grids import PolarGrid
from conelab.rearrangement import k_component_lower_bound


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

    def test_distance_transform_exact(self, czgrid):
        sheet = SheetBalls(czgrid)
        rng = np.random.default_rng(0)
        U = np.zeros((czgrid.nr, czgrid.nt), bool)
        U[100:150, 5:30] = True
        U[200:210, 40:48] = True
        d = distance_to_cells(sheet, ~U, U)
        pts = czgrid.points("plus")
        F = pts[~U]
        ks, js = np.nonzero(U)
        for i in rng.choice(len(ks), 25, replace=False):
            k, j = ks[i], js[i]
            brute = np.linalg.norm(F - pts[k, j], axis=1).min()
            assert d[k, j] == pytest.approx(brute, rel=1e-12)


class TestDecompose:
    def test_empty_level_set(self, logfield):
        amax = float(maximal_function(logfield, "plus").max())
        res = decompose(logfield, CZParams(alpha=2 * amax), "plus")
        assert not res.balls
        assert np.array_equal(res.good, logfield.sheet("plus"))

    def test_degenerate_level(self, logfield):
        with pytest.raises(DegenerateLevelError):
            decompose(logfield, CZParams(alpha=1e-30), "plus")

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CZParams(alpha=-1.0)
        with pytest.raises(ValueError):
            CZParams(alpha=1.0, c1=2.0)   # partition cannot be exact below 3

    def test_reconstruction_exact(self, logfield, logresult):
        vals = logfield.sheet("plus")
        err = np.abs(vals - logresult.good - logresult.bad).max()
        assert err <= 1e-12 * np.abs(vals).max()

    def test_radii_are_half_distance(self, logresult):
        for b in logresult.balls[:50]:
            assert b.radius == pytest.approx(
                0.5 * logresult.dist[b.k, b.j], rel=1e-14)

    def test_type_rule(self, logresult):
        for b in logresult.balls:
            assert b.type1 == (4.0 * b.radius <= b.vertex_distance)

    def test_support_inside_plain_ball(self, logresult, czgrid):
        sheet = SheetBalls(czgrid)
        for b in logresult.balls[:40]:
            for ring, lo, hi in b.rows:
                dd = sheet.row_distances(b.k, b.j, ring, lo, hi)
                assert dd.max() < b.radius

    def test_bad_parts_formula(self, logfield, logresult):
        vals = logfield.sheet("plus")
        for b in logresult.balls[:30]:
            shift = b.mean if b.type1 else 0.0
            for (ring, lo, hi), chi, brow in zip(b.rows, b.chi, b.b):
                expect = (vals[ring, lo:hi + 1] - shift) * chi
                assert np.allclose(brow, expect, atol=1e-14)

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
        g, rep = glue_good_parts(rp, rm)
        assert np.array_equal(g.sheet("plus"), f.sheet("plus"))
        assert rep["sup_g"] > 0

    def test_glued_restriction_matches_inputs(self, logfield):
        amax = float(maximal_function(logfield, "plus").max())
        params = CZParams(alpha=amax * 1e-2)
        rp = decompose(logfield, params, "plus")
        rm = decompose(logfield, params, "minus")
        g, rep = glue_good_parts(rp, rm)
        assert np.array_equal(g.sheet("plus"), rp.good)
        assert np.array_equal(g.sheet("minus"), rm.good)
        assert rep["sup_g_over_r"] <= 50 * params.alpha

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
        from conelab.czd import maximal_table
        for t in (0.05, 1.0):
            for h in ("plus", "minus"):
                alpha = maximal_table(logfield, h).f_star(t)
                M = maximal_function(logfield, h)
                lam = float(czgrid.cell_measure[M > alpha].sum())
                assert lam <= t * (1 + 1e-12)


def _sparse_patch_nodewise(grid, rows, data_rows, absolute=False):
    """Reference patch gradient: the 3-point radial stencil written as
    weights of f[k-1], f[k], f[k+1] on the same zero-extended patch."""
    rlo = min(r for r, _, _ in rows)
    rhi = max(r for r, _, _ in rows)
    jlo = max(0, min(lo for _, lo, _ in rows) - 1)
    jhi = min(grid.nt - 1, max(hi for _, _, hi in rows) + 1)
    patch = np.zeros((rhi - rlo + 3, jhi - jlo + 3))
    for (ring, lo, hi), vals in zip(rows, data_rows):
        patch[ring - rlo + 1, lo - jlo + 1:hi - jlo + 2] = \
            np.abs(vals) if absolute else vals
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


class TestSparsePatch:
    def test_radial_derivative_matches_grid(self, czgrid):
        # a radial field has no angular term away from the ghost columns
        sheet = make_test_field("radial_exp", czgrid).sheet("plus")
        lo, hi = 40, 200
        rows = [(k, 0, czgrid.nt - 1) for k in range(lo, hi + 1)]
        _, gmag, rlo, jlo = _sparse_patch(czgrid, rows, sheet[lo:hi + 1])
        assert (rlo, jlo) == (lo, 0)
        want = np.abs(czgrid.d_dr(sheet[None])[0])[lo + 1:hi, 1:-1]
        np.testing.assert_allclose(gmag[1:-1, 1:-1], want, rtol=1e-12)

    def test_verify_matches_nodewise_stencil(self, monkeypatch):
        # the cz-prop41 sweep on a small grid, verified with both stencils
        cfg = RunConfig(nr=220, nt=48, r_min=4e-8)
        for f in AcceptanceContext(cfg).alpha_suite():
            amax = float(maximal_function(f, "plus").max())
            for alpha in np.geomspace(0.5 * amax * 10.0**-cfg.alpha_decades,
                                      0.5 * amax, cfg.alpha_points):
                res = decompose(f, CZParams(alpha=float(alpha)), "plus")
                got = verify(res)
                with monkeypatch.context() as m:
                    m.setattr(czd, "_sparse_patch", _sparse_patch_nodewise)
                    want = verify(res)
                assert got.keys() == want.keys()
                for key, val in want.items():
                    if isinstance(val, float):
                        assert got[key] == pytest.approx(val, rel=1e-12, abs=0)
                    else:
                        assert got[key] == val
