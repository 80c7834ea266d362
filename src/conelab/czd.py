"""Calderon-Zygmund decomposition on a half-cone at level alpha.

Pipeline: discrete maximal function of |f| + |f|/r + |grad f|, level set U,
Whitney-type ball cover of U (greedy Vitali selection on the exact distance
to the complement), partition of unity from a fixed bump, type-1/type-2 ball
classification by distance to the vertex, bad parts b_i and good part
g = f - sum b_i.  A verifier measures the constants of the advertised
estimates; the set-theoretic properties (disjointness, coverage, overline
balls meeting the complement) hold exactly by construction.

The greedy uses c1 >= 3: a candidate center is skipped iff its underline ball
would overlap an accepted one, and every skipped cell lies within 2 underline
radii of its blocker, which is exactly where the partition bump is still
positive.  For c1 < 3 the bump support (1+c1)/2 is smaller than the blocking
reach 2 and a partition of unity of this form cannot be guaranteed.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

import numpy as np

from .ballops import SheetBalls, distance_to_cells
from .fields import Field, gradient, lp_norm
from .grids import radial_difference_weights
from .profiles import plateau
from .rearrangement import rearrange_samples

INF = float("inf")


class DegenerateLevelError(ValueError):
    """The level is too small for the truncated grid: U is the whole sheet."""


@dataclass(frozen=True)
class CZParams:
    """Level and Whitney constants; c2 = 4*c1 throughout."""

    alpha: float
    c1: float = 3.0
    p: float = 2.0
    include_weight: bool = True
    include_gradient: bool = True

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("level alpha must be positive")
        if self.c1 < 3.0:
            raise ValueError("need c1 >= 3 for an exact partition of unity")
        if self.p < 1.0:
            raise ValueError("p must be >= 1")

    @property
    def c2(self) -> float:
        return 4.0 * self.c1

    @property
    def support_dilate(self) -> float:
        """Bump support radius in underline-radius units."""
        return 0.5 * (1.0 + self.c1)

    def bump(self, s):
        """Partition bump: 1 on [0,1], 0 beyond (1+c1)/2, in underline units."""
        return plateau(s, 1.0, self.support_dilate)


@dataclass(eq=False)
class WhitneyBall:
    k: int
    j: int
    r_c: float
    th_c: float
    radius: float            # plain radius = d(x_i, F)/2
    s: float                 # underline radius = radius/c1
    type1: bool = False
    mean: float = 0.0
    rows: list = dfield(default_factory=list)   # (ring, jlo, jhi) of bump support
    chi: list = dfield(default_factory=list)    # partition weights per row
    b: list = dfield(default_factory=list)      # bad-part values per row

    @property
    def vertex_distance(self) -> float:
        return max(self.r_c - self.radius, 0.0)


@dataclass(eq=False)
class CZResult:
    field: Field
    half: str
    params: CZParams
    maximal: np.ndarray
    level_set: np.ndarray
    dist: np.ndarray
    balls: list
    good: np.ndarray
    bad: np.ndarray
    chi_sum: np.ndarray

    @property
    def grid(self):
        return self.field.grid

    def cover_rows(self):
        """Rows `x_r x_theta r_i type` for the cover dump."""
        return [(b.r_c, b.th_c, b.radius, 1 if b.type1 else 2) for b in self.balls]


def combined_intensity(f: Field, half: str, include_weight: bool = True,
                       include_gradient: bool = True) -> np.ndarray:
    vals = np.abs(f.sheet(half))
    out = np.array(vals)
    if include_weight:
        out += vals / f.grid.r[:, None]
    if include_gradient:
        out += gradient(f).magnitude()[f.grid.half_index(half)]
    return out


def maximal_function(f: Field, half: str = "plus", include_weight: bool = True,
                     include_gradient: bool = True) -> np.ndarray:
    """Discrete uncentered maximal function of the combined intensity on one
    sheet (dyadic radii, grid-node centers, single-cell floor).  Cached."""
    key = ("maximal", half, include_weight, include_gradient)
    if key in f._cache:
        return f._cache[key]
    intensity = combined_intensity(f, half, include_weight, include_gradient)
    M = SheetBalls(f.grid).maximal(intensity)
    f._cache[key] = M
    return M


def maximal_table(f: Field, half: str, **kw):
    key = ("maximal_table", half, tuple(sorted(kw.items())))
    if key in f._cache:
        return f._cache[key]
    M = maximal_function(f, half, **kw)
    table = rearrange_samples(M, f.grid.cell_measure)
    f._cache[key] = table
    return table


def decompose(f: Field, params: CZParams, half: str = "plus") -> CZResult:
    """Build the decomposition f = g + sum_i b_i on one half-cone sheet."""
    grid = f.grid
    sheet = SheetBalls(grid)
    vals = f.sheet(half)
    M = maximal_function(f, half, params.include_weight, params.include_gradient)
    U = M > params.alpha
    if not U.any():
        return CZResult(f, half, params, M, U, np.full(U.shape, np.inf), [],
                        np.array(vals), np.zeros_like(vals), np.zeros_like(vals))
    if U.all():
        raise DegenerateLevelError(
            "alpha below the maximal function's grid minimum; no complement")

    d = distance_to_cells(sheet, ~U, U)
    s_arr = d / (2.0 * params.c1)

    ks, js = np.nonzero(U)
    dvals = d[ks, js]
    order = np.lexsort((js, ks, -dvals))
    covered = np.zeros(U.shape, dtype=bool)
    blocked = np.zeros(U.shape, dtype=bool)
    cov = 0.95 * params.support_dilate
    block_reach = 2.0 * (2.0 * params.c1 / (2.0 * params.c1 - 1.0))
    balls: list[WhitneyBall] = []
    for idx in order:
        k, j = int(ks[idx]), int(js[idx])
        if covered[k, j] or blocked[k, j]:
            continue
        d_i = float(d[k, j])
        r_i = 0.5 * d_i
        s_i = r_i / params.c1
        ball = WhitneyBall(k, j, float(grid.r[k]), float(grid.theta[j]), r_i, s_i)
        balls.append(ball)
        for ring, lo, hi in sheet.ball_rows(k, j, cov * s_i):
            covered[ring, lo:hi + 1] = True
        for ring, lo, hi in sheet.ball_rows(k, j, block_reach * s_i):
            dd = sheet.row_distances(k, j, ring, lo, hi)
            hit = dd < s_arr[ring, lo:hi + 1] + s_i
            blocked[ring, lo:hi + 1] |= hit

    # partition of unity on U
    den = np.zeros(U.shape)
    for ball in balls:
        supp = params.support_dilate * ball.s
        for ring, lo, hi in sheet.ball_rows(ball.k, ball.j, supp):
            dd = sheet.row_distances(ball.k, ball.j, ring, lo, hi)
            psi = params.bump(dd / ball.s)
            ball.rows.append((ring, lo, hi))
            ball.chi.append(psi)
            den[ring, lo:hi + 1] += psi

    meas = grid.cell_measure
    bad = np.zeros_like(vals)
    for ball in balls:
        ball.type1 = 4.0 * ball.radius <= ball.vertex_distance
        num = tot = 0.0
        for ring, lo, hi in sheet.ball_rows(ball.k, ball.j, ball.radius):
            num += float((vals[ring, lo:hi + 1] * meas[ring, lo:hi + 1]).sum())
            tot += float(meas[ring, lo:hi + 1].sum())
        ball.mean = num / tot
        shift = ball.mean if ball.type1 else 0.0
        for i, (ring, lo, hi) in enumerate(ball.rows):
            chi = ball.chi[i] / den[ring, lo:hi + 1]
            ball.chi[i] = chi
            brow = (vals[ring, lo:hi + 1] - shift) * chi
            ball.b.append(brow)
            bad[ring, lo:hi + 1] += brow

    chi_sum = np.zeros_like(den)
    for ball in balls:
        for i, (ring, lo, hi) in enumerate(ball.rows):
            chi_sum[ring, lo:hi + 1] += ball.chi[i]
    good = vals - bad
    return CZResult(f, half, params, M, U, d, balls, good, bad, chi_sum)


# -- verification ---------------------------------------------------------------


def _sparse_patch(grid, rows, data_rows, absolute=False):
    """Zero-extended local patch (values and |grad|) of a sheet function given
    by sparse rows.  Returns (vals, grad_mag, rlo, jlo): interior arrays with
    origin cell (rlo, jlo); ghost cells use the geometric radial continuation."""
    rlo = min(r for r, _, _ in rows)
    rhi = max(r for r, _, _ in rows)
    jlo = max(0, min(lo for _, lo, _ in rows) - 1)
    jhi = min(grid.nt - 1, max(hi for _, _, hi in rows) + 1)
    patch = np.zeros((rhi - rlo + 3, jhi - jlo + 3))
    for (ring, lo, hi), vals in zip(rows, data_rows):
        patch[ring - rlo + 1, lo - jlo + 1:hi - jlo + 2] = \
            np.abs(vals) if absolute else vals
    q = grid.q
    r_ext = np.empty(rhi - rlo + 3)
    r_ext[1:-1] = grid.r[rlo:rhi + 1]
    r_ext[0] = grid.r[rlo - 1] if rlo > 0 else grid.r[0] * q
    r_ext[-1] = grid.r[rhi + 1] if rhi < grid.nr - 1 else grid.r[-1] / q
    a, b = radial_difference_weights(r_ext)
    d = np.diff(patch[:, 1:-1], axis=0)
    dr = a[:, None] * d[1:] + b[:, None] * d[:-1]
    dth = (patch[1:-1, 2:] - patch[1:-1, :-2]) / (2.0 * grid.dtheta)
    ang = dth / r_ext[1:-1, None]
    return patch[1:-1, 1:-1], np.sqrt(dr**2 + ang**2), rlo, jlo


def verify(result: CZResult, params: CZParams | None = None) -> dict:
    """Measure the decomposition estimates and check the exact set properties.

    Returns a report dict with the measured ratios:
      rec_err   max |f - g - sum b_i| relative to max |f|
      eg_ratio  sup(|g| + |g|/r + |grad g|) / alpha
      eb_ratio  max_i avg_{B_i}(|b_i| + |b_i|/r + |grad b_i|) / alpha
      eB_ratio  sum lambda(B_i) alpha^p / int (combined intensity)^p
      overlap_N max number of plain balls containing one cell
    plus exactness flags and the measured neighbor/mean comparability constants.
    """
    params = params or result.params
    grid = result.grid
    sheet = SheetBalls(grid)
    vals = result.field.sheet(result.half)
    meas = grid.cell_measure
    alpha = params.alpha
    scale = float(np.abs(vals).max()) or 1.0

    rec_err = float(np.abs(vals - result.good - result.bad).max()) / scale

    gg = result.good[None]
    dr = grid.d_dr(gg)[0]
    ang = (grid.d_dtheta(gg)[0]) / grid.r[:, None]
    gmag = np.sqrt(dr**2 + ang**2)
    eg = np.abs(result.good) * (1.0 + (1.0 / grid.r)[:, None]) + gmag
    eg_ratio = float(eg.max()) / alpha

    intensity = combined_intensity(result.field, result.half,
                                   params.include_weight, params.include_gradient)
    denom = float(np.sum(intensity**params.p * meas))
    sum_ball_measure = 0.0
    overlap = np.zeros(grid.shape[1:], dtype=np.int32)
    underline_paint = np.zeros(grid.shape[1:], dtype=np.int32)
    covered_by_plain = np.zeros(grid.shape[1:], dtype=bool)
    overline_all_meet = True
    type2_geometry_ok = True
    eb_ratio = 0.0
    chi_grad = 0.0
    F = ~result.level_set
    for ball in result.balls:
        for ring, lo, hi in sheet.ball_rows(ball.k, ball.j, ball.radius):
            sum_ball_measure += float(meas[ring, lo:hi + 1].sum())
            overlap[ring, lo:hi + 1] += 1
            covered_by_plain[ring, lo:hi + 1] = True
            if not ball.type1 and grid.r[ring] > 6.0 * ball.radius * (1 + 1e-12):
                type2_geometry_ok = False
        for ring, lo, hi in sheet.ball_rows(ball.k, ball.j, ball.s):
            underline_paint[ring, lo:hi + 1] += 1
        meets = False
        for ring, lo, hi in sheet.ball_rows(ball.k, ball.j,
                                            params.c2 * ball.s):
            if F[ring, lo:hi + 1].any():
                meets = True
                break
        overline_all_meet &= meets
        if ball.rows:
            babs, bmag, rlo, jlo = _sparse_patch(grid, ball.rows, ball.b,
                                                 absolute=True)
            _, cmag, _, _ = _sparse_patch(grid, ball.rows, ball.chi)
            chi_grad = max(chi_grad, float(cmag.max()) * ball.radius)
            num = tot = 0.0
            nk, nj = bmag.shape
            for ring, lo, hi in sheet.ball_rows(ball.k, ball.j, ball.radius):
                tot += float(meas[ring, lo:hi + 1].sum())
                if not (rlo <= ring < rlo + nk):
                    continue
                a, z = max(lo, jlo), min(hi, jlo + nj - 1)
                if z < a:
                    continue
                vb = babs[ring - rlo, a - jlo:z - jlo + 1]
                vg = bmag[ring - rlo, a - jlo:z - jlo + 1]
                contrib = vb * (1.0 + 1.0 / grid.r[ring]) + vg
                num += float((contrib * meas[ring, a:z + 1]).sum())
            eb_ratio = max(eb_ratio, num / tot / alpha)

    eB_ratio = sum_ball_measure * alpha**params.p / denom if denom > 0 else 0.0
    if result.balls:
        part_err = float(np.abs(result.chi_sum
                                - result.level_set.astype(float)).max())
    else:
        part_err = 0.0

    # neighbor comparability over intersecting plain balls
    ratio_max, mean_const = 1.0, 0.0
    if len(result.balls) > 1:
        rc = np.array([b.r_c for b in result.balls])
        tc = np.array([b.th_c for b in result.balls])
        rad = np.array([b.radius for b in result.balls])
        means = np.array([b.mean for b in result.balls])
        d2 = (rc[:, None]**2 + rc[None, :]**2
              - 2.0 * rc[:, None] * rc[None, :] * np.cos(tc[:, None] - tc[None, :]))
        inter = np.sqrt(np.maximum(d2, 0.0)) < rad[:, None] + rad[None, :]
        np.fill_diagonal(inter, False)
        ii, jj = np.nonzero(inter)
        if len(ii):
            ratio_max = float(np.max(rad[ii] / rad[jj]))
            mean_const = float(np.max(np.abs(means[ii] - means[jj])
                                      / (np.minimum(rad[ii], rad[jj]) * alpha)))

    return {
        "alpha": alpha,
        "n_balls": len(result.balls),
        "rec_err": rec_err,
        "eg_ratio": eg_ratio,
        "eb_ratio": eb_ratio,
        "eB_ratio": eB_ratio,
        "overlap_N": int(overlap.max()) if result.balls else 0,
        "underline_disjoint": bool(underline_paint.max() <= 1),
        "plain_cover_exact": bool(np.all(covered_by_plain[result.level_set])),
        "overline_meets_complement": bool(overline_all_meet),
        "partition_err": part_err,
        "type2_geometry_ok": type2_geometry_ok,
        "neighbor_radius_ratio": ratio_max,
        "mean_comparability": mean_const,
        "chi_grad_scaled": chi_grad,
        "level_set_measure": float(meas[result.level_set].sum()),
    }


def glue_good_parts(res_plus: CZResult, res_minus: CZResult):
    """Join the two half-cone good parts into one double-cone field.

    Requires the vertex compatibility |g| <= C alpha r at the innermost ring,
    which holds because vertex-adjacent cells are either in the complement of
    the level set (where |g|/r <= alpha pointwise) or covered purely by type-2
    balls (where g vanishes).
    """
    f = res_plus.field
    if res_minus.field is not f:
        raise ValueError("good parts come from different fields")
    grid = f.grid
    alpha = max(res_plus.params.alpha, res_minus.params.alpha)
    vals = np.empty(grid.shape)
    vals[grid.half_index("plus")] = res_plus.good
    vals[grid.half_index("minus")] = res_minus.good
    inner = np.abs(vals[:, 0, :]).max()
    tol = 50.0 * alpha * grid.r_min
    if inner > tol:
        raise ValueError(
            f"vertex mismatch: innermost |g| = {inner:.3e} exceeds {tol:.3e}")
    g = f.with_values(vals, name="good_part", vertex_limits=(0.0, 0.0))
    gm = gradient(g).magnitude()
    report = {
        "lipschitz_seminorm": float(gm.max()),
        "sup_g_over_r": lp_norm(g, INF, weight="inv_r"),
        "sup_g": lp_norm(g, INF),
        "alpha": alpha,
    }
    return g, report


def hardy_sobolev_l1(b: Field) -> float:
    """int (|b| + |b|/r + |grad b|): the endpoint norm of the bad part."""
    return (lp_norm(b, 1.0) + lp_norm(b, 1.0, weight="inv_r")
            + lp_norm(gradient(b), 1.0))


def hardy_sobolev_sup(f: Field) -> float:
    return (lp_norm(f, INF) + lp_norm(f, INF, weight="inv_r")
            + lp_norm(gradient(f), INF))


def k_upper_via_cz(f: Field, t: float, c1: float = 3.0, p: float = 2.0) -> dict:
    """Constructive upper bound for the interpolation K-functional at t:
    run the decomposition at alpha(t) = max over sheets of the rearranged
    maximal function at t, and price the split ||b||_1-side + t ||g||_inf-side."""
    grid = f.grid
    alphas = [maximal_table(f, h).f_star(t) for h in grid.halves]
    alpha = float(max(alphas))
    maxM = max(float(maximal_function(f, h).max()) for h in grid.halves)
    if alpha <= 0.0 or alpha >= maxM:
        alpha = min(alpha, maxM) if alpha > 0 else maxM
        g = f
        b_norm = 0.0
        g_norm = hardy_sobolev_sup(g)
        return {"t": t, "alpha": alpha, "value": b_norm + t * g_norm,
                "b_norm": b_norm, "g_norm": g_norm, "n_balls": 0}
    params = CZParams(alpha=alpha, c1=c1, p=p)
    res_p = decompose(f, params, "plus")
    res_m = decompose(f, params, "minus")
    g, _ = glue_good_parts(res_p, res_m)
    b = f - g
    b_norm = hardy_sobolev_l1(b)
    g_norm = hardy_sobolev_sup(g)
    return {"t": t, "alpha": alpha, "value": b_norm + t * g_norm,
            "b_norm": b_norm, "g_norm": g_norm,
            "n_balls": len(res_p.balls) + len(res_m.balls)}
