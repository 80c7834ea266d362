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

from dataclasses import dataclass

import numpy as np

from .ballops import SheetBalls, distance_to_cells, expand_ranges
from .fields import Field, gradient, lp_norm
from .grids import radial_difference_weights
from .profiles import plateau
from .rearrangement import (k_component_lower_bound, k_sobolev_estimate,
                            rearrange_samples)

INF = float("inf")

# Greedy selection: window cells built per chunk of candidates (bounds the
# chunk's per-cell temporaries), and candidates scanned per chunk start.
_CHUNK_CELLS = 1 << 14
_LOOKAHEAD = 4096


class DegenerateLevelError(ValueError):
    """The level is too small for the truncated grid: U is the whole sheet."""


@dataclass(frozen=True)
class CZParams:
    """Level and Whitney constants; c2 = 4*c1 throughout."""

    alpha: float
    c1: float = 3.0
    p: float = 2.0

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
class WhitneyCover:
    """Whitney balls in selection order (center node k, j; plain radius d(x_i, F)/2;
    type-1 flag; mean of f over the plain ball), then the partition-support cells
    grouped by ball, ring and column (owning ball, node ring/col, chi and b)."""

    k: np.ndarray
    j: np.ndarray
    radius: np.ndarray
    type1: np.ndarray
    mean: np.ndarray
    ball: np.ndarray
    ring: np.ndarray
    col: np.ndarray
    chi: np.ndarray
    b: np.ndarray

    def __len__(self) -> int:
        return len(self.k)


@dataclass(eq=False)
class CZResult:
    field: Field
    half: str
    params: CZParams
    maximal: np.ndarray
    level_set: np.ndarray
    dist: np.ndarray
    balls: WhitneyCover
    good: np.ndarray
    bad: np.ndarray
    chi_sum: np.ndarray

    @property
    def grid(self):
        return self.field.grid

    def cover_rows(self):
        """Rows `x_r x_theta r_i type` for the cover dump."""
        c = self.balls
        return list(zip(self.grid.r[c.k].tolist(), self.grid.theta[c.j].tolist(),
                        c.radius.tolist(), np.where(c.type1, 1, 2).tolist()))


def _ball_sums(values: np.ndarray, ball, ring, lo, hi, n: int) -> np.ndarray:
    """Per ball 0..n-1, the sum of values over its rows (ring, lo..hi): rows
    are summed first, 256 at a time to bound the expanded cells, and the row
    sums are then added per ball in row order."""
    sums = np.empty(len(ring))
    for i in range(0, len(ring), 256):
        blk = slice(i, i + 256)
        row, col = expand_ranges(lo[blk], hi[blk])
        sums[blk] = np.bincount(row, values[ring[blk][row], col], len(sums[blk]))
    return np.bincount(ball, sums, n)


def combined_intensity(f: Field, half: str) -> np.ndarray:
    """|f| + |f|/r + |grad f| on one sheet."""
    vals = np.abs(f.sheet(half))
    return (vals + vals / f.grid.r[:, None]
            + gradient(f).magnitude()[f.grid.half_index(half)])


def maximal_function(f: Field, half="plus") -> np.ndarray:
    """Discrete uncentered maximal function of the combined intensity on one
    sheet (dyadic radii, grid-node centers, single-cell floor).  Cached per
    half.  `half` may also be a tuple of halves: the ones not cached yet
    share one stacked pass, and the (halves, nr, nt) stack is returned."""
    key = ("maximal", half)
    if key not in f._cache:
        halves = (half,) if isinstance(half, str) else tuple(half)
        todo = [h for h in halves if ("maximal", h) not in f._cache]
        if todo:
            M = SheetBalls(f.grid).maximal(
                np.stack([combined_intensity(f, h) for h in todo]))
            f._cache.update(zip([("maximal", h) for h in todo], M))
        if not isinstance(half, str):
            f._cache[key] = np.stack([f._cache[("maximal", h)] for h in halves])
    return f._cache[key]


def maximal_table(f: Field, half: str):
    return f.cached(("maximal_table", half), lambda: rearrange_samples(
        maximal_function(f, half), f.grid.cell_measure))


def _marks(sheet: SheetBalls, k, j, s, s_cells, owner, ring, col, w):
    """Per window cell (ring[i], col[i]) of candidate owner[i] (cover
    half-width w[i] on that ring): whether accepting the candidate marks it,
    i.e. the cell lies in its cover window or closer to its center than
    s_cells + s."""
    keep = np.abs(col - j[owner]) <= w
    test = np.flatnonzero(~keep)
    o, ring, col = owner[test], ring[test], col[test]
    keep[test] = (sheet.node_distances(k[o], j[o], ring, col)
                  < s_cells[ring * sheet.nt + col] + s[o])
    return keep


def _marked_cells(sheet: SheetBalls, k, j, s, s_cells, ball, ring, lo, hi, w):
    """Flat indices of the cells that accepting the candidates marks, from
    their window rows (ball, ring, lo..hi) and cover half-widths w."""
    row, col = expand_ranges(lo, hi)
    ring = ring[row]
    keep = _marks(sheet, k, j, s, s_cells, ball[row], ring, col, w[row])
    return ring[keep] * sheet.nt + col[keep]


def _greedy_centers(sheet: SheetBalls, U: np.ndarray, d: np.ndarray,
                    params: CZParams):
    """Greedy Vitali selection over the nodes of U by decreasing distance d
    (ties by ring, then column): a node is accepted unless an accepted ball
    has marked it.  Accepting marks the ball's cover window and the nodes of
    its blocking window whose own underline ball would overlap it; marks are
    never cleared.  The candidates are walked in chunks of about
    _CHUNK_CELLS window cells.  The window rows of a chunk are built for the
    candidates still unmarked when it starts; within the chunk, only the
    marks that one candidate would set on a later one are tested, the
    acceptances follow in order from these, and the rows are expanded to
    cells, and marked, for the accepted candidates only.  Returns the
    accepted centers (k, j) in selection order."""
    nt = sheet.nt
    ks, js = np.nonzero(U)
    # nonzero lists ring-major, so a stable sort breaks ties by ring, column
    order = np.argsort(-d[ks, js], kind="stable")
    ks, js = ks[order], js[order]
    cells = ks * nt + js
    s = 0.5 * d[ks, js] / params.c1
    s_cells = (d / (2.0 * params.c1)).ravel()
    cover = 0.95 * params.support_dilate
    reach = 2.0 * (2.0 * params.c1 / (2.0 * params.c1 - 1.0))
    # window cells, at most: rows times the widest row, whose half-angle is
    # asin(rho / R) for rho < R
    R, rho = sheet.r[ks], reach * s
    lo, hi = sheet.ring_span(R, rho)
    half = np.arcsin(np.minimum(rho / R, 1.0)) / sheet.dt
    cost = np.maximum(hi - lo + 1, 1) * np.minimum(2.0 * half + 3.0, nt)
    marked = np.zeros(U.size, dtype=bool)
    chosen = []
    pos = 0
    while pos < len(cells):
        ahead = np.arange(pos, min(pos + _LOOKAHEAD, len(cells)))
        pos = ahead[-1] + 1
        ahead = ahead[~marked[cells[ahead]]]
        take = max(1, int(np.searchsorted(np.cumsum(cost[ahead]), _CHUNK_CELLS,
                                          side="right")))
        if take < len(ahead):
            ahead, pos = ahead[:take], ahead[take]
        if not len(ahead):
            continue
        # window rows of radius reach*s, and per row the half-width of the
        # cover window (radius cover*s) on its ring, -1 off the cover's rings
        k, j, sc = ks[ahead], js[ahead], s[ahead]
        ball, ring, wlo, whi = sheet.ball_windows(k, j, reach * sc)
        clo, chi = sheet.ring_span(R[ahead], cover * sc)
        w = np.where((clo[ball] <= ring) & (ring <= chi[ball]),
                     sheet.half_widths(R[ahead][ball], cover * sc[ball], ring), -1)
        # edges: the later candidates of the chunk inside each row that the
        # row's candidate would mark, grouped by that candidate
        by_cell = np.argsort(cells[ahead])
        at = cells[ahead][by_cell]
        row, hit = expand_ranges(np.searchsorted(at, ring * nt + wlo, side="left"),
                                 np.searchsorted(at, ring * nt + whi, side="right") - 1)
        hit = by_cell[hit]
        later = hit > ball[row]
        row, hit = row[later], hit[later]
        src = ball[row]
        edge = _marks(sheet, k, j, sc, s_cells, src, k[hit], j[hit], w[row])
        src, hit = src[edge], hit[edge]
        # acceptances in order: a candidate is blocked iff an accepted earlier
        # one marks it
        blocked = np.zeros(len(ahead), dtype=bool)
        bounds = np.flatnonzero(np.diff(src, prepend=-1, append=len(ahead)))
        for i, b0, b1 in zip(src[bounds[:-1]].tolist(), bounds[:-1].tolist(),
                             bounds[1:].tolist()):
            if not blocked[i]:
                blocked[hit[b0:b1]] = True
        chosen.extend(ahead[~blocked].tolist())
        acc = ~blocked[ball]
        marked[_marked_cells(sheet, k, j, sc, s_cells, ball[acc], ring[acc],
                             wlo[acc], whi[acc], w[acc])] = True
    return ks[chosen], js[chosen]


def decompose(f: Field, params: CZParams, half: str = "plus") -> CZResult:
    """Build the decomposition f = g + sum_i b_i on one half-cone sheet."""
    grid = f.grid
    sheet = SheetBalls(grid)
    vals = f.sheet(half)
    M = maximal_function(f, half)
    U = M > params.alpha
    if U.all():
        raise DegenerateLevelError(
            f"alpha = {params.alpha:.3e} below the maximal function's minimum")

    d = distance_to_cells(sheet, ~U, U)

    bk, bj = _greedy_centers(sheet, U, d, params)
    radius = 0.5 * d[bk, bj]
    s = radius / params.c1

    # partition of unity on U: bump weights on the support cells, summed in ball order
    wball, wring, wlo, whi = sheet.ball_windows(bk, bj, params.support_dilate * s)
    row, col = expand_ranges(wlo, whi)
    ball, ring = wball[row], wring[row]
    psi = params.bump(sheet.node_distances(bk[ball], bj[ball], ring, col) / s[ball])
    cell = ring * grid.nt + col
    chi = psi / np.bincount(cell, psi, U.size)[cell]

    type1 = 4.0 * radius <= np.maximum(grid.r[bk] - radius, 0.0)
    plain = sheet.ball_windows(bk, bj, radius)
    mean = (_ball_sums(vals * grid.cell_measure, *plain, len(bk))
            / _ball_sums(grid.cell_measure, *plain, len(bk)))
    b = (vals[ring, col] - np.where(type1, mean, 0.0)[ball]) * chi
    bad = np.bincount(cell, b, U.size).reshape(U.shape)
    chi_sum = np.bincount(cell, chi, U.size).reshape(U.shape)
    cover = WhitneyCover(bk, bj, radius, type1, mean, ball, ring, col, chi, b)
    return CZResult(f, half, params, M, U, d, cover, vals - bad, bad, chi_sum)


# -- verification ---------------------------------------------------------------


def _patch_grads(grid, ball, ring, col, n: int, *values):
    """Zero-extended values and |grad| of sheet functions given on the cells
    (ring, col) of balls 0..n-1 (grouped by ball), in one stencil pass over
    all patches.  Ball i's patch is rings rlo..rhi by its columns widened by
    one in the sheet, jlo..jhi; ghost rings continue r geometrically.  Returns
    (start, rlo, rhi, jlo, jhi, nj) and per values array (vals, grad_mag),
    with ball i's cell (k, j) at start[i] + (k - rlo[i]) nj[i] + j - jlo[i]."""
    first = np.searchsorted(ball, np.arange(n))
    rlo, rhi = ring[first], ring[np.r_[first[1:], len(ball)] - 1]
    jlo = np.maximum(np.minimum.reduceat(col, first) - 1, 0)
    jhi = np.minimum(np.maximum.reduceat(col, first) + 1, grid.nt - 1)
    nj = jhi - jlo + 1
    end = np.cumsum((rhi - rlo + 3) * (nj + 2))   # past each padded patch
    owner, k = expand_ranges(rlo, rhi)
    row, j = expand_ranges(jlo[owner], jhi[owner])
    owner, k = owner[row], k[row]

    def padded(i, kk, jj):
        return end[i] - (rhi[i] - kk + 2) * (nj[i] + 2) + jj - jlo[i] + 1

    at, up = padded(owner, k, j), nj[owner] + 2
    a, b = radial_difference_weights(np.r_[grid.r[0] * grid.q, grid.r,
                                           grid.r[-1] / grid.q])
    out = []
    for v in values:
        patch = np.zeros(int(end[-1]))
        patch[padded(ball, ring, col)] = v
        mid = patch[at]
        dr = a[k] * (patch[at + up] - mid) + b[k] * (mid - patch[at - up])
        ang = (patch[at + 1] - patch[at - 1]) / (2.0 * grid.dtheta) / grid.r[k]
        out.append((mid, np.sqrt(dr**2 + ang**2)))
    return (np.searchsorted(owner, np.arange(n)), rlo, rhi, jlo, jhi, nj), out


def _window_counts(grid, ring, lo, hi) -> np.ndarray:
    """Number of rows (ring, lo..hi) that contain each cell of the sheet."""
    diff = np.zeros((grid.nr, grid.nt + 1), dtype=np.int64)
    np.add.at(diff, (ring, lo), 1)
    np.add.at(diff, (ring, hi + 1), -1)
    return np.cumsum(diff, axis=1)[:, :-1]


def _neighbor_constants(rc, tc, rad, means, alpha, block=1 << 18):
    """Max radius ratio and max |mean_i - mean_j| / (min(r_i, r_j) alpha) over
    intersecting plain balls.  Two balls meet only if |rc_i - rc_j| <
    rad_i + rad_j <= 2 max(rad_i, rad_j), so after a sort by rc each ball is
    paired with the balls within twice its radius radially, which lists
    every meeting pair at least once with the larger ball first, and about
    `block` pairs are listed at a time.  A ball paired with itself gives
    (1, 0), the values without any."""
    order = np.argsort(rc, kind="stable")
    rc, tc, rad, means = rc[order], tc[order], rad[order], means[order]
    reach = 2.0 * rad * (1.0 + 1e-9)
    lo = np.searchsorted(rc, rc - reach, side="left")
    hi = np.searchsorted(rc, rc + reach, side="right") - 1
    counts = hi - lo + 1
    ends = np.cumsum(counts)
    ratio_max, mean_const = 1.0, 0.0
    start = 0
    while start < len(rad):
        stop = max(start + 1, int(np.searchsorted(
            ends, ends[start] - counts[start] + block, side="right")))
        ii, jj = expand_ranges(lo[start:stop], hi[start:stop])
        ii += start
        near = np.abs(rc[ii] - rc[jj]) <= (rad[ii] + rad[jj]) * (1.0 + 1e-9)
        ii, jj = ii[near], jj[near]
        d2 = rc[ii]**2 + rc[jj]**2 - 2.0 * rc[ii] * rc[jj] * np.cos(tc[ii] - tc[jj])
        meet = np.sqrt(np.maximum(d2, 0.0)) < rad[ii] + rad[jj]
        ii, jj = ii[meet], jj[meet]
        ratio_max = max(ratio_max, float(np.max(rad[ii] / rad[jj])))
        mean_const = max(mean_const, float(np.max(
            np.abs(means[ii] - means[jj]) / (np.minimum(rad[ii], rad[jj]) * alpha))))
        start = stop
    return ratio_max, mean_const


def verify(result: CZResult) -> dict:
    """Measure the decomposition estimates and check the exact set properties.

    Returns a report dict with the measured ratios:
      rec_err   max |f - g - sum b_i| relative to max |f|
      eg_ratio  sup(|g| + |g|/r + |grad g|) / alpha
      eb_ratio  max_i avg_{B_i}(|b_i| + |b_i|/r + |grad b_i|) / alpha
      eB_ratio  sum lambda(B_i) alpha^p / int (combined intensity)^p
      overlap_N max number of plain balls containing one cell
    plus exactness flags and the measured neighbor/mean comparability constants.
    """
    params = result.params
    grid = result.grid
    sheet = SheetBalls(grid)
    cover = result.balls
    n = len(cover)
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

    intensity = combined_intensity(result.field, result.half)
    denom = float(np.sum(intensity**params.p * meas))

    # set properties: one pass over the window rows of each radius kind
    s = cover.radius / params.c1
    pball, pring, plo, phi = sheet.ball_windows(cover.k, cover.j, cover.radius)
    ball_measure = _ball_sums(meas, pball, pring, plo, phi, n)
    overlap = _window_counts(grid, pring, plo, phi)
    type2_geometry_ok = not np.any(~cover.type1[pball] & (
        grid.r[pring] > 6.0 * cover.radius[pball] * (1 + 1e-12)))
    underline = _window_counts(grid, *sheet.ball_windows(cover.k, cover.j, s)[1:])
    oball, oring, olo, ohi = sheet.ball_windows(cover.k, cover.j, params.c2 * s)
    f_count = np.pad(np.cumsum(~result.level_set, axis=1), ((0, 0), (1, 0)))
    meets = np.bincount(oball, f_count[oring, ohi + 1] - f_count[oring, olo], n) > 0

    # bad-part averages and partition gradients: one pass over all patches,
    # then each ball's plain cells in row-major order, summed pairwise per ball
    eb_ratio = chi_grad = 0.0
    if n:
        (start, rlo, rhi, jlo, jhi, nj), ((babs, bmag), (_, cmag)) = _patch_grads(
            grid, cover.ball, cover.ring, cover.col, n, np.abs(cover.b), cover.chi)
        chi_grad = float((np.maximum.reduceat(cmag, start) * cover.radius).max())
        keep = (rlo[pball] <= pring) & (pring <= rhi[pball])
        row, col = expand_ranges(np.maximum(plo, jlo[pball])[keep],
                                 np.minimum(phi, jhi[pball])[keep])
        owner, ring = pball[keep][row], pring[keep][row]
        at = start[owner] + (ring - rlo[owner]) * nj[owner] + col - jlo[owner]
        x = (babs[at] * (1.0 + 1.0 / grid.r[ring]) + bmag[at]) * meas[ring, col]
        ends = np.searchsorted(owner, np.arange(n + 1)).tolist()
        num = np.array([x[i:z].sum() for i, z in zip(ends[:-1], ends[1:])])
        eb_ratio = float((num / ball_measure / alpha).max())

    eB_ratio = float(ball_measure.sum()) * alpha**params.p / denom if denom > 0 else 0.0
    ratio_max, mean_const = _neighbor_constants(
        grid.r[cover.k], grid.theta[cover.j], cover.radius, cover.mean, alpha)

    return {
        "alpha": alpha,
        "n_balls": n,
        "rec_err": rec_err,
        "eg_ratio": eg_ratio,
        "eb_ratio": eb_ratio,
        "eB_ratio": eB_ratio,
        "overlap_N": int(overlap.max()),
        "underline_disjoint": bool(underline.max() <= 1),
        "plain_cover_exact": bool(np.all(overlap[result.level_set] > 0)),
        "overline_meets_complement": bool(meets.all()),
        "partition_err": float(np.abs(result.chi_sum - result.level_set).max()),
        "type2_geometry_ok": type2_geometry_ok,
        "neighbor_radius_ratio": ratio_max,
        "mean_comparability": mean_const,
        "chi_grad_scaled": chi_grad,
        "level_set_measure": float(meas[result.level_set].sum()),
    }


def level_sweep(f: Field, decades: float, points: int):
    """Decompose and verify the plus sheet of f at `points` levels, geometric
    from 0.5 max M 10^-decades up to 0.5 max M.  Yields each level's `verify`
    report with the decomposition under "decomposition"; a level below the
    maximal function's minimum raises DegenerateLevelError."""
    amax = float(maximal_function(f, "plus").max())
    for alpha in np.geomspace(0.5 * amax * 10.0**-decades, 0.5 * amax, points):
        res = decompose(f, CZParams(alpha=float(alpha)), "plus")
        yield {**verify(res), "decomposition": res}


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


def k_upper_via_cz(f: Field, t: float) -> dict:
    """Constructive upper bound for the interpolation K-functional at t:
    run the decomposition at alpha(t) = max over sheets of the rearranged
    maximal function at t, and price the split ||b||_1-side + t ||g||_inf-side."""
    grid = f.grid
    # both halves' maximal functions in one pass, cached for the tables below
    maxM = float(maximal_function(f, grid.halves).max())
    alphas = [maximal_table(f, h).f_star(t) for h in grid.halves]
    alpha = float(max(alphas))
    if alpha <= 0.0 or alpha >= maxM:
        alpha = min(alpha, maxM) if alpha > 0 else maxM
        g = f
        b_norm = 0.0
        g_norm = hardy_sobolev_sup(g)
        return {"t": t, "alpha": alpha, "value": b_norm + t * g_norm,
                "b_norm": b_norm, "g_norm": g_norm, "n_balls": 0}
    params = CZParams(alpha=alpha)
    res_p = decompose(f, params, "plus")
    res_m = decompose(f, params, "minus")
    g, _ = glue_good_parts(res_p, res_m)
    b = f - g
    b_norm = hardy_sobolev_l1(b)
    g_norm = hardy_sobolev_sup(g)
    return {"t": t, "alpha": alpha, "value": b_norm + t * g_norm,
            "b_norm": b_norm, "g_norm": g_norm,
            "n_balls": len(res_p.balls) + len(res_m.balls)}


def k_band(f: Field, t_lo: float, t_hi: float, points: int):
    """Rows over a geometric t grid: the constructive upper bound of
    `k_upper_via_cz`, the rearrangement estimate, their ratio and the
    component lower bound of K(f, t)."""
    for t in np.geomspace(t_lo, t_hi, points):
        t = float(t)
        up = k_upper_via_cz(f, t)["value"]
        est = k_sobolev_estimate(f, t)
        yield {"t": t, "K_estimate": est, "K_upper_cz": up, "ratio": up / est,
               "K_lower": k_component_lower_bound(f, t)}
