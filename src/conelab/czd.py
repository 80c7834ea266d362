"""Calderon-Zygmund decomposition on a half-cone at level alpha.

Pipeline: discrete maximal function of |f| + |f|/r + |grad f|, level set U,
Whitney-type ball cover of U (greedy Vitali selection on the exact distance
to the complement), partition of unity from a fixed bump, type-1/type-2 ball
classification by distance to the vertex, bad parts b_i and good part
g = f - sum b_i.  A verifier measures the constants of the advertised
estimates; the set-theoretic properties (disjointness, coverage, overline
balls meeting the complement) hold exactly by construction.

One rule, the blocking reach, makes the cover both disjoint and a partition.
A ball of plain radius c1 s_i (s_i its underline radius) blocks every node
of its window B(x_i, reach s_i), reach = 2 * 2c1 / (2c1 - 1), and a candidate
center is skipped iff an accepted ball blocks it.  Since d is 1-Lipschitz, a
node whose underline ball meets B(x_i, s_i) lies within reach s_i of x_i, so
the underline balls are disjoint.  The partition bump is 1 on the underline
ball and positive out to the plain radius c1 s_i, so it is positive on the
whole blocking window: every node of U, accepted or blocked, gets a positive
bump sum, and every bad part lies in its plain ball.  That needs c1 >= reach,
i.e. c1 >= 5/2; c1 is fixed at 3 (reach 2.4).

Half-cone sheets that are equal share their work through one rule,
`twin_half`: a half whose combined intensity equals an earlier half's
(np.array_equal) takes that half's maximal function and table, and
`k_upper_via_cz` takes the plus half's decomposition for a minus half that is
its twin and shares its values.  A field whose halves differ pays one
intensity comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .ballops import SheetBalls, distance_to_cells, expand_ranges
from .fields import WEIGHTS, Field, lp_norm, samples
from .grids import radial_difference_weights
from .profiles import plateau
from .rearrangement import (k_component_lower_bound, k_sobolev_estimate,
                            rearrange_samples)

INF = float("inf")

# Greedy selection: window cells built per chunk of candidates (bounds the
# chunk's per-cell temporaries), and candidates scanned per chunk start.
_CHUNK_CELLS = 1 << 14
_LOOKAHEAD = 4096

# Largest |f|, |f|/r or |grad f| sample the estimates can square: the
# level-set estimate sums intensity^2 over up to config.MAX_CELLS cells of measure
# below 1 (large samples sit at the vertex), and an intensity of three such
# samples keeps that sum below DBL_MAX = 1.8e308 (sqrt(1.8e308 / 9e6) = 4.5e150).
MAX_SAMPLE = 1e150

# The exact set properties of a decomposition, as flags of the `verify` report:
# `cz` exits 1 and cz-prop41 fails unless each holds at every level.
SET_PROPERTIES = ("underline_disjoint", "plain_cover_exact",
                  "overline_meets_complement", "type2_geometry_ok")


class DegenerateLevelError(ValueError):
    """The level is too small for the truncated grid: U is the whole sheet."""


@dataclass(frozen=True)
class CZParams:
    """The level alpha.  The Whitney constants c1 (see the module docstring)
    and c2 = 4*c1 and the exponent p of the level-set estimate are fixed."""

    alpha: float
    c1 = 3.0      # class constants, not fields
    p = 2.0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("level alpha must be positive")

    @property
    def c2(self) -> float:
        return 4.0 * self.c1

    def bump(self, s):
        """Partition bump: 1 on [0, 1], 0 beyond c1 (the plain ball), in
        underline units."""
        return plateau(s, 1.0, self.c1)


@dataclass(eq=False)
class WhitneyCover:
    """Whitney balls in selection order (center node k, j; plain radius d(x_i, F)/2;
    type-1 flag; measure of and mean of f over the plain ball), then the
    partition-support cells, the plain ball's, grouped by ball, ring and
    column (owning ball, node ring/col, chi and b)."""

    k: np.ndarray
    j: np.ndarray
    radius: np.ndarray
    type1: np.ndarray
    measure: np.ndarray
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


def combined_intensity(f: Field, half: str) -> np.ndarray:
    """|f| + |f|/r + |grad f| on one sheet, added in `WEIGHTS` order, built
    from that sheet's samples alone."""
    i = f.grid.half_index(half)
    total = np.abs(f.values[i])
    total += total / f.grid.r[:, None]
    total += samples(f, "gradient")[i]
    return total


def twin_half(f: Field, half: str) -> str:
    """The first half, in `grid.halves` order, whose combined intensity equals
    this half's (np.array_equal): the half itself unless an earlier one is its
    twin.  Cached per half; the intensities are built only when an earlier
    half exists."""
    def build():
        earlier = f.grid.halves[:f.grid.half_index(half)]
        if earlier:
            intensity = combined_intensity(f, half)
            for h in earlier:
                if np.array_equal(intensity, combined_intensity(f, h)):
                    return h
        return half
    return f.cached(("twin_half", half), build)


def maximal_function(f: Field, half: str = "plus") -> np.ndarray:
    """Discrete uncentered maximal function of the combined intensity on one
    sheet (dyadic radii, grid-node centers, single-cell floor), cached under
    the half's twin, so twin halves share one array."""
    twin = twin_half(f, half)
    return f.cached(("maximal", twin), lambda: SheetBalls(f.grid).maximal(
        combined_intensity(f, twin)))


def maximal_table(f: Field, half: str):
    """Rearrangement table of one half's maximal function, cached under the
    half's twin, so twin halves share one table."""
    twin = twin_half(f, half)
    return f.cached(("maximal_table", twin), lambda: rearrange_samples(
        maximal_function(f, twin), f.grid.cell_measure))


def _greedy_centers(sheet: SheetBalls, U: np.ndarray, d: np.ndarray,
                    params: CZParams):
    """Greedy Vitali selection over the nodes of U by decreasing distance d
    (ties by ring, then column): a node is accepted unless it lies in the
    blocking window, the rows of B(x_i, reach s_i), of an accepted ball;
    accepting marks every cell of that window, and marks are never cleared.
    The candidates are walked in chunks of about _CHUNK_CELLS window cells.
    The window rows of a chunk are built for the candidates still unmarked
    when it starts; within the chunk, each candidate's rows list the later
    candidates they hold, the acceptances follow in order from these lists,
    and the rows are expanded to cells, and marked, for the accepted
    candidates only.  Returns the accepted centers (k, j) in selection
    order."""
    nt = sheet.nt
    ks, js = np.nonzero(U)
    # nonzero lists ring-major, so a stable sort breaks ties by ring, column
    order = np.argsort(-d[ks, js], kind="stable")
    ks, js = ks[order], js[order]
    cells = ks * nt + js
    reach = 2.0 * (2.0 * params.c1 / (2.0 * params.c1 - 1.0))
    rho = reach * (0.5 * d[ks, js] / params.c1)
    # window cells, at most: rows times the widest row, whose half-angle is
    # asin(rho / R) for rho < R
    R = sheet.r[ks]
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
        ball, ring, wlo, whi = sheet.ball_windows(ks[ahead], js[ahead], rho[ahead])
        # edges: the later candidates of the chunk inside each row, grouped
        # by the row's candidate
        by_cell = np.argsort(cells[ahead])
        at = cells[ahead][by_cell]
        row, hit = expand_ranges(np.searchsorted(at, ring * nt + wlo, side="left"),
                                 np.searchsorted(at, ring * nt + whi, side="right") - 1)
        hit = by_cell[hit]
        src = ball[row]
        later = hit > src
        src, hit = src[later], hit[later]
        # acceptances in order: a candidate is blocked iff an accepted earlier
        # one's rows hold it
        blocked = np.zeros(len(ahead), dtype=bool)
        bounds = np.flatnonzero(np.diff(src, prepend=-1, append=len(ahead)))
        for i, b0, b1 in zip(src[bounds[:-1]].tolist(), bounds[:-1].tolist(),
                             bounds[1:].tolist()):
            if not blocked[i]:
                blocked[hit[b0:b1]] = True
        chosen.extend(ahead[~blocked].tolist())
        acc = ~blocked[ball]
        row, col = expand_ranges(wlo[acc], whi[acc])
        marked[ring[acc][row] * nt + col] = True
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

    plain = sheet.ball_windows(bk, bj, radius)
    row, col = expand_ranges(*plain[2:])
    ball, ring = plain[0][row], plain[1][row]

    # each ball's measure and mean over these cells: each row summed, then
    # the rows added per ball in row order
    def per_ball(w):
        return np.bincount(plain[0], np.bincount(row, w, len(plain[0])), len(bk))

    measure = per_ball(grid.cell_measure[ring, col])
    mean = per_ball(vals[ring, col] * grid.cell_measure[ring, col]) / measure

    # partition of unity on U: bump weights on the plain balls' cells, summed
    # in ball order
    psi = params.bump(sheet.node_distances(bk[ball], bj[ball], ring, col) / s[ball])
    cell = ring * grid.nt + col
    chi = psi / np.bincount(cell, psi, U.size)[cell]
    type1 = 4.0 * radius <= np.maximum(grid.r[bk] - radius, 0.0)
    b = (vals[ring, col] - np.where(type1, mean, 0.0)[ball]) * chi
    bad = np.bincount(cell, b, U.size).reshape(U.shape)
    chi_sum = np.bincount(cell, chi, U.size).reshape(U.shape)
    cover = WhitneyCover(bk, bj, radius, type1, measure, mean, ball, ring, col, chi, b)
    return CZResult(f, half, params, U, d, cover, vals - bad, bad, chi_sum)


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


def _neighbor_constants(sheet, k, j, rad, means, alpha, block=1 << 18):
    """Max radius ratio and max |mean_i - mean_j| / (min(r_i, r_j) alpha) over
    intersecting plain balls centered at sheet nodes (k, j).  Two balls meet
    only if |r[k_i] - r[k_j]| < rad_i + rad_j <= 2 max(rad_i, rad_j), so after
    a sort by k (by center radius, as r increases) each ball is paired with
    the balls within twice its radius radially, which lists every meeting
    pair at least once with the larger ball first, and about `block` pairs
    are listed at a time.  A ball paired with itself gives (1, 0)."""
    order = np.argsort(k, kind="stable")
    k, j, rad, means = k[order], j[order], rad[order], means[order]
    rc = sheet.r[k]
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
        meet = sheet.node_distances(k[ii], j[ii], k[jj], j[jj]) < rad[ii] + rad[jj]
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

    eg = (np.abs(result.good) * (1.0 + (1.0 / grid.r)[:, None])
          + grid.grad_magnitude(result.good))
    eg_ratio = float(eg.max()) / alpha

    # int (combined intensity)^p, the same at every level
    f, half = result.field, result.half
    denom = f.cached(("intensity_power", half, params.p), lambda: float(
        np.sum(combined_intensity(f, half)**params.p * meas)))

    # set properties: one pass over the window rows of each radius kind
    s = cover.radius / params.c1
    pball, pring, plo, phi = sheet.ball_windows(cover.k, cover.j, cover.radius)
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
        eb_ratio = float((num / cover.measure / alpha).max())

    eB_ratio = float(cover.measure.sum()) * alpha**params.p / denom if denom > 0 else 0.0
    ratio_max, mean_const = _neighbor_constants(
        sheet, cover.k, cover.j, cover.radius, cover.mean, alpha)

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
    maximal function's minimum, or one that underflows to 0, raises
    DegenerateLevelError."""
    amax = float(maximal_function(f, "plus").max())
    if not (lowest := 0.5 * amax * 10.0**-decades) > 0.0:
        raise DegenerateLevelError(f"a lowest level of {lowest:g}, an underflow")
    for alpha in np.geomspace(lowest, 0.5 * amax, points):
        res = decompose(f, CZParams(alpha=float(alpha)), "plus")
        yield {**verify(res), "decomposition": res}


def glue_good_parts(res_plus: CZResult, res_minus: CZResult) -> Field:
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
    return f.with_values(vals, name="good_part")


def hardy_sobolev_norm(f: Field, p: float) -> float:
    """||f||_p + ||f/r||_p + ||grad f||_p: at p = 1 the endpoint norm of the
    bad part, at p = inf that of the good part."""
    return sum(lp_norm(f, p, w) for w in WEIGHTS)


def k_upper_via_cz(f: Field, t: float) -> dict:
    """Constructive upper bound for the interpolation K-functional at t:
    run the decomposition at alpha(t) = max over sheets of the rearranged
    maximal function at t, and price the split ||b||_1-side + t ||g||_inf-side.
    The minus half reuses the plus half's decomposition, relabelled, when the
    halves share one maximal array and equal values, since a decomposition
    reads nothing else of its sheet; `n_balls` counts both halves."""
    grid = f.grid
    maxM = max(float(maximal_function(f, h).max()) for h in grid.halves)
    alpha = float(max(maximal_table(f, h).f_star(t) for h in grid.halves))
    if alpha <= 0.0 or alpha >= maxM:
        alpha = min(alpha, maxM) if alpha > 0 else maxM
        g_norm = hardy_sobolev_norm(f, INF)
        return {"t": t, "alpha": alpha, "value": t * g_norm,
                "b_norm": 0.0, "g_norm": g_norm, "n_balls": 0}
    params = CZParams(alpha=alpha)
    res_p = decompose(f, params, "plus")
    if (twin_half(f, "minus") == "plus"
            and np.array_equal(f.sheet("minus"), f.sheet("plus"))):
        res_m = replace(res_p, half="minus")
    else:
        res_m = decompose(f, params, "minus")
    g = glue_good_parts(res_p, res_m)
    b = f - g
    b_norm = hardy_sobolev_norm(b, 1.0)
    g_norm = hardy_sobolev_norm(g, INF)
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
