"""Euclidean-ball cell windows on one polar sheet: averages, dilations, distances.

On a geometric-radial/uniform-angular sheet, the cells inside a Euclidean ball
form, in every radial ring, a contiguous angular index window whose half-width
follows from the law of cosines; `ball_windows` lists these rows for a whole
set of balls at once.  For one radius, cut once, the balls around all center
rings split into full rings (a range per center, served by row totals) and
partial rings, listed as flat (center ring, ring, half-width) pairs.  Ball
averages read every pair's window sums from one complex prefix table per ring
(intensity x measure in the real part, measure in the imaginary part, each
added exactly as alone) through a strided window view, and ball dilations take
every pair's row of power-of-two sliding maxima, built by doubling from
shifted slices; both accumulate per center with unbuffered ufunc.at in pair
order, so the sums are added in the same order as a loop over rings would add
them.  `distance_to_cells` is the exact distance transform.  Every distance
between nodes reads the grid's one (nt, nt) table of angle cosines,
`PolarGrid.col_cosines`, through the law of cosines.  Every operation takes
one (nr, nt) half-cone sheet of a planar (n=2) grid, where the decomposition
machinery runs.
"""

from __future__ import annotations

import math

import numpy as np

from .grids import PolarGrid

# Pairs per gather: bounds the (pairs, nt) temporaries of the largest radii
# and of the distance transform.
_PAIR_BLOCK = 256


def expand_ranges(lo: np.ndarray, hi: np.ndarray):
    """Flatten the integer ranges [lo[i], hi[i]] (empty where hi < lo) into
    (owner, value) arrays, grouped by range and ascending within each."""
    counts = np.maximum(hi - lo + 1, 0)
    owner = np.repeat(np.arange(len(counts)), counts)
    first = np.cumsum(counts) - counts
    return owner, lo[owner] + np.arange(len(owner)) - first[owner]


class SheetBalls:
    """Window geometry for balls B(center, rho) intersected with one sheet."""

    def __init__(self, grid: PolarGrid):
        if grid.n != 2:
            raise ValueError("ball windows are implemented on planar grids")
        self.grid = grid
        self.r = grid.r
        self.theta = grid.theta
        self.nr = grid.nr
        self.nt = grid.nt
        self.dt = grid.dtheta

    # -- window geometry ----------------------------------------------------

    def ring_span(self, R, rho):
        """Index range [lo, hi] of rings whose radius lies within rho of R
        (scalars or arrays)."""
        lo = np.searchsorted(self.r, R - rho, side="right")
        hi = np.searchsorted(self.r, R + rho, side="left") - 1
        return lo, hi

    def half_widths(self, R, rho, rings: np.ndarray) -> np.ndarray:
        """Angular index half-width per ring: offsets |dj| <= w lie in the ball.
        R and rho (center and ball radius) are one for all rings or one per ring."""
        rr = self.r[rings]
        arg = (rr * rr + R * R - rho * rho) / (2.0 * rr * R)
        phi = np.arccos(np.clip(arg, -1.0, 1.0))
        w = np.ceil(phi / self.dt - 1e-12).astype(np.int64) - 1
        return np.clip(w, 0, self.nt - 1)

    def ball_rows(self, k: int, j: int, rho: float):
        """Yield (ring, jlo, jhi) rows of the cells of B(node_{k,j}, rho)."""
        lo, hi = self.ring_span(float(self.r[k]), rho)
        if hi < lo:
            return
        rings = np.arange(lo, hi + 1)
        ws = self.half_widths(float(self.r[k]), rho, rings)
        for ring, w in zip(rings, ws):
            yield int(ring), max(0, j - int(w)), min(self.nt - 1, j + int(w))

    def ball_windows(self, ks: np.ndarray, js: np.ndarray, rhos: np.ndarray):
        """Rows of every ball B(node_{ks[i],js[i]}, rhos[i]) at once, as flat
        (ball, ring, jlo, jhi) arrays grouped by ball and then by ring; each
        ball's rows are the ones `ball_rows` yields."""
        R = self.r[ks]
        ball, ring = expand_ranges(*self.ring_span(R, rhos))
        w = self.half_widths(R[ball], rhos[ball], ring)
        return (ball, ring, np.maximum(js[ball] - w, 0),
                np.minimum(js[ball] + w, self.nt - 1))

    def node_distances(self, k, j, ring, col) -> np.ndarray:
        """Elementwise distance from node (k, j) to node (ring, col), the one
        node-distance rule: the law of cosines on the grid's `col_cosines`."""
        R, rr = self.r[k], self.r[ring]
        c = self.grid.col_cosines[col, j]
        return np.sqrt(np.maximum(R * R + rr * rr - 2.0 * R * rr * c, 0.0))

    # -- bulk operations ----------------------------------------------------

    def full_ring_range(self, rho: float, lo: np.ndarray, hi: np.ndarray):
        """Per center ring k: the sub-range [flo, fhi] of [lo, hi] whose rings
        lie entirely in B(r_k, rho) (every node of the ring's arc within rho of
        the center): the quadratic r'^2 - 2 R cos(2 omega_span) r' + R^2 - rho^2
        <= 0 cuts an interval.  Without a real root the range is (lo, lo - 1)."""
        R = self.r
        span = float(self.theta[-1] - self.theta[0])
        co = math.cos(min(math.pi, span))
        disc = R * R * co * co - R * R + rho * rho
        root = np.sqrt(np.maximum(disc, 0.0))
        flo = np.searchsorted(self.r, R * co - root, side="left")
        fhi = np.searchsorted(self.r, R * co + root, side="right") - 1
        none = disc <= 0.0
        return (np.where(none, lo, np.maximum(flo, lo)),
                np.where(none, lo - 1, np.minimum(fhi, hi)))

    def cut_rings(self, rho: float):
        """Ring geometry of the balls B(r_k, rho) around every center ring k.

        Returns (flo, fhi, parts): the per-center full-ring range and, for the
        partial rings below it and above it, one (centers, rings, ws) triple of
        flat pair arrays each, sorted by center and then by ring.
        """
        lo, hi = self.ring_span(self.r, rho)
        flo, fhi = self.full_ring_range(rho, lo, hi)
        parts = []
        for a, b in ((lo, flo - 1), (fhi + 1, hi)):
            centers, rings = expand_ranges(a, b)
            parts.append((centers, rings,
                          self.half_widths(self.r[centers], rho, rings)))
        return flo, fhi, parts

    def _pair_cells(self, centers: np.ndarray) -> np.ndarray:
        """Flat indices of the (center, j) nodes of each pair, one row per pair."""
        return centers[:, None] * self.nt + np.arange(self.nt)

    def ball_dilate(self, values: np.ndarray, cut) -> np.ndarray:
        """(nr, nt) array: max of the sheet `values` over the centers within
        rho of each node, for the `cut_rings(rho)` cut, with partial angular
        windows rounded down to powers of two (a minorant of the exact ball
        dilation)."""
        nr, nt = self.nr, self.nt
        flo, fhi, parts = cut
        # a pair of half-width w reads level q = floor(log2 w) + 1 (0 at w = 0),
        # the max over j - 2^(q-1)..j + 2^(q-1) clamped at the row ends: level
        # q - 1 at j - h, j, j + h (h = 2^(q-2), 1 for q = 1), built by doubling
        # on the rings that some pair reads at level q or above; where j - h or
        # j + h leaves the row, level q - 1 at j already reaches that row end
        centers, rings, ws = (np.concatenate(a) for a in zip(*parts))
        qidx = np.frexp(ws)[1]   # the bit length of w
        top = np.zeros(nr, dtype=np.int64)   # highest level read per ring
        np.maximum.at(top, rings, qidx)
        # reduceat over the bounds flo, fhi+1, ... : even slots hold the max
        # over rings [flo, fhi]; the -inf pad keeps the bound fhi+1 = nr valid
        base = np.maximum.reduceat(np.append(values.max(axis=1), -np.inf),
                                   np.stack([flo, fhi + 1], axis=1).ravel())
        out = np.repeat(np.where(fhi >= flo, base[::2], -np.inf), nt)
        filt = np.empty((int(top.max()) + 1, nr, nt))
        filt[0] = values
        for q in range(1, len(filt)):
            need = np.flatnonzero(top >= q)
            prev, h = filt[q - 1, need], 1 << max(q - 2, 0)
            cur = prev.copy()
            np.maximum(cur[:, h:], prev[:, :-h], out=cur[:, h:])
            np.maximum(cur[:, :-h], prev[:, h:], out=cur[:, :-h])
            filt[q, need] = cur
        rows = filt.reshape(-1, nt)
        for i0 in range(0, len(rings), _PAIR_BLOCK):
            blk = slice(i0, i0 + _PAIR_BLOCK)
            np.maximum.at(out, self._pair_cells(centers[blk]).ravel(),
                          rows[qidx[blk] * nr + rings[blk]].ravel())
        return out.reshape(nr, nt)

    def dyadic_radii(self) -> np.ndarray:
        """Ball radius family r_max * 2^{-m} down to the inner grid scale."""
        m = int(math.ceil(math.log2(self.grid.r_max / self.grid.r_min)))
        return self.grid.r_max * 2.0 ** -np.arange(m + 1)

    def maximal(self, intensity: np.ndarray) -> np.ndarray:
        """Discrete maximal function of one sheet (nr, nt): sup over the
        dyadic-radius family of ball averages over balls containing each
        node, floored by the node value itself (single-cell ball)."""
        out = np.array(intensity, dtype=float)
        av = BallAverager(self, intensity)
        for rho in self.dyadic_radii():
            cut = self.cut_rings(rho)
            np.maximum(out, self.ball_dilate(av.averages(cut), cut), out=out)
        return out


class BallAverager:
    """Reusable prefix sums for ball averages of one (nr, nt) intensity sheet."""

    def __init__(self, sheet: SheetBalls, intensity: np.ndarray):
        self.sheet = sheet
        nr, nt = sheet.nr, sheet.nt
        meas = sheet.grid.cell_measure
        weighted = intensity * meas
        # per-row prefix sums behind nt + 1 zero columns and before nt copies
        # of the row total: with start = ring (3 nt + 1) + nt, column j of
        # window start + c sums the ring's first clip(j + c, 0, nt) cells
        table = np.zeros((nr, 3 * nt + 1), dtype=complex)
        np.cumsum(weighted + 1j * meas, axis=1, out=table[:, nt + 1:2 * nt + 1])
        table[:, 2 * nt + 1:] = table[:, 2 * nt, None]
        self.windows = np.lib.stride_tricks.sliding_window_view(table.ravel(), nt)
        # row totals from each part's own row sum: a complex sum pairs its
        # terms in another order
        self.rows = np.r_[0.0, np.cumsum(weighted.sum(axis=1) + 1j * meas.sum(axis=1))]

    def averages(self, cut) -> np.ndarray:
        """(nr, nt) array: measure-weighted mean of the intensity over the
        cells of B(node, rho), for every node, for the `cut_rings(rho)` cut;
        -inf where the ball holds no cell."""
        sh, nt = self.sheet, self.sheet.nt
        flo, fhi, parts = cut
        tot = np.where(fhi >= flo, self.rows[fhi + 1] - self.rows[flo], 0.0)[:, None]
        for centers, rings, ws in parts:
            # each pair's window [j - w, j + w], added per center in pair order
            part = np.zeros(sh.nr * nt, dtype=complex)
            for i0 in range(0, len(rings), _PAIR_BLOCK):
                blk = slice(i0, i0 + _PAIR_BLOCK)
                start, w = rings[blk] * (3 * nt + 1) + nt, ws[blk]
                np.add.at(part, sh._pair_cells(centers[blk]).ravel(),
                          (self.windows[start + w + 1] - self.windows[start - w]).ravel())
            tot = tot + part.reshape(sh.nr, nt)
        num, den = tot.real, tot.imag
        # a ball below the grid's resolution can hold no node: -inf there,
        # the identity of the max that ball_dilate takes
        return np.divide(num, den, out=np.full(num.shape, -np.inf), where=den > 0)


def _nearest_cosines(sheet: SheetBalls, mask: np.ndarray) -> np.ndarray:
    """(nr, nt) array: per ring and column, the cosine of the angle to the
    nearest True column of `mask` in that ring, the larger of the nearest at
    or left of the column and at or right of it (-inf on a side without
    one, so on a ring without any)."""
    nt = mask.shape[1]
    cols = np.arange(nt)
    left = np.maximum.accumulate(np.where(mask, cols, -1), axis=1)
    right = np.minimum.accumulate(np.where(mask, cols, nt)[:, ::-1], axis=1)[:, ::-1]
    best = np.full(mask.shape, -np.inf)
    for side, ok in ((left, left >= 0), (right, right < nt)):
        c = sheet.grid.col_cosines[cols, np.clip(side, 0, nt - 1)]
        np.maximum(best, np.where(ok, c, -np.inf), out=best)
    return best


def _ring_pair_d2(sheet: SheetBalls, cosines: np.ndarray, qk: np.ndarray,
                  tk: np.ndarray) -> np.ndarray:
    """(pairs, nt) array: squared distance from each node of ring qk[i] to the
    nearest target node of ring tk[i] (+inf where that ring has none).

    Rounding is monotone: with a = fl(R^2 + r'^2) and b = fl(2 R r') > 0,
    the smaller of fl(a - fl(b c)) over the two sides is fl(a - fl(b c))
    at the larger cosine c, so one cosine per column gives the same value
    as both sides would."""
    R, rr = sheet.r[qk, None], sheet.r[tk, None]
    return R * R + rr * rr - 2.0 * R * rr * cosines[tk]


def distance_to_cells(sheet: SheetBalls, target_mask: np.ndarray,
                      query_mask: np.ndarray) -> np.ndarray:
    """Exact Euclidean distance from each query node to the nearest target node.

    Within a ring the nearest target lies at the nearest target column on
    either side, whose larger cosine one (nr, nt) table holds.  The nearest
    target rings below and above each query ring bound its distances; every
    target ring closer than that bound is paired with the query ring, and
    all pairs are evaluated `_PAIR_BLOCK` at a time and min-reduced per
    query ring.  Entries are +inf where query_mask is False.
    """
    if not target_mask.any():
        raise ValueError("no target cells")
    r = sheet.r
    cosines = _nearest_cosines(sheet, target_mask)
    trings = np.flatnonzero(target_mask.any(axis=1))
    qrings = np.flatnonzero(query_mask.any(axis=1))
    # upper bound per query ring: its worst cell's distance to the nearest
    # target ring at or below it and at or above it
    below = np.searchsorted(trings, qrings, side="right") - 1
    above = np.searchsorted(trings, qrings, side="left")
    near = np.full((len(qrings), sheet.nt), np.inf)
    for side, ok in ((below, below >= 0), (above, above < len(trings))):
        d2 = _ring_pair_d2(sheet, cosines, qrings,
                           trings[np.clip(side, 0, len(trings) - 1)])
        np.minimum(near, np.where(ok[:, None], d2, np.inf), out=near)
    bound = np.where(query_mask[qrings], near, -np.inf).max(axis=1)
    # the slack keeps the rings whose gap ties the bound to rounding
    reach = np.sqrt(bound) * (1.0 + 1e-9)
    rt = r[trings]
    owner, tix = expand_ranges(
        np.searchsorted(rt, r[qrings] - reach, side="left"),
        np.searchsorted(rt, r[qrings] + reach, side="right") - 1)
    qk, tk = qrings[owner], trings[tix]
    best = np.full((sheet.nr, sheet.nt), np.inf)
    for i0 in range(0, len(qk), _PAIR_BLOCK):
        blk = slice(i0, i0 + _PAIR_BLOCK)
        d2 = _ring_pair_d2(sheet, cosines, qk[blk], tk[blk])
        k = qk[blk]
        first = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
        best[k[first]] = np.minimum(best[k[first]],
                                    np.minimum.reduceat(d2, first, axis=0))
    return np.where(query_mask, np.sqrt(np.maximum(best, 0.0)), np.inf)
