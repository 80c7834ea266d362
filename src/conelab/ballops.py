"""Euclidean-ball cell windows on one polar sheet: averages, dilations, distances.

On a geometric-radial/uniform-angular sheet, the cells inside a Euclidean ball
form, in every radial ring, a contiguous angular index window whose half-width
follows from the law of cosines.  Ball averages then reduce to per-ring prefix
sums, ball dilations to per-ring sliding maxima, and exact distances to a
pruned sweep over ring pairs.  Everything here works per half-cone sheet on
planar (n=2) grids, which is where the decomposition machinery runs.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.ndimage import maximum_filter1d

from .grids import PolarGrid


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

    def ring_span(self, R: float, rho: float) -> tuple[int, int]:
        """Index range [lo, hi] of rings whose radius lies within rho of R."""
        lo = int(np.searchsorted(self.r, R - rho, side="right"))
        hi = int(np.searchsorted(self.r, R + rho, side="left")) - 1
        return lo, hi

    def half_widths(self, R: float, rho: float, rings: np.ndarray) -> np.ndarray:
        """Angular index half-width per ring: offsets |dj| <= w lie in the ball."""
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

    def row_distances(self, k: int, j: int, ring: int, jlo: int, jhi: int) -> np.ndarray:
        """Distances from node (k, j) to the nodes (ring, jlo..jhi)."""
        R, rr = float(self.r[k]), float(self.r[ring])
        dth = np.abs(self.theta[jlo:jhi + 1] - self.theta[j])
        return np.sqrt(np.maximum(R * R + rr * rr - 2.0 * R * rr * np.cos(dth), 0.0))

    # -- bulk operations ----------------------------------------------------

    def full_ring_range(self, R: float, rho: float, lo: int, hi: int) -> tuple[int, int]:
        """Sub-range [flo, fhi] of [lo, hi] whose rings lie entirely in the ball
        (every node of the ring's arc within rho of the center): the quadratic
        r'^2 - 2 R cos(2 omega_span) r' + R^2 - rho^2 <= 0 cuts an interval."""
        span = float(self.theta[-1] - self.theta[0])
        co = math.cos(min(math.pi, span))
        disc = R * R * co * co - R * R + rho * rho
        if disc <= 0.0:
            return lo, lo - 1
        root = math.sqrt(disc)
        r_lo, r_hi = R * co - root, R * co + root
        flo = int(np.searchsorted(self.r, r_lo, side="left"))
        fhi = int(np.searchsorted(self.r, r_hi, side="right")) - 1
        return max(flo, lo), min(fhi, hi)

    def _window_sums(self, cum: np.ndarray, rings: np.ndarray, ws: np.ndarray):
        """Sum over each center j of rows `rings` windowed by half-widths ws.

        cum has shape (nr, nt+1) with a leading zero column.
        """
        j = np.arange(self.nt)
        lo = np.clip(j[None, :] - ws[:, None], 0, self.nt)
        hi = np.clip(j[None, :] + ws[:, None] + 1, 0, self.nt)
        rows = cum[rings]
        return (np.take_along_axis(rows, hi, axis=1)
                - np.take_along_axis(rows, lo, axis=1)).sum(axis=0)

    def averager(self, intensity: np.ndarray) -> "BallAverager":
        return BallAverager(self, intensity)

    def ball_dilate(self, values: np.ndarray, rho: float) -> np.ndarray:
        """(nr, nt) array: max of `values` over the centers within rho of each
        node, with partial angular windows rounded down to powers of two (a
        minorant of the exact ball dilation)."""
        qmax = max(1, int(math.ceil(math.log2(self.nt))) + 1)
        sizes = [0] + [2**q for q in range(qmax)]
        filt = np.empty((len(sizes), self.nr, self.nt))
        filt[0] = values
        for i, s in enumerate(sizes[1:], start=1):
            filt[i] = maximum_filter1d(values, size=2 * s + 1, axis=1, mode="nearest")
        rowmax = _RangeMax(values.max(axis=1))
        out = np.empty((self.nr, self.nt))
        for k in range(self.nr):
            R = float(self.r[k])
            lo, hi = self.ring_span(R, rho)
            flo, fhi = self.full_ring_range(R, rho, lo, hi)
            base = rowmax.query(flo, fhi) if fhi >= flo else -np.inf
            row = np.full(self.nt, base)
            for a, b in ((lo, flo - 1), (fhi + 1, hi)):
                if b < a:
                    continue
                rings = np.arange(a, b + 1)
                ws = self.half_widths(R, rho, rings)
                qidx = np.zeros(len(ws), dtype=np.int64)
                pos = ws > 0
                qidx[pos] = np.floor(np.log2(ws[pos])).astype(np.int64) + 1
                np.maximum(row, filt[qidx, rings].max(axis=0), out=row)
            out[k] = row
        return out

    def dyadic_radii(self) -> np.ndarray:
        """Ball radius family r_max * 2^{-m} down to the inner grid scale."""
        m = int(math.ceil(math.log2(self.grid.r_max / self.grid.r_min)))
        return self.grid.r_max * 2.0 ** -np.arange(m + 1)

    def maximal(self, intensity: np.ndarray) -> np.ndarray:
        """Discrete maximal function: sup over the dyadic-radius family of
        ball averages over balls containing each node, floored by the node
        value itself (single-cell ball)."""
        out = np.array(intensity, dtype=float)
        av = self.averager(intensity)
        for rho in self.dyadic_radii():
            avg = av.averages(rho)
            np.maximum(out, self.ball_dilate(avg, rho), out=out)
        return out

class _RangeMax:
    """O(1) range-maximum queries over a 1D array via a dyadic sparse table."""

    def __init__(self, vals: np.ndarray):
        n = len(vals)
        levels = max(1, n.bit_length())
        self.table = [np.asarray(vals, dtype=float)]
        for lev in range(1, levels):
            prev = self.table[-1]
            step = 1 << (lev - 1)
            if len(prev) <= step:
                break
            self.table.append(np.maximum(prev[:-step], prev[step:]))

    def query(self, a: int, b: int) -> float:
        """Max over indices [a, b] inclusive."""
        if b < a:
            return -np.inf
        lev = (b - a + 1).bit_length() - 1
        lev = min(lev, len(self.table) - 1)
        step = 1 << lev
        return float(max(self.table[lev][a], self.table[lev][b - step + 1]))


class BallAverager:
    """Reusable prefix sums for ball averages of one intensity array."""

    def __init__(self, sheet: SheetBalls, intensity: np.ndarray):
        self.sheet = sheet
        meas = sheet.grid.cell_measure
        weighted = intensity * meas
        self.num_c = np.concatenate([np.zeros((sheet.nr, 1)),
                                     np.cumsum(weighted, axis=1)], axis=1)
        self.den_c = np.concatenate([np.zeros((sheet.nr, 1)),
                                     np.cumsum(meas, axis=1)], axis=1)
        self.row_num = np.concatenate([[0.0], np.cumsum(weighted.sum(axis=1))])
        self.row_den = np.concatenate([[0.0], np.cumsum(meas.sum(axis=1))])

    def averages(self, rho: float) -> np.ndarray:
        sh = self.sheet
        out = np.empty((sh.nr, sh.nt))
        for k in range(sh.nr):
            R = float(sh.r[k])
            lo, hi = sh.ring_span(R, rho)
            flo, fhi = sh.full_ring_range(R, rho, lo, hi)
            if fhi >= flo:
                num = np.full(sh.nt, self.row_num[fhi + 1] - self.row_num[flo])
                den = np.full(sh.nt, self.row_den[fhi + 1] - self.row_den[flo])
            else:
                num = np.zeros(sh.nt)
                den = np.zeros(sh.nt)
            for a, b in ((lo, flo - 1), (fhi + 1, hi)):
                if b < a:
                    continue
                rings = np.arange(a, b + 1)
                ws = sh.half_widths(R, rho, rings)
                num += sh._window_sums(self.num_c, rings, ws)
                den += sh._window_sums(self.den_c, rings, ws)
            out[k] = num / den
        return out


def distance_to_cells(sheet: SheetBalls, target_mask: np.ndarray,
                      query_mask: np.ndarray) -> np.ndarray:
    """Exact Euclidean distance from each query node to the nearest target node.

    Pruned sweep over ring pairs: within a ring the nearest target is angularly
    adjacent in the sorted index list, and rings are visited by increasing
    radial gap with an early break once no query cell can improve.  Entries are
    +inf where query_mask is False.
    """
    if not target_mask.any():
        raise ValueError("no target cells")
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
