"""Decreasing rearrangements and K-functionals of real interpolation.

The rearrangement of a grid field is an exact step function built from the
weighted samples; all K-functional formulas below are evaluated exactly on
that step function (no quadrature error beyond the grid itself).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import WEIGHTS, Field, power_sum_root, samples

INF = float("inf")

# Cells drawn per block of the random splitting search.
_SEARCH_BLOCK = 1 << 16
# Steps per block of f**'s Gauss panels.
_NODE_BLOCK = 1 << 12


@dataclass(frozen=True, eq=False)
class RearrangementTable:
    """Right-continuous step function f*(t) with its running integral.

    values: |f| sorted descending; widths: matching cell measures;
    cum[i]: measure where f* >= values[i]; integral[i]: int of f* up to cum[i].
    """

    values: np.ndarray
    widths: np.ndarray
    cum: np.ndarray
    integral: np.ndarray

    @property
    def total_measure(self) -> float:
        return float(self.cum[-1]) if len(self.cum) else 0.0

    @property
    def total_integral(self) -> float:
        return float(self.integral[-1]) if len(self.integral) else 0.0

    @property
    def sup(self) -> float:
        return float(self.values[0]) if len(self.values) else 0.0

    def f_star(self, t):
        """Decreasing rearrangement evaluated at t (vectorized)."""
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.cum, t, side="right")
        vals = np.where(idx < len(self.values),
                        self.values[np.minimum(idx, len(self.values) - 1)], 0.0)
        return vals if vals.ndim else float(vals)

    def f_star_integral(self, t):
        """int_0^t f*(s) ds, exact on the step function."""
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.cum, t, side="right")
        below = np.where(idx > 0, self.integral[np.maximum(idx - 1, 0)], 0.0)
        base = np.where(idx > 0, self.cum[np.maximum(idx - 1, 0)], 0.0)
        inside = np.where(idx < len(self.values),
                          self.values[np.minimum(idx, len(self.values) - 1)], 0.0)
        out = below + inside * np.clip(t - base, 0.0, None)
        return out if out.ndim else float(out)

    def f_double_star(self, t):
        """Maximal rearrangement f**(t) = (1/t) int_0^t f*."""
        t = np.asarray(t, dtype=float)
        out = self.f_star_integral(t) / t
        return out if np.ndim(out) else float(out)

    def lp_norm(self, p: float) -> float:
        """L^p norm of f* on (0, inf); equals the field norm by equimeasurability."""
        if p == INF:
            return self.sup
        return power_sum_root(self.values, self.widths, p)

    def measure_above(self, level: float) -> float:
        """Measure of {|f| > level}, strict (ties at the level excluded)."""
        idx = int(np.searchsorted(-self.values, -level, side="left"))
        return float(self.cum[idx - 1]) if idx > 0 else 0.0

    def double_star_nodes(self):
        """Per-step Gauss nodes t, weights and f**(t), one row of 8 per step
        of positive width, yielded in blocks of at most _NODE_BLOCK steps.

        A node of step i lies in [cum[i-1], cum[i]), where f**(t) is
        (integral[i-1] + values[i] (t - cum[i-1])) / t: f_double_star's
        arithmetic without its search.  Nodes that rounding puts outside
        their step take the search."""
        xg, wg = np.polynomial.legendre.leggauss(8)
        los = np.concatenate([[0.0], self.cum[:-1]])
        below = np.concatenate([[0.0], self.integral[:-1]])
        steps = np.flatnonzero(0.5 * (self.cum - los) > 0)
        for i0 in range(0, len(steps), _NODE_BLOCK):
            s = steps[i0:i0 + _NODE_BLOCK]
            lo, hi = los[s, None], self.cum[s, None]
            half = 0.5 * (hi - lo)
            # each block's (steps, 8) arrays are built in place, in the order
            # of clip(mid + half xg) and (below + values (t - lo)) / t
            ts = half * xg
            ts += 0.5 * (lo + hi)
            np.clip(ts, 1e-300, None, out=ts)
            fss = ts - lo
            fss *= self.values[s, None]
            fss += below[s, None]
            fss /= ts
            stray = ts < lo
            stray |= ts >= hi
            fss[stray] = self.f_double_star(ts[stray])
            yield ts, half * wg, fss

    def double_star_lp(self, p: float) -> float:
        """L^p norm of f** on (0, inf) by per-step Gauss panels plus the exact
        power tail (f** = I_total/t beyond the support).  The panels' terms
        fill one (steps, 8) array a block at a time and are summed at once,
        so the sum does not depend on the block size."""
        if p <= 1.0:
            raise ValueError("f** is never integrable at p = 1")
        if not len(self.values):
            return 0.0
        terms = np.empty((len(self.values), 8))
        n = 0
        for _, ww, fss in self.double_star_nodes():
            fss **= p
            np.multiply(fss, ww, out=terms[n:n + len(fss)])
            n += len(fss)
        acc = float(np.sum(terms[:n]))
        acc += self.total_integral**p * self.total_measure ** (1.0 - p) / (p - 1.0)
        return acc ** (1.0 / p)


def rearrange_samples(values, weights) -> RearrangementTable:
    v = np.abs(np.asarray(values, dtype=float)).ravel()
    w = np.asarray(weights, dtype=float).ravel()
    if v.shape != w.shape:
        raise ValueError("values and weights must match")
    order = np.argsort(-v, kind="stable")
    v, w = v[order], w[order]
    keep = w > 0
    v, w = v[keep], w[keep]
    return RearrangementTable(v, w, np.cumsum(w), np.cumsum(v * w))


def rearrange(f: Field, weight: str = "none") -> RearrangementTable:
    """Rearrangement table of samples(f, weight), cached on f per weight."""
    def build():
        vals = samples(f, weight)
        meas = np.broadcast_to(f.grid.cell_measure[None, :, :], vals.shape)
        return rearrange_samples(vals, meas)
    return f.cached(("rearrangement", weight), build)


# -- K-functionals -------------------------------------------------------------


def k_l1_linf(table: RearrangementTable, t: float) -> float:
    """K(f, t; L^1, L^inf) = int_0^t f*, exact for step data."""
    return float(table.f_star_integral(t))


def k_sobolev_estimate(f: Field, t: float) -> float:
    """t (f**(t) + (|f|/r)**(t) + |grad f|**(t)): the two-sided K estimate for
    the weighted Sobolev couple (p=1 vs p=inf endpoints)."""
    return float(sum(rearrange(f, w).f_star_integral(t) for w in WEIGHTS))


def k_component_lower_bound(f: Field, t: float) -> float:
    """max over the three components of K(., t; L^1, L^inf): any splitting of f
    in the weighted Sobolev couple costs at least this much."""
    return float(max(rearrange(f, w).f_star_integral(t) for w in WEIGHTS))


# -- independent oracles --------------------------------------------------------


def k_l1_linf_bruteforce(values, weights, t: float) -> float:
    """Exact K(f,t;L^1,L^inf) by scanning all truncation levels g = clamp(f, s):
    candidate s at 0, each |value| and midpoints; the optimum of the convex
    piecewise-linear cost is attained at a breakpoint."""
    v = np.abs(np.asarray(values, dtype=float)).ravel()
    w = np.asarray(weights, dtype=float).ravel()
    cand = np.unique(np.concatenate([[0.0], v]))
    mids = 0.5 * (cand[1:] + cand[:-1])
    cand = np.concatenate([cand, mids])
    costs = [(np.clip(v - s, 0.0, None) * w).sum() + t * s for s in cand]
    return float(min(costs))


def k_split_random_search(values, weights, t: float, iters: int = 4000,
                          rng=None) -> float:
    """Randomized search over unconstrained splittings f = b + g (g arbitrary
    per-cell): validates that truncations achieve the infimum.  Splittings
    are drawn as rows of blocks of about _SEARCH_BLOCK cells, which consumes
    the random stream exactly as one draw per splitting would."""
    rng = np.random.default_rng(rng)
    v = np.asarray(values, dtype=float).ravel()
    w = np.asarray(weights, dtype=float).ravel()
    vmax = np.abs(v).max() if len(v) else 0.0
    best = INF
    rows = max(1, _SEARCH_BLOCK // max(len(v), 1))
    for i0 in range(0, iters, rows):
        g = rng.uniform(-vmax, vmax, size=(min(rows, iters - i0), len(v)))
        cost = np.sum(np.abs(v - g) * w, axis=1) + t * np.abs(g).max(axis=1)
        best = min(best, float(cost.min()))
    return best
