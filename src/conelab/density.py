"""Approximation sequences vanishing near the vertex: the radial cutoff and
the critical-exponent logarithmic corrector.

The plain cutoff f (1 - chi_eps) converges in the Sobolev norm below the
critical exponent and, for vertex-vanishing fields, above it; at p = n the
gradient term stalls at a positive level for f(0) != 0 and the corrector
eta_delta (delta = eps^{1/k}) repairs it at rate 1/k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import Field, lp_norm, power_sum_root
from .profiles import plateau


@dataclass(frozen=True)
class ApproxParams:
    """Cutoff radius and corrector exponent (delta = eps^{1/k})."""

    eps: float
    k: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        if self.k < 1.0:
            raise ValueError("k must be at least 1")
        if self.delta >= 1.0:
            raise ValueError("delta must stay below 1")

    @property
    def delta(self) -> float:
        return self.eps ** (1.0 / self.k)


def chi_profile(r, eps: float):
    """Radial vertex bump: 1 on [0, eps/2], 0 on [eps, inf), smooth between."""
    return plateau(np.asarray(r, dtype=float) / eps, 0.5, 1.0)


def eta_profile(r, delta: float):
    """Logarithmic corrector: |ln delta| / |ln r| below delta, 1 above; the
    branches agree at r = delta."""
    r = np.asarray(r, dtype=float)
    if delta >= 1.0:
        raise ValueError("delta must stay below 1")
    with np.errstate(divide="ignore"):
        inner = abs(math.log(delta)) / np.abs(np.log(np.clip(r, 1e-300, None)))
    return np.where(r <= delta, inner, 1.0)


def vertex_cutoff(f: Field, eps: float) -> Field:
    """f (1 - chi_eps): vanishes identically on r <= eps/2."""
    g = f.grid
    if eps / 2.0 <= g.r_min:
        raise ValueError("eps below the grid resolution")
    w = 1.0 - chi_profile(g.r, eps)
    return f.with_values(f.values * w[None, :, None], name=f"{f.name}|cut")


def log_corrector(f: Field, eps: float, k: float) -> Field:
    """f eta_delta (1 - chi_eps) with delta^k = eps: the corrected approximant
    for the critical exponent."""
    params = ApproxParams(eps, k)
    g = f.grid
    w = eta_profile(g.r, params.delta) * (1.0 - chi_profile(g.r, eps))
    return f.with_values(f.values * w[None, :, None], name=f"{f.name}|corr(k={k:g})")


def eta_gradient_norm(grid, eps: float, k: float, p: float) -> float:
    """||grad eta_delta||_p on the grid (radial profile, exact 1D quadrature)."""
    params = ApproxParams(eps, k)
    delta = params.delta
    r = grid.r
    with np.errstate(divide="ignore"):
        mag = abs(math.log(delta)) / (r * np.log(r) ** 2)
    mag = np.where(r <= delta, np.abs(mag), 0.0)
    w = grid.radial_weight * float(np.sum(grid.angular_weight)) * grid.nhalves
    return power_sum_root(mag, w, p)


def corrector_times_cutoff_norm(f: Field, eps: float, k: float, p: float) -> float:
    """||eta_delta grad chi_eps||_p, the term whose size is O(1/k)."""
    g = f.grid
    params = ApproxParams(eps, k)
    rr = g.r
    h = 1e-6 * eps
    dchi = (chi_profile(rr + h, eps) - chi_profile(rr - h, eps)) / (2 * h)
    mag = np.abs(dchi) * eta_profile(rr, params.delta)
    w = g.radial_weight * float(np.sum(g.angular_weight)) * g.nhalves
    return power_sum_root(mag, w, p)


def approximation_errors(f: Field, approx: Field, p: float) -> tuple[float, float]:
    diff = f - approx
    return lp_norm(diff, p), lp_norm(diff, p, "gradient")


def convergence_table(f: Field, p: float, eps_list, k_list=None) -> list[dict]:
    """Rows (eps[, k], l_p_err, grad_err, trend): the plain cutoff without
    k_list, else the corrector at each k; trend flags whether each error
    column is still decreasing."""
    rows = []
    for k in (k_list if k_list is not None else [None]):
        prev = None
        for eps in eps_list:
            a = vertex_cutoff(f, eps) if k is None else log_corrector(f, eps, k)
            lp_err, grad_err = approximation_errors(f, a, p)
            trend = "start" if prev is None else (
                "decreasing" if grad_err < prev * (1.0 - 1e-9) else "plateau")
            row = {"eps": eps, "l_p_err": lp_err, "grad_err": grad_err,
                   "trend": trend}
            if k is not None:
                row["k"] = k
            rows.append(row)
            prev = grad_err
    return rows


def fit_decay_slope(xs, ys) -> float:
    """Least-squares slope of log y against log x."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    good = ys > 0
    if good.sum() < 2:
        raise ValueError("not enough positive values to fit")
    return float(np.polyfit(np.log(xs[good]), np.log(ys[good]), 1)[0])
