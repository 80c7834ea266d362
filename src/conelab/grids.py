"""Polar grids on cones and on the full plane.

Radial nodes follow a geometric progression r_k = r_max * q^k so the vertex
singularity is resolved down to r_min, and a full-plane grid takes its cone
grid's radial arrays themselves; angular nodes are uniform cell centers over
each half-cone's angular range.  Cell measures integrate the Jacobian
exactly over each cell, so the total grid measure matches the analytic
truncated-cone measure to machine precision, and cap (sphere-restricted)
integrals reuse the same angular weights as volume integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import ConeDomain


def radial_difference_weights(r: np.ndarray):
    """Second-order nonuniform 3-point weights at the interior nodes of r in
    forward/backward difference form: the derivative at r[k] is
    a[k-1] * (f[k+1] - f[k]) + b[k-1] * (f[k] - f[k-1]), which annihilates
    constants exactly even where the cells are tiny."""
    h1 = r[1:-1] - r[:-2]
    h2 = r[2:] - r[1:-1]
    return h1 / (h2 * (h1 + h2)), h2 / (h1 * (h1 + h2))


@dataclass(frozen=True, eq=False)
class PolarGrid:
    """Tensor grid in (r, theta) carrying one or two angular sheets.

    kind "cone": theta is the local angle from each half-cone axis, one sheet
    per half-cone (signed angle in (-omega, omega) for n=2, polar angle in
    (0, omega) for n=3 axisymmetric).
    kind "fullplane": a single periodic sheet with global angles over
    [-pi, pi) (n=2 only).
    """

    domain: ConeDomain
    kind: str
    r: np.ndarray
    r_edges: np.ndarray
    theta: np.ndarray
    theta_edges: np.ndarray
    halves: tuple

    def __post_init__(self):
        for a in (self.r, self.r_edges, self.theta, self.theta_edges):
            a.flags.writeable = False

    # -- construction -----------------------------------------------------

    @classmethod
    def cone(cls, domain: ConeDomain, nr: int = 600, nt: int = 96,
             r_max: float = 40.0, r_min: float | None = None):
        """The one radial rule: nr radii geometric from r_min (default
        1e-12 r_max) to r_max, cell edges at the geometric midpoints."""
        if nr < 3:
            raise ValueError("need at least 3 radial nodes")
        if r_min is None:
            r_min = 1e-12 * r_max
        q = (r_min / r_max) ** (1.0 / (nr - 1))
        r = r_max * q ** np.arange(nr - 1, -1, -1.0)
        r_edges = np.empty(nr + 1)
        r_edges[0] = r[0]
        r_edges[-1] = r[-1]
        r_edges[1:-1] = np.sqrt(r[:-1] * r[1:])
        if nt < 3:
            raise ValueError("need at least 3 angular nodes")
        if domain.n == 2:
            lo, hi = -domain.omega, domain.omega
        else:
            lo, hi = 0.0, domain.omega
        t_edges = np.linspace(lo, hi, nt + 1)
        t = 0.5 * (t_edges[:-1] + t_edges[1:])
        return cls(domain, "cone", r, r_edges, t, t_edges, ("plus", "minus"))

    @classmethod
    def fullplane(cls, grid: "PolarGrid"):
        """Full-plane grid over a planar cone grid: the cone's own (read-only)
        radial arrays, and about the cone's angular spacing over [-pi, pi),
        so its cells align with the cone sheets wherever the spacings are
        commensurable."""
        if grid.n != 2:
            raise ValueError("full-plane grids are two-dimensional")
        nt = max(8, int(round(2.0 * math.pi / grid.dtheta)))
        t_edges = np.linspace(-math.pi, math.pi, nt + 1)
        t = 0.5 * (t_edges[:-1] + t_edges[1:])
        return cls(grid.domain, "fullplane", grid.r, grid.r_edges, t, t_edges,
                   ("full",))

    # -- basic quantities --------------------------------------------------

    @property
    def n(self) -> int:
        return self.domain.n

    @property
    def nr(self) -> int:
        return len(self.r)

    @property
    def nt(self) -> int:
        return len(self.theta)

    @property
    def nhalves(self) -> int:
        return len(self.halves)

    @property
    def shape(self) -> tuple:
        return (self.nhalves, self.nr, self.nt)

    @cached_property
    def q(self) -> float:
        ratios = self.r[:-1] / self.r[1:]
        if not np.allclose(ratios, ratios[0], rtol=1e-9):
            raise ValueError("radial nodes are not geometric")
        return float(ratios[0])

    @property
    def r_min(self) -> float:
        return float(self.r[0])

    @property
    def r_max(self) -> float:
        return float(self.r[-1])

    @property
    def dtheta(self) -> float:
        return float(self.theta_edges[1] - self.theta_edges[0])

    @property
    def periodic(self) -> bool:
        return self.kind == "fullplane"

    @cached_property
    def radial_weight(self) -> np.ndarray:
        """Exact integral of r^{n-1} dr over each radial cell."""
        n = self.n
        return (self.r_edges[1:] ** n - self.r_edges[:-1] ** n) / n

    @cached_property
    def angular_weight(self) -> np.ndarray:
        """Surface weight of each angular cell at unit radius (sigma weights)."""
        if self.n == 2:
            return np.diff(self.theta_edges)
        if self.kind == "cone":
            return 2.0 * math.pi * (np.cos(self.theta_edges[:-1]) - np.cos(self.theta_edges[1:]))
        raise ValueError("no full-plane grids in 3D")

    @cached_property
    def col_cosines(self) -> np.ndarray:
        """(nt, nt) table: cos |theta_a - theta_b| at row a, column b, built
        once per grid for every node distance of the ball code."""
        return np.cos(np.abs(self.theta[:, None] - self.theta))

    @cached_property
    def cell_measure(self) -> np.ndarray:
        """(nr, nt) Lebesgue measure of each cell (per sheet)."""
        return np.outer(self.radial_weight, self.angular_weight)

    def total_measure(self) -> float:
        return float(self.nhalves * np.sum(self.cell_measure))

    def half_index(self, half: str) -> int:
        return self.halves.index(half)

    def global_theta(self, half: str) -> np.ndarray:
        """Global plane angles of one sheet's angular nodes (n=2)."""
        if self.kind == "fullplane":
            return self.theta
        return self.domain.axis_angle(half) + self.theta

    def points(self, half: str) -> np.ndarray:
        """Cartesian coordinates of the sheet's nodes, shape (nr, nt, 2). n=2 only."""
        if self.n != 2:
            raise ValueError("Cartesian node coordinates are planar")
        ang = self.global_theta(half)
        x = self.r[:, None] * np.cos(ang)[None, :]
        y = self.r[:, None] * np.sin(ang)[None, :]
        return np.stack([x, y], axis=-1)

    # -- gradient stencils ---------------------------------------------------

    @cached_property
    def _radial_stencil(self):
        """radial_difference_weights in the interior; one-sided at both ends."""
        r = self.r
        a_int, b_int = radial_difference_weights(r)
        ha, hb = r[1] - r[0], r[2] - r[1]
        lo = ((2 * ha + hb) / (ha * (ha + hb)),     # weight of f_1 - f_0
              -ha / (hb * (ha + hb)))               # weight of f_2 - f_1
        ha, hb = r[-2] - r[-3], r[-1] - r[-2]
        hi = ((2 * hb + ha) / (hb * (ha + hb)),     # weight of f_K - f_{K-1}
              -hb / (ha * (ha + hb)))               # weight of f_{K-1} - f_{K-2}
        return a_int, b_int, lo, hi

    def d_dr(self, vals: np.ndarray) -> np.ndarray:
        """Radial derivative along axis -2 of (..., nr, nt) samples."""
        a_int, b_int, lo, hi = self._radial_stencil
        d = np.diff(vals, axis=-2)
        out = np.empty_like(vals)
        inner = out[..., 1:-1, :]
        np.multiply(a_int[:, None], d[..., 1:, :], out=inner)
        inner += b_int[:, None] * d[..., :-1, :]
        out[..., 0, :] = lo[0] * d[..., 0, :] + lo[1] * d[..., 1, :]
        out[..., -1, :] = hi[0] * d[..., -1, :] + hi[1] * d[..., -2, :]
        return out

    def d_dtheta(self, vals: np.ndarray) -> np.ndarray:
        """Angular derivative along axis -1 (periodic wrap on full-plane grids)."""
        dt = self.dtheta
        out = np.empty_like(vals)
        np.subtract(vals[..., 2:], vals[..., :-2], out=out[..., 1:-1])
        if self.periodic:
            out[..., 0] = vals[..., 1] - vals[..., -1]
            out[..., -1] = vals[..., 0] - vals[..., -2]
            out /= 2 * dt
            return out
        out[..., 1:-1] /= 2 * dt
        out[..., 0] = (-3 * vals[..., 0] + 4 * vals[..., 1] - vals[..., 2]) / (2 * dt)
        out[..., -1] = (3 * vals[..., -1] - 4 * vals[..., -2] + vals[..., -3]) / (2 * dt)
        return out

    def grad_magnitude(self, vals: np.ndarray) -> np.ndarray:
        """|grad| of (..., nr, nt) samples, the one rule: d_dr and d_dtheta / r,
        each squared, summed, square root; inf where a square overflows."""
        out = self.d_dr(vals)
        with np.errstate(over="ignore"):
            out *= out
            ang = self.d_dtheta(vals)
            ang /= self.r[:, None]
            ang *= ang
            out += ang
        return np.sqrt(out, out=out)
