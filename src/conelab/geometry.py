"""Double-cone geometry: membership, ball measures, norm-preserving cone maps, cutoffs.

The domain is a pair of open half-cones sharing the vertex at the origin.
For the axis-symmetric variant the half-cones open around the +/- last
coordinate axis with half-angle omega; the 2D "quadrant" variant is the pair
{x>0,y>0} and {x<0,y<0}, i.e. the same cone rotated so its axes sit on the
diagonal.  Everything here is exact geometry or quadrature; no grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .profiles import plateau

FULL_SPHERE = {2: 2.0 * math.pi, 3: 4.0 * math.pi}


@dataclass(frozen=True)
class ConeDomain:
    """A double cone in R^n: two open half-cones with common vertex 0.

    n: ambient dimension (2 or 3; n=3 is restricted to axis-symmetric use).
    omega: half-angle of each half-cone, 0 < omega < pi/2.
    variant: "double" (axes +/- e_n) or "quadrant" (n=2, axes on the diagonal).
    """

    n: int = 2
    omega: float = math.pi / 4
    variant: str = "double"

    def __post_init__(self):
        if self.n not in (2, 3):
            raise ValueError("only n=2 and n=3 are supported")
        if not 0.0 < self.omega < math.pi / 2:
            raise ValueError("half-angle must lie in (0, pi/2)")
        if self.variant not in ("double", "quadrant"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == "quadrant" and self.n != 2:
            raise ValueError("quadrant variant is two-dimensional")

    def axis(self, half: str = "plus") -> np.ndarray:
        """Unit axis direction of one half-cone."""
        if self.variant == "quadrant":
            a = np.array([1.0, 1.0]) / math.sqrt(2.0)
        else:
            a = np.zeros(self.n)
            a[-1] = 1.0
        return a if half == "plus" else -a

    def axis_angle(self, half: str = "plus") -> float:
        """Planar polar angle of the half-cone axis (n=2 only)."""
        if self.n != 2:
            raise ValueError("axis_angle is planar")
        a = self.axis(half)
        return math.atan2(a[1], a[0])

    def sector_measure(self, halves: int = 2) -> float:
        """Surface measure of (one or both half-cones) intersected with S^{n-1}."""
        if self.n == 2:
            per_half = 2.0 * self.omega
        else:
            per_half = 2.0 * math.pi * (1.0 - math.cos(self.omega))
        return per_half * halves

    def sphere_measure_ratio(self) -> float:
        """sigma(cone on unit sphere) / sigma(unit sphere); the radial-norm constant."""
        return self.sector_measure(2) / FULL_SPHERE[self.n]


def _gauss_panels(breaks: np.ndarray, order: int = 48):
    """Gauss-Legendre nodes/weights on the union of intervals given by breaks."""
    xg, wg = np.polynomial.legendre.leggauss(order)
    los, his = breaks[:-1], breaks[1:]
    mid = 0.5 * (los + his)[:, None]
    half = 0.5 * (his - los)[:, None]
    return (mid + half * xg[None, :]).ravel(), (half * wg[None, :]).ravel()


def _build_breaks(lo: float, hi: float, kinks, graded=(), levels: int = 14) -> np.ndarray:
    """Panel breakpoints on [lo, hi]: plain splits at kinks, geometrically graded
    splits accumulating at the points in `graded` (square-root-type kinks)."""
    pts = {lo, hi}
    for b in kinks:
        if lo < b < hi:
            pts.add(b)
    for g in graded:
        if not lo - 1e-300 <= g <= hi + 1e-300:
            continue
        for side in (-1.0, 1.0):
            span = (hi - g) if side > 0 else (g - lo)
            if span <= 0:
                continue
            for j in range(1, levels):
                pts.add(g + side * span * 0.25**j)
        if lo < g < hi:
            pts.add(g)
    return np.unique(np.array(sorted(pts)))


def _radial_chord_power(s, gap, n):
    """Integral of rho^{n-1} over {rho>0 : rho in the ball chord} for one direction.

    s is the projection of the ball center on the direction, gap = |c|^2 - rad^2.
    The chord is (s - sqrt(disc), s + sqrt(disc)) with disc = s^2 - gap, clipped to
    rho > 0; contribution is (hi^n - lo^n)/n.
    """
    disc = s * s - gap
    ok = disc > 0.0
    root = np.sqrt(np.where(ok, disc, 0.0))
    hi = np.maximum(s + root, 0.0)
    lo = np.maximum(s - root, 0.0)
    out = (hi**n - lo**n) / n
    return np.where(ok, out, 0.0)


def ball_measure(domain: ConeDomain, center, radius: float, half: str = "plus") -> float:
    """Lebesgue measure of B(center, radius) intersected with one open half-cone.

    Closed form for balls centered at the vertex; otherwise a 1D quadrature:
    the radial chord contribution depends only on the angle gamma between the
    direction and the center direction, so the measure reduces to a zonal
    integral against the directions' angular density inside the cone.  Panels
    are graded toward the tangency angle where the chord has a sqrt kink.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    c = np.asarray(center, dtype=float)
    if c.shape != (domain.n,):
        raise ValueError("center dimension mismatch")
    R = float(np.linalg.norm(c))
    if R == 0.0:
        return domain.sector_measure(1) * radius**domain.n / domain.n

    gap = R * R - radius * radius
    # angular reach of the ball, seen from the origin
    if gap > 0.0:
        gamma_max = math.asin(min(1.0, radius / R))
    else:
        gamma_max = math.pi
    sqrt_kinks = [gamma_max] if gap > 0.0 else []

    if domain.n == 2:
        th_c = math.atan2(c[1], c[0])
        a0 = domain.axis_angle(half) - domain.omega
        a1 = domain.axis_angle(half) + domain.omega
        # signed angle from the center direction, folded into (-pi, pi]
        off = (th_c - a0) % (2.0 * math.pi) + a0
        kinks, graded = [off - math.pi / 2, off + math.pi / 2], []
        for g in sqrt_kinks:
            graded += [off - g, off + g]
        breaks = _build_breaks(a0, a1, kinks, graded)
        th, w = _gauss_panels(breaks)
        d = np.abs(th - off)
        s = R * np.cos(np.minimum(d, 2.0 * math.pi - d))
        return float(np.sum(_radial_chord_power(s, gap, 2) * w))

    # n = 3, axis-symmetric cone: zonal reduction around the center direction.
    cz = float(c @ domain.axis(half))
    beta = math.acos(max(-1.0, min(1.0, cz / R)))
    hi = min(math.pi, gamma_max if gap > 0.0 else math.pi)
    kinks = [abs(beta - domain.omega), beta + domain.omega, math.pi / 2]
    breaks = _build_breaks(0.0, hi, kinks, sqrt_kinks)
    gam, w = _gauss_panels(breaks)
    s = R * np.cos(gam)
    chord = _radial_chord_power(s, gap, 3)
    # azimuthal measure of the circle at angle gamma that lies inside the cone
    sb, sg = math.sin(beta), np.sin(gam)
    denom = sb * sg
    num = math.cos(domain.omega) - math.cos(beta) * np.cos(gam)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(denom > 0, num / np.where(denom > 0, denom, 1.0), np.inf)
    a = np.where(denom > 0, a, np.where(num <= 0.0, -1.0, 1.0))
    azim = 2.0 * np.arccos(np.clip(a, -1.0, 1.0))
    return float(np.sum(chord * azim * sg * w))


def doubling_ratio(domain: ConeDomain, center, radius: float, half: str = "plus") -> float:
    """measure(B(x,2r) cap cone) / measure(B(x,r) cap cone).

    Equals 2^n exactly for vertex-centered balls; bounded by 2^n on a convex
    half-cone (midpoint argument).
    """
    if radius <= 0.0:
        raise ValueError("degenerate ball")
    c = np.asarray(center, dtype=float)
    if float(np.linalg.norm(c)) == 0.0:
        return 2.0**domain.n
    num = ball_measure(domain, c, 2.0 * radius, half)
    den = ball_measure(domain, c, radius, half)
    if den <= 0.0:
        raise ValueError("ball does not meet the half-cone")
    return num / den


@dataclass(frozen=True)
class BilipschitzConeMap:
    """Norm-preserving bilipschitz map from the half-space onto a half-cone.

    In polar form the map is linear in the polar angle: a point at angle
    theta from the axis goes to angle kappa*theta, kappa = target/source,
    keeping |x| and the azimuthal direction.  In Cartesian form this is
    y = (sin(kappa*theta)/sin(theta) x', cos(kappa*theta)/cos(theta) x_n),
    which the polar form reproduces exactly, including at theta in {0, pi/2}
    where the Cartesian ratios degenerate to 0/0.
    """

    source_half_angle: float = math.pi / 2
    target_half_angle: float = math.pi / 4
    enlargement: float = 0.1

    def __post_init__(self):
        if not 0 < self.target_half_angle < math.pi / 2:
            raise ValueError("target half-angle must lie in (0, pi/2)")
        if self.target_half_angle + self.enlargement >= math.pi / 2:
            raise ValueError("enlarged cone must stay strictly inside the half-space")

    @property
    def kappa(self) -> float:
        return self.target_half_angle / self.source_half_angle

    @property
    def source_support_angle(self) -> float:
        """Largest admissible source angle: preimage of the enlarged cone."""
        return (self.target_half_angle + self.enlargement) / self.kappa

    def _remap(self, x, scale, max_angle):
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = np.atleast_2d(x)
        r = np.linalg.norm(pts, axis=-1)
        with np.errstate(invalid="ignore"):
            cos_t = np.where(r > 0, pts[..., -1] / np.where(r > 0, r, 1.0), 1.0)
        theta = np.arccos(np.clip(cos_t, -1.0, 1.0))
        if np.any(theta > max_angle + 1e-9):
            raise ValueError("point outside the map's source region")
        theta_out = scale * theta
        perp = pts[..., :-1]
        pnorm = np.linalg.norm(perp, axis=-1, keepdims=True)
        unit = np.divide(perp, pnorm, out=np.zeros_like(perp), where=pnorm > 0)
        out = np.empty_like(pts)
        out[..., :-1] = unit * (r * np.sin(theta_out))[..., None]
        out[..., -1] = r * np.cos(theta_out)
        return out[0] if single else out

    def forward(self, x):
        """Map half-space points onto the cone (vertex fixed by continuity)."""
        return self._remap(x, self.kappa, self.source_support_angle)

    def inverse(self, y):
        """Closed-form inverse: the angular relation is linear, so divide by kappa."""
        return self._remap(y, 1.0 / self.kappa,
                           self.target_half_angle + self.enlargement)


@dataclass(frozen=True)
class HomogeneousCutoff:
    """Degree-0 homogeneous cutoff m(x): depends only on the polar angle.

    Equals 1 up to flat_half_angle, 0 beyond support_half_angle, smooth between;
    m(0) = 0 by convention.
    """

    flat_half_angle: float = math.pi / 2
    support_half_angle: float = 3 * math.pi / 4

    def __post_init__(self):
        if not self.support_half_angle > self.flat_half_angle:
            raise ValueError("support must exceed the flat region")

    def profile(self, theta):
        return plateau(np.asarray(theta, dtype=float),
                       self.flat_half_angle, self.support_half_angle)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1)
        with np.errstate(invalid="ignore"):
            cos_t = np.where(r > 0, x[..., -1] / np.where(r > 0, r, 1.0), 1.0)
        theta = np.arccos(np.clip(cos_t, -1.0, 1.0))
        vals = self.profile(theta)
        return np.where(r > 0, vals, 0.0)


def cutoff_for_map(m: BilipschitzConeMap) -> HomogeneousCutoff:
    """The cutoff matched to a cone map: 1 on the half-space, supported in the
    enlarged source half-cone."""
    return HomogeneousCutoff(flat_half_angle=m.source_half_angle,
                             support_half_angle=m.source_support_angle)


def default_enlargement(omega: float) -> float:
    """Default cone enlargement: keeps omega + eps strictly below pi/2."""
    return min(0.1, (math.pi / 2 - omega) / 2.0)
