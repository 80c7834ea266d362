"""Restriction to the double cone and the p-independent extension operator.

The extension splits a cone field into its radial part (extended to the plane
as a function of |x| alone) and the anti-radial remainder, which is pushed
through, per half-cone: pull back to the half-plane by the norm-preserving
cone map, reflect evenly across the half-plane boundary, damp with a
degree-0-homogeneous angular cutoff supported in a slightly enlarged cone,
and push forward.  Because the cone map preserves radii, the whole pipeline
acts on the angular coordinate only, so grid transfer is 1D interpolation per
ring.  At and above the critical exponent the anti-radial 1/r-weighted
integrability gate refuses inadmissible inputs.  One report, `extension_rows`,
tabulates this extension and the explicit quadrant-cone formula alike.

Each extension is built once per field and full grid and cached on the field;
the gate runs at every call, since admissibility depends on p.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import Field, integrability_gate, lp_norm, radial_split, samples
from .geometry import BilipschitzConeMap, cutoff_for_map, default_enlargement
from .grids import PolarGrid

INF = float("inf")


class ExtensionGateError(ValueError):
    """Input refused: the anti-radial 1/r-weighted norm trends divergent."""

    def __init__(self, message, growth):
        super().__init__(message)
        self.growth = growth


def _wrap_angle(t):
    return (t + math.pi) % (2.0 * math.pi) - math.pi


def _interp_periodic(theta, values, query):
    """Linear interpolation along the last axis of (nr, nt) ring samples at
    uniformly spaced periodic angle centers."""
    nt = len(theta)
    dt = theta[1] - theta[0]
    pos = (query - theta[0]) / dt
    i0 = np.floor(pos).astype(int)
    frac = pos - i0
    a = values[:, i0 % nt]
    b = values[:, (i0 + 1) % nt]
    return a * (1.0 - frac) + b * frac


def _interp_clamped(theta, values, query):
    """Linear interpolation at sheet angle centers, clamped at the ends."""
    q = np.clip(query, theta[0], theta[-1])
    idx = np.clip(np.searchsorted(theta, q) - 1, 0, len(theta) - 2)
    t0 = theta[idx]
    frac = (q - t0) / (theta[idx + 1] - t0)
    return values[:, idx] * (1.0 - frac) + values[:, idx + 1] * frac


def cone_map_for(grid: PolarGrid) -> BilipschitzConeMap:
    omega = grid.domain.omega
    return BilipschitzConeMap(math.pi / 2, omega, default_enlargement(omega))


def restrict(full: Field, cone_grid: PolarGrid) -> Field:
    """Restriction of a full-plane field to the cone grid: radial nodes are
    shared, angular samples are interpolated per ring."""
    if full.grid.kind != "fullplane":
        raise ValueError("restrict needs a full-plane field")
    if len(full.grid.r) != len(cone_grid.r) or not np.allclose(full.grid.r, cone_grid.r):
        raise ValueError("grids must share radial nodes")
    sheets = []
    for h in cone_grid.halves:
        tau = cone_grid.global_theta(h)
        sheets.append(_interp_periodic(full.grid.theta, full.values[0],
                                       _wrap_angle(tau)))
    return Field(cone_grid, np.stack(sheets), name=f"restricted({full.name})")


def admissibility_gate(f: Field, p: float):
    """Membership gate for the extension at exponent p: below the dimension
    everything passes; at and above it the anti-radial part must carry a
    non-divergent 1/r weight (at p = inf, in the sup sense).
    Returns (accepted, growth_per_decade)."""
    n = f.grid.n
    if p < n:
        return True, 0.0
    fa = radial_split(f).antiradial
    # cap-mean subtraction leaves O(eps) residue on radial fields; the 1/r^p
    # weight would amplify that noise into a spurious divergence verdict
    floor = 1e-13 * float(np.abs(f.values).max())
    v = samples(fa, "inv_r")
    v[np.abs(fa.values) <= floor] = 0.0
    return integrability_gate(v, f.grid, p)


def extend(f: Field, p: float, full_grid: PolarGrid) -> Field:
    """Extension operator at exponent p onto full_grid; raises
    ExtensionGateError on inputs whose anti-radial weighted norm trends
    divergent (no extension exists).  The extended field is cached on f per
    full grid and serves every exponent the gate admits."""
    grid = f.grid
    if grid.n != 2 or grid.kind != "cone":
        raise ValueError("the extension acts on planar cone fields")
    ok, growth = admissibility_gate(f, p)
    if not ok:
        raise ExtensionGateError(
            f"anti-radial 1/r-weighted norm grows {growth:.1%} per decade at p={p}",
            growth)
    return f.cached(("extension", full_grid), lambda: _extended(f, full_grid))


def _extended(f: Field, full: PolarGrid) -> Field:
    grid = f.grid
    split = radial_split(f)
    vals = np.broadcast_to(split.profile[:, None], (grid.nr, full.nt)).copy()

    cmap = cone_map_for(grid)
    omega = grid.domain.omega
    eps = cmap.enlargement
    kappa = cmap.kappa
    cutoff = cutoff_for_map(cmap)
    fa = split.antiradial
    for h in grid.halves:
        t = _wrap_angle(full.theta - grid.domain.axis_angle(h))
        inside = np.abs(t) < omega + eps
        tt = t[inside]
        u = tt / kappa
        mvals = cutoff.profile(np.abs(u))
        reflected = np.abs(u) > math.pi / 2
        t_src = np.where(reflected, np.sign(tt) * (2.0 * omega - np.abs(tt)), tt)
        sheet = fa.sheet(h)
        sampled = _interp_clamped(grid.theta, sheet, t_src)
        vals[:, inside] += mvals[None, :] * sampled
    return Field(full, vals[None], name=f"extended({f.name})")


def enlarged_support_mask(full: PolarGrid, cone: PolarGrid,
                          enlargement: float | None = None) -> np.ndarray:
    """(nt_full,) True where the full-grid angle lies inside either enlarged cone."""
    eps = default_enlargement(cone.domain.omega) if enlargement is None else enlargement
    mask = np.zeros(full.nt, dtype=bool)
    for h in cone.halves:
        t = _wrap_angle(full.theta - cone.domain.axis_angle(h))
        mask |= np.abs(t) < cone.domain.omega + eps
    return mask


def antiradial_extension_only(f: Field, full_grid: PolarGrid) -> Field:
    """The cutoff-reflection part alone (no radial term), for support checks."""
    vals = extend(f, 1.0, full_grid).values[0] - radial_split(f).profile[:, None]
    return Field(full_grid, vals[None], name=f"xi({f.name})")


def extend_pierre_2d(f: Field, full_grid: PolarGrid) -> Field:
    """Explicit quadrant-cone extension:
    Ef(x,y) = (x^2 f(x,-y) + y^2 f(-x,y)) / (x^2 + y^2) for xy < 0,
    the identity on the quadrants.  Reflections preserve radii, so this is an
    angular resampling with direction-dependent convex weights.  Cached on f
    per full grid."""
    return f.cached(("pierre", full_grid), lambda: _pierre(f, full_grid))


def _pierre(f: Field, full_grid: PolarGrid) -> Field:
    grid = f.grid
    if grid.domain.variant != "quadrant":
        raise ValueError("the explicit formula lives on the quadrant cone")
    phi = full_grid.theta
    vals = np.zeros((grid.nr, full_grid.nt))
    ax_p = grid.domain.axis_angle("plus")     # pi/4
    ax_m = grid.domain.axis_angle("minus")    # -3*pi/4
    sp, sm = f.sheet("plus"), f.sheet("minus")

    def sample(angles):
        out = np.zeros((grid.nr, len(angles)))
        tp = _wrap_angle(angles - ax_p)
        mp = np.abs(tp) <= grid.domain.omega
        out[:, mp] = _interp_clamped(grid.theta, sp, tp[mp])
        tm = _wrap_angle(angles - ax_m)
        mm = np.abs(tm) <= grid.domain.omega
        out[:, mm] = _interp_clamped(grid.theta, sm, tm[mm])
        return out

    off = ~((np.abs(_wrap_angle(phi - ax_p)) < grid.domain.omega)
            | (np.abs(_wrap_angle(phi - ax_m)) < grid.domain.omega))
    vals[:, ~off] = sample(phi[~off])
    po = phi[off]
    w_x = np.cos(po) ** 2
    w_y = np.sin(po) ** 2
    refl_y = _wrap_angle(-po)            # (x, -y)
    refl_x = _wrap_angle(math.pi - po)   # (-x, y)
    vals[:, off] = w_x[None, :] * sample(refl_y) + w_y[None, :] * sample(refl_x)
    return Field(full_grid, vals[None], name=f"pierre({f.name})")


def wp_norm(f: Field, p: float) -> float:
    """W^1_p norm ||f||_p + ||grad f||_p on f's own grid, cached on f per p."""
    return f.cached(("wp_norm", p), lambda: lp_norm(f, p) + lp_norm(f, p, "gradient"))


def roundtrip_error(f: Field, Ef: Field, p: float) -> float:
    """W^1_p norm of restrict(Ef) - f relative to f's.  The difference is
    cached on f per Ef and serves every exponent; not on Ef, since f's cache
    may hold Ef and the cycle would keep both alive."""
    diff = f.cached(("roundtrip", Ef), lambda: restrict(Ef, f.grid) - f)
    return wp_norm(diff, p) / wp_norm(f, p)


def source_norm(f: Field, p: float) -> float:
    """Membership norm at exponent p: the plain Sobolev norm off the critical
    exponent, the anti-radial weighted norm at p = n."""
    base = wp_norm(f, p)
    if p != f.grid.n:
        return base
    return base + lp_norm(radial_split(f).antiradial, p, weight="inv_r")


def extension_rows(pairs, build):
    """One row per (field, p) pair, extended by build(f, p): source and
    target norms, ratio, round-trip error, gate verdict and the extended
    field (None, with the gate's "gate_growth", when the gate refused f).
    Pairs whose field has zero source norm are skipped."""
    for f, p in pairs:
        src = source_norm(f, p)
        if src == 0.0:
            continue
        try:
            Ef = build(f, p)
        except ExtensionGateError as e:
            yield {"field": f.name, "p": p, "source_norm": src,
                   "target_norm": INF, "ratio": INF, "roundtrip_err": INF,
                   "gate": "refused", "gate_growth": e.growth, "extended": None}
            continue
        tgt = wp_norm(Ef, p)
        yield {"field": f.name, "p": p, "source_norm": src, "target_norm": tgt,
               "ratio": tgt / src, "roundtrip_err": roundtrip_error(f, Ef, p),
               "gate": "accepted", "extended": Ef}


def restriction_antiradial_ratio(full_field: Field, cone_grid: PolarGrid) -> dict:
    """The critical-exponent restriction chain: ||(Rf)_a / r||_2 against the
    full-plane Dirichlet energy ||grad f||_2."""
    rf = restrict(full_field, cone_grid)
    fa = radial_split(rf).antiradial
    num = lp_norm(fa, 2.0, weight="inv_r")
    den = lp_norm(full_field, 2.0, "gradient")
    return {"field": full_field.name, "anti_norm": num, "grad_norm": den,
            "ratio": num / den if den > 0 else 0.0}
