"""Scalar fields on cone grids: gradients, weighted norms, splits, Poincare ratios.

A Field stacks one sample sheet per half-cone (or one periodic sheet for the
full plane).  All reductions are plain measure-weighted sums over the grid's
exact cell measures; divergent quantities are never reported as infinities but
as partial-integral tables over the inner truncation radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield

import numpy as np

from .grids import PolarGrid
from .report import _atomic_write

INF = float("inf")
GATE_DECADES = 4      # the integrability gate averages growth over these
HARDY_SLACK = 1.05    # quadrature slack on the sharp Hardy constant p/(n-p)


@dataclass(frozen=True, eq=False)
class Field:
    """Samples f(r_k, theta_j) on each sheet of a polar grid."""

    grid: PolarGrid
    values: np.ndarray
    name: str = ""
    params: dict = dfield(default_factory=dict)
    vertex_limits: tuple | None = None
    _cache: dict = dfield(default_factory=dict, repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise ValueError(f"sample shape {v.shape} != grid shape {self.grid.shape}")
        object.__setattr__(self, "values", v)
        v.flags.writeable = False

    @classmethod
    def from_function(cls, grid: PolarGrid, fn, name: str = "", params=None,
                      vertex_limits=None):
        """Build a field from fn(r, theta, half) evaluated on sheet meshes."""
        sheets = []
        for h in grid.halves:
            rr, tt = np.meshgrid(grid.r, grid.theta, indexing="ij")
            sheets.append(np.asarray(fn(rr, tt, h), dtype=float))
        return cls(grid, np.stack(sheets), name=name, params=dict(params or {}),
                   vertex_limits=vertex_limits)

    def with_values(self, values: np.ndarray, name: str | None = None,
                    vertex_limits="keep") -> "Field":
        vl = self.vertex_limits if vertex_limits == "keep" else vertex_limits
        return Field(self.grid, np.array(values, dtype=float),
                     name=self.name if name is None else name,
                     params=dict(self.params), vertex_limits=vl)

    def sheet(self, half: str) -> np.ndarray:
        return self.values[self.grid.half_index(half)]

    def cached(self, key, build):
        """The result stored under key, built by build() on first use.  Keys
        may hold a grid or a field, which compare by identity."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def __add__(self, other):
        return self.with_values(self.values + other.values, name="", vertex_limits=None)

    def __sub__(self, other):
        return self.with_values(self.values - other.values, name="", vertex_limits=None)

    def __mul__(self, c: float):
        return self.with_values(self.values * c, name="", vertex_limits=None)

    __rmul__ = __mul__


@dataclass(frozen=True, eq=False)
class GradientField:
    """Radial and tangential components of a discrete gradient."""

    grid: PolarGrid
    radial: np.ndarray
    angular: np.ndarray   # (1/r) d/dtheta per sheet

    def magnitude(self) -> np.ndarray:
        return np.sqrt(self.radial**2 + self.angular**2)


@dataclass(frozen=True, eq=False)
class RadialSplit:
    """f = radial + antiradial, the radial part being the per-ring cap mean."""

    radial: Field
    antiradial: Field
    profile: np.ndarray   # (nr,) cap means


def gradient(f: Field) -> GradientField:
    """Central finite differences in (r, theta); one-sided at edges.

    Cached on the field; second order for smooth samples.
    """
    g = f.grid
    if g.nr < 3 or g.nt < 3:
        raise ValueError("gradient needs at least 3 nodes per direction")
    return f.cached("gradient", lambda: GradientField(
        g, g.d_dr(f.values), g.d_dtheta(f.values) / g.r[None, :, None]))


def _samples_for_norm(obj) -> tuple[PolarGrid, np.ndarray]:
    if isinstance(obj, Field):
        return obj.grid, np.abs(obj.values)
    if isinstance(obj, GradientField):
        return obj.grid, obj.magnitude()
    raise TypeError("expected a Field or GradientField")


def lp_norm(obj, p: float, weight: str = "none", half: str | None = None) -> float:
    """Quadrature L^p norm; sample sup for p = inf; weight 'inv_r' divides by r.

    half restricts the norm to one half-cone's sheet (default: whole domain).
    """
    grid, vals = _samples_for_norm(obj)
    if vals.size == 0:
        raise ValueError("empty field")
    if half is not None:
        vals = vals[grid.half_index(half)][None]
    if weight == "inv_r":
        vals = vals / grid.r[None, :, None]
    elif weight != "none":
        raise ValueError(f"unknown weight {weight!r}")
    if p == INF:
        return float(vals.max())
    if p < 1:
        raise ValueError("exponent must be in [1, inf]")
    w = grid.cell_measure[None, :, :]
    with np.errstate(over="ignore"):
        total = np.sum(vals**p * w)
    if np.isinf(total) and np.isfinite(top := vals.max()):
        # vals**p overflowed: factor the largest sample out of the sum
        return float(top * np.sum((vals / top) ** p * w) ** (1.0 / p))
    return float(total ** (1.0 / p))


def hardy_quotient(f: Field, p: float) -> float:
    """||f/r||_p divided by the L^p norm of the radial derivative."""
    den = lp_norm_radial_derivative(f, p)
    if den == 0.0:
        raise ValueError(f"{f.name} has no radial derivative on this grid")
    return lp_norm(f, p, weight="inv_r") / den


def hardy_rows(fields, p: float):
    """Rows (field, p, quotient, bound, ok): each field's weighted quotient
    against the sharp constant p/(n-p), ok within the quadrature slack."""
    for f in fields:
        bound = p / (f.grid.n - p)
        q = hardy_quotient(f, p)
        yield {"field": f.name, "p": p, "quotient": q, "bound": bound,
               "ok": q <= bound * HARDY_SLACK}


def lp_norm_radial_derivative(f: Field, p: float) -> float:
    g = gradient(f)
    rad = GradientField(f.grid, g.radial, np.zeros_like(g.radial))
    return lp_norm(rad, p)


def cap_mean(f: Field) -> np.ndarray:
    """(nr,) mean of f over the sphere of each radius restricted to the cone,
    with the same angular weights as volume integrals."""
    g = f.grid
    w = g.angular_weight
    acc = np.zeros(g.nr)
    for i in range(g.nhalves):
        acc += f.values[i] @ w
    return acc / (g.nhalves * float(np.sum(w)))


def radial_split(f: Field) -> RadialSplit:
    """Split into the per-ring cap mean and the mean-zero remainder."""
    prof = cap_mean(f)
    fr = f.with_values(np.broadcast_to(prof[None, :, None], f.grid.shape),
                       name=f.name + "_radial" if f.name else "",
                       vertex_limits=None)
    fa = f.with_values(f.values - fr.values,
                       name=f.name + "_antiradial" if f.name else "",
                       vertex_limits=None)
    return RadialSplit(fr, fa, prof)


# -- the Poincare dichotomy ----------------------------------------------------


def poincare_ball_ratio(f: Field, center, radius: float, q: float) -> float:
    """(avg_B |f - f_B|^q)^{1/q} / (radius * (avg_B |grad f|^q)^{1/q}) over
    B(center, radius) cap X, both sheets in one pass (planar grids)."""
    g = f.grid
    if radius <= 0:
        raise ValueError("degenerate ball")
    pts = np.stack([g.points(h) for h in g.halves])
    inside = np.linalg.norm(pts - np.asarray(center, dtype=float), axis=-1) < radius
    w = np.where(inside, g.cell_measure, 0.0)
    tot = float(w.sum())
    if tot == 0.0:
        raise ValueError("ball does not meet the grid")
    fbar = float(np.sum(f.values * w)) / tot
    num = (float(np.sum(np.abs(f.values - fbar) ** q * w)) / tot) ** (1.0 / q)
    grad = float(np.sum(gradient(f).magnitude() ** q * w)) / tot
    den = radius * grad ** (1.0 / q)
    if num < 1e-300:
        return 0.0
    if den == 0.0:
        return INF
    return num / den


def poincare_rows(grid: PolarGrid, q_list, eps_list):
    """Rows (profile, q, eps, ratio, slope): the Poincare ratio on B(0, 1) of
    sign-split radial fields, one ratio per eps and its log-log slope in eps.

    The linear profile +/-min(r/eps, 1) has ratio ~ eps^{1-n/q}, so the slope
    is 1 - n/q: the ratio blows up as eps -> 0 for q < n and stays bounded
    for q >= n.  At q = n a second row takes the logarithmic profile
    +/-clip(log(r/eps^2)/log(1/eps), 0, 1), whose ratio^2 grows like
    log(1/eps)/2: the inequality fails at q = n too, and holds only above
    the dimension.
    """
    eps = np.asarray(eps_list, dtype=float)
    for profile, qs in (("linear", list(q_list)),
                        ("log", [q for q in q_list if q == grid.n])):
        if not qs:
            continue
        fields = [_sign_split(grid, profile, e) for e in eps]
        for q in qs:
            ratio = np.array([poincare_ball_ratio(f, (0.0, 0.0), 1.0, q)
                              for f in fields])
            slope = float(np.polyfit(np.log(eps), np.log(ratio), 1)[0])
            yield {"profile": profile, "q": q, "eps": eps, "ratio": ratio,
                   "slope": slope}


def _sign_split(grid: PolarGrid, profile: str, eps: float) -> Field:
    """+u(r) on the plus sheet and -u(r) on the minus sheet, u the linear or
    the logarithmic profile of poincare_rows."""
    r = grid.r
    u = (np.minimum(r / eps, 1.0) if profile == "linear"
         else np.clip(np.log(r / eps**2) / math.log(1.0 / eps), 0.0, 1.0))
    sign = np.array([1.0 if h == "plus" else -1.0 for h in grid.halves])
    return Field(grid, sign[:, None, None] * u[None, :, None] * np.ones(grid.nt))


# -- partial-integral tables and divergence gates ----------------------------


def partial_norm_power_table(f_vals: np.ndarray, grid: PolarGrid, p: float,
                             weight: str = "inv_r"):
    """Partial integrals P(r_min') = int_{r >= r_min'} |v/r|^p dlambda per decade;
    at p = inf, the running sup of |v/r| over r >= r_min'.

    Returns (r_mins, P) with r_mins descending by decades from just below
    r_max down to the grid's inner radius.
    """
    vals = np.abs(f_vals)
    if weight == "inv_r":
        vals = vals / grid.r[None, :, None]
    # cumulative from the outside in: P[k] = integral (or sup) over rings >= k
    if p == INF:
        tail = np.maximum.accumulate(vals.max(axis=(0, 2))[::-1])[::-1]
    else:
        per_ring = (vals**p * grid.cell_measure[None, :, :]).sum(axis=(0, 2))
        tail = np.cumsum(per_ring[::-1])[::-1]
    r_mins = decade_radii(grid)
    idx = np.searchsorted(grid.r, r_mins, side="left")
    P = tail[np.minimum(idx, len(tail) - 1)]
    return r_mins, P


def decade_radii(grid: PolarGrid) -> np.ndarray:
    """Truncation radii of the partial-integral tables: powers of ten,
    descending from just below r_max down to the grid's inner radius."""
    lo = math.ceil(math.log10(grid.r_min))
    hi = math.floor(math.log10(grid.r_max)) - 1
    return 10.0 ** np.arange(hi, lo - 1, -1.0)


def integrability_gate(f_vals: np.ndarray, grid: PolarGrid, p: float):
    """Decide whether the 1/r-weighted L^p integral (sup at p = inf) trends
    finite.

    Divergent iff the partial integrals (running suprema) keep growing by more
    than 1.5% per decade of the truncation radius, on average over the last
    GATE_DECADES decades.  Returns (accepted, growth_per_decade, table).
    """
    r_mins, P = partial_norm_power_table(f_vals, grid, p)
    if len(P) <= GATE_DECADES:
        raise ValueError("table too short")
    seg = P[-(GATE_DECADES + 1):]
    growth = 0.0 if seg[-1] == 0.0 else float(
        np.mean(np.diff(seg) / np.maximum(seg[:-1], 1e-300)))
    return growth <= 0.015, growth, (r_mins, P)


def log_log_increment_slope(r_mins: np.ndarray, P: np.ndarray) -> float:
    """Growth exponent s of P(r_min) ~ A + B|ln r_min|^s via increments,
    fitted over the vertex tail r_min <= 1e-4 of the table.

    Regressing ln(P(u_{k+1}) - P(u_k)) on ln u removes the additive constant A
    that biases a direct log-log fit; the slope is s - 1.
    """
    tail = r_mins <= 1e-4 * (1 + 1e-9)
    u = np.abs(np.log(r_mins[tail]))
    dP = np.diff(P[tail])
    du = np.diff(u)
    um = 0.5 * (u[1:] + u[:-1])
    good = dP > 0
    if good.sum() < 3:
        raise ValueError("not enough growing increments to fit")
    x = np.log(um[good])
    y = np.log(dP[good] / du[good])
    slope = np.polyfit(x, y, 1)[0]
    return float(1.0 + slope)


# -- plain-text dump format ---------------------------------------------------


def save_field(f: Field, path: str) -> None:
    """Text dump: header lines then one `r theta value` line per sample,
    radially outside-in, sheets ordered by global angle."""
    g = f.grid
    order = sorted(range(g.nhalves), key=lambda i: g.global_theta(g.halves[i])[0])
    lines = [f"n={g.n}",
             f"omega={g.domain.omega!r}",
             f"variant={'fullspace' if g.kind == 'fullplane' else g.domain.variant}",
             f"K={g.nr}",
             f"J={g.nt * g.nhalves}",
             f"q={g.q!r}",
             f"rmax={g.r_max!r}"]
    for k in range(g.nr - 1, -1, -1):
        r = float(g.r[k])
        for i in order:
            th = g.global_theta(g.halves[i])
            for j in range(g.nt):
                lines.append(f"{r!r} {float(th[j])!r} {float(f.values[i, k, j])!r}")
    _atomic_write(path, "\n".join(lines) + "\n")


def load_field(path: str) -> Field:
    from .geometry import ConeDomain

    with open(path) as fh:
        raw = [ln.strip() for ln in fh if ln.strip()]
    head = {}
    body_start = 0
    for i, ln in enumerate(raw):
        if "=" in ln and " " not in ln:
            k, v = ln.split("=", 1)
            head[k] = v
            body_start = i + 1
        else:
            break
    n, nr = int(head["n"]), int(head["K"])
    jtot, q, rmax = int(head["J"]), float(head["q"]), float(head["rmax"])
    omega, variant = float(head["omega"]), head["variant"]
    if variant == "fullspace":
        dom = ConeDomain(n, omega, "double")
        grid = PolarGrid.fullplane(dom, nr=nr, nt=jtot, r_max=rmax, q=q)
    else:
        dom = ConeDomain(n, omega, variant)
        grid = PolarGrid.cone(dom, nr=nr, nt=jtot // 2, r_max=rmax, q=q)
    vals = np.empty(grid.shape)
    order = sorted(range(grid.nhalves),
                   key=lambda i: grid.global_theta(grid.halves[i])[0])
    rows = [ln.split() for ln in raw[body_start:]]
    if len(rows) != nr * jtot:
        raise ValueError("sample count does not match the header")
    pos = 0
    for k in range(nr - 1, -1, -1):
        for i in order:
            for j in range(grid.nt):
                vals[i, k, j] = float(rows[pos][2])
                pos += 1
    return Field(grid, vals)
