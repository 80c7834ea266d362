"""Scalar fields on cone grids: gradients, weighted norms, splits, Poincare ratios.

A Field stacks one sample sheet per half-cone (or one periodic sheet for the
full plane).  Every norm, table and intensity reads one of three sample
families, |f|, |f|/r or |grad f| (`samples`), in plain measure-weighted sums
over the grid's exact cell measures; divergent quantities are never reported
as infinities but as partial-integral tables over the inner truncation radius.
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
WEIGHTS = ("none", "inv_r", "gradient")   # the sample families of `samples`


@dataclass(frozen=True, eq=False)
class Field:
    """Samples f(r_k, theta_j) on each sheet of a polar grid."""

    grid: PolarGrid
    values: np.ndarray
    name: str = ""
    _cache: dict = dfield(default_factory=dict, repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise ValueError(f"sample shape {v.shape} != grid shape {self.grid.shape}")
        object.__setattr__(self, "values", v)
        v.flags.writeable = False

    @classmethod
    def from_function(cls, grid: PolarGrid, fn, name: str = ""):
        """Build a field from fn(r, theta, half), called once per sheet on
        broadcastable (nr, 1) radii and (1, nt) angles; each sheet's result
        is broadcast into its slot of one (halves, nr, nt) array."""
        r, t = grid.r[:, None], grid.theta[None, :]
        vals = np.empty(grid.shape)
        for i, h in enumerate(grid.halves):
            vals[i] = fn(r, t, h)
        return cls(grid, vals, name=name)

    def with_values(self, values: np.ndarray, name: str | None = None) -> "Field":
        return Field(self.grid, np.array(values, dtype=float),
                     name=self.name if name is None else name)

    def sheet(self, half: str) -> np.ndarray:
        return self.values[self.grid.half_index(half)]

    def cached(self, key, build):
        """The result stored under key, built by build() on first use.  Keys
        may hold a grid or a field, which compare by identity."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def __add__(self, other):
        return self.with_values(self.values + other.values, name="")

    def __sub__(self, other):
        return self.with_values(self.values - other.values, name="")

    def __mul__(self, c: float):
        return self.with_values(self.values * c, name="")

    __rmul__ = __mul__


@dataclass(frozen=True, eq=False)
class RadialSplit:
    """f = radial + antiradial, the radial part being the per-ring cap mean.
    The radial part is built from the profile on each access, so a split
    cached on its field holds one field-sized array."""

    antiradial: Field
    profile: np.ndarray   # (nr,) cap means
    radial_name: str = ""

    @property
    def radial(self) -> Field:
        # np.array keeps the broadcast's ring-major layout, which the sums
        # over these samples follow
        g = self.antiradial.grid
        return Field(g, np.array(np.broadcast_to(self.profile[None, :, None], g.shape)),
                     name=self.radial_name)


def gradient(f: Field) -> np.ndarray:
    """|grad f| by the grid's one rule, `PolarGrid.grad_magnitude` (central
    differences in (r, theta), one-sided at edges, inf where a square
    overflows).  Cached on the field as one read-only (halves, nr, nt) array."""
    g = f.grid
    if g.nr < 3 or g.nt < 3:
        raise ValueError("gradient needs at least 3 nodes per direction")

    def build():
        out = g.grad_magnitude(f.values)
        out.flags.writeable = False
        return out
    return f.cached("gradient", build)


def samples(f: Field, weight: str = "none") -> np.ndarray:
    """|f| (weight "none"), |f|/r ("inv_r") or |grad f| ("gradient"): the
    three sample families that every norm, table and intensity reads.  The
    first two are fresh arrays; the gradient family is the field's cached
    read-only array, the same object on every call."""
    if weight == "gradient":
        return gradient(f)
    if weight not in WEIGHTS:
        raise ValueError(f"unknown weight {weight!r}")
    vals = np.abs(f.values)
    if weight == "inv_r":
        vals /= f.grid.r[None, :, None]
    return vals


def lp_norm(f: Field, p: float, weight: str = "none") -> float:
    """Quadrature L^p norm of samples(f, weight) over the whole domain;
    sample sup for p = inf."""
    vals = samples(f, weight)
    if p == INF:
        return float(vals.max())
    if p < 1:
        raise ValueError("exponent must be in [1, inf]")
    return power_sum_root(vals, f.grid.cell_measure[None, :, :], p)


def power_sum_root(vals: np.ndarray, w: np.ndarray, p: float) -> float:
    """(sum vals^p w)^(1/p) for vals >= 0, finite wherever the result is."""
    with np.errstate(over="ignore"):
        terms = vals**p
        terms *= w
        total = np.sum(terms)
    if np.isinf(total) and np.isfinite(top := vals.max()):
        # vals**p overflowed: factor the largest sample out of the sum
        terms = (vals / top) ** p
        terms *= w
        return float(top * np.sum(terms) ** (1.0 / p))
    return float(total ** (1.0 / p))


def hardy_quotient(f: Field, p: float) -> float:
    """||f/r||_p divided by the L^p norm of the radial derivative, p finite."""
    den = power_sum_root(np.abs(f.grid.d_dr(f.values)),
                         f.grid.cell_measure[None, :, :], p)
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
    """Split into the per-ring cap mean and the mean-zero remainder, cached
    on f."""
    def build():
        prof = cap_mean(f)
        prof.flags.writeable = False      # shared through the cache
        # C-ordered whatever f's layout: the sums over it follow the layout
        anti = np.subtract(f.values, prof[None, :, None], out=np.empty(f.grid.shape))
        fa = Field(f.grid, anti, name=f.name + "_antiradial" if f.name else "")
        return RadialSplit(fa, prof, f.name + "_radial" if f.name else "")
    return f.cached("radial_split", build)


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
    grad = float(np.sum(samples(f, "gradient") ** q * w)) / tot
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


def partial_norm_power_table(v: np.ndarray, grid: PolarGrid, p: float):
    """Partial integrals P(r_min') = int_{r >= r_min'} v^p dlambda per decade
    of samples v >= 0 (see `samples`); at p = inf, the running sup of v over
    r >= r_min'.  A term v^p w that fits a double stays finite where v^p
    alone overflows, as in `power_sum_root`.

    Returns (r_mins, P) with r_mins descending by decades from just below
    r_max down to the grid's inner radius.
    """
    # cumulative from the outside in: P[k] = integral (or sup) over rings >= k
    if p == INF:
        tail = np.maximum.accumulate(v.max(axis=(0, 2))[::-1])[::-1]
    else:
        w = grid.cell_measure[None, :, :]
        with np.errstate(over="ignore"):
            terms = v**p
            terms *= w
            over = np.isinf(terms)
            if over.any():
                terms[over] = (v * w ** (1.0 / p))[over] ** p
            tail = np.cumsum(terms.sum(axis=(0, 2))[::-1])[::-1]
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


def integrability_gate(v: np.ndarray, grid: PolarGrid, p: float):
    """Decide whether the L^p integral (sup at p = inf) of samples v >= 0,
    such as |f|/r, trends finite.

    Divergent iff the partial integrals (running suprema) keep growing by more
    than 1.5% per decade of the truncation radius, on average over the last
    GATE_DECADES decades.  Returns (accepted, growth_per_decade).
    """
    _, P = partial_norm_power_table(v, grid, p)
    growth = decade_growth(P, GATE_DECADES)
    return growth <= 0.015, growth


def decade_growth(P: np.ndarray, decades: int) -> float:
    """Relative growth per decade of a partial-integral table, averaged over
    its last `decades` decades; 0 for a table that ends at 0."""
    if len(P) <= decades:
        raise ValueError("table too short")
    seg = P[-(decades + 1):]
    return 0.0 if seg[-1] == 0.0 else float(
        np.mean(np.diff(seg) / np.maximum(seg[:-1], 1e-300)))


def critical_sweep(grid: PolarGrid, betas):
    """The critical-exponent law at p = n = 2: per beta, the logcounter
    field, its weighted partial-integral table (r_mins, P) and a summary:
    beta, the expected growth exponent 1 - 2 beta of P, and the measured one
    (beta < 1/2, P diverges) or the last decade's increment (P converges)."""
    from .fieldlib import make_test_field     # fieldlib builds on this module
    for beta in betas:
        f = make_test_field("logcounter", grid, beta=beta)
        r_mins, P = partial_norm_power_table(samples(f, "inv_r"), grid, 2.0)
        if not np.isfinite(P).all():
            raise OverflowError(f"the partial integrals of {f.name} overflow a double")
        out = {"beta": beta, "expected_slope": 1.0 - 2.0 * beta}
        if beta < 0.5:
            out["measured_slope"] = log_log_increment_slope(r_mins, P)
        else:
            out["last_decade_increment"] = decade_growth(P, 1)
        yield f, (r_mins, P), out


# the growth-slope fit: the vertex tail of a decade table that it reads, and
# the growing increments that it needs there
SLOPE_TAIL, SLOPE_INCREMENTS = 1e-4 * (1 + 1e-9), 3


def ringed_tail_decades(grid: PolarGrid) -> int:
    """The decades of grid's vertex tail that hold a ring: where the decade
    table of a field positive there grows, so the increments the fit sees."""
    r_mins = decade_radii(grid)
    tail = r_mins[r_mins <= SLOPE_TAIL]
    return int(np.count_nonzero(np.diff(np.searchsorted(grid.r, tail))))


def log_log_increment_slope(r_mins: np.ndarray, P: np.ndarray) -> float:
    """Growth exponent s of P(r_min) ~ A + B|ln r_min|^s via increments,
    fitted over the vertex tail r_min <= 1e-4 of the table.

    Regressing ln(P(u_{k+1}) - P(u_k)) on ln u removes the additive constant A
    that biases a direct log-log fit; the slope is s - 1.
    """
    tail = r_mins <= SLOPE_TAIL
    u = np.abs(np.log(r_mins[tail]))
    dP = np.diff(P[tail])
    du = np.diff(u)
    um = 0.5 * (u[1:] + u[:-1])
    good = dP > 0
    if good.sum() < SLOPE_INCREMENTS:
        raise ValueError("not enough growing increments to fit")
    x = np.log(um[good])
    y = np.log(dP[good] / du[good])
    slope = np.polyfit(x, y, 1)[0]
    return float(1.0 + slope)


# -- plain-text dump format ---------------------------------------------------


def save_field(f: Field, path: str) -> None:
    """Text dump: header lines then one `r theta value` line per sample,
    radially outside-in, sheets ordered by global angle; written one ring at
    a time."""
    g = f.grid
    order = sorted(range(g.nhalves), key=lambda i: g.global_theta(g.halves[i])[0])
    thetas = [g.global_theta(g.halves[i]).tolist() for i in order]
    header = [f"n={g.n}",
              f"omega={g.domain.omega!r}",
              f"variant={'fullspace' if g.kind == 'fullplane' else g.domain.variant}",
              f"K={g.nr}",
              f"J={g.nt * g.nhalves}",
              f"q={g.q!r}",
              f"rmax={g.r_max!r}"]

    def rings():
        yield "".join(line + "\n" for line in header)
        for k in range(g.nr - 1, -1, -1):
            r = float(g.r[k])
            yield "".join(f"{r!r} {t!r} {v!r}\n" for i, th in zip(order, thetas)
                          for t, v in zip(th, f.values[i, k].tolist()))

    _atomic_write(path, rings())
