"""Library of named test fields and the standard verification suites.

Families (parameters in brackets):
  logcounter(beta)    sign-split log profile |ln r|^{-beta} below r=1/4, smooth
                      cutoff to 0 by r=1/2; the critical-exponent counterexample.
  radial_exp          r e^{-r}, radial.
  radial_power(a)     r^a e^{-r}, radial.
  angular_bump        r e^{-r} times a smooth even bump in the local angle.
  jump                sign-split radial plateau: +1 near the vertex on the plus
                      half, -1 on the minus half, supported in r <= 1/2.
  lipschitz_compact   the radial tent max(0, 1-r).
  constant(c)         the constant field.
"""

from __future__ import annotations

import numpy as np

from .fields import Field
from .grids import PolarGrid
from .profiles import plateau

_LOG_PLATEAU = (0.25, 0.5)


def _sign(half: str) -> float:
    return 1.0 if half == "plus" else -1.0


def _radial_cut(r):
    return plateau(r, *_LOG_PLATEAU)


def make_test_field(name: str, grid: PolarGrid, **params) -> Field:
    """Construct a named test field on the given grid."""
    if name == "logcounter":
        beta = float(params.get("beta", 1.0))

        def fn(r, t, half):
            # 0 outside the cutoff's support, where |ln r|^-beta is infinite
            # at r = 1; inf where it overflows a double
            cut = _radial_cut(r)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                prof = np.where(cut > 0, np.abs(np.log(r)) ** (-beta) * cut, 0.0)
            return _sign(half) * prof

        return Field.from_function(grid, fn, name=f"logcounter(b={beta:g})")
    if name == "radial_exp":
        return Field.from_function(grid, lambda r, t, h: r * np.exp(-r),
                                   name="radial_exp")
    if name == "radial_power":
        a = float(params.get("a", 2.0))

        def fn(r, t, half):
            # inf, or NaN past exp's underflow, where r^a overflows a double
            with np.errstate(over="ignore", invalid="ignore"):
                return r**a * np.exp(-r)

        return Field.from_function(grid, fn, name=f"radial_power(a={a:g})")
    if name == "angular_bump":
        omega = grid.domain.omega
        lo = 0.0 if grid.domain.n == 3 else -omega

        def fn(r, t, half):
            s = (t - lo) / (omega - lo)          # 0..1 across the sheet
            bump = plateau(np.abs(s - 0.5), 0.1, 0.45)
            return r * np.exp(-r) * bump

        return Field.from_function(grid, fn, name="angular_bump")
    if name == "jump":
        return Field.from_function(grid, lambda r, t, h: _sign(h) * _radial_cut(r),
                                   name="jump")
    if name == "lipschitz_compact":
        return Field.from_function(grid, lambda r, t, h: np.maximum(0.0, 1.0 - r),
                                   name="lipschitz_compact")
    if name == "constant":
        c = float(params.get("c", 1.0))
        return Field.from_function(grid, lambda r, t, h: np.full_like(r, c),
                                   name=f"constant(c={c:g})")
    raise ValueError(f"unknown test field {name!r}")


_HARDY_MEMBERS = (
    ("logcounter", {"beta": 0.25}),
    ("logcounter", {"beta": 0.5}),
    ("logcounter", {"beta": 1.0}),
    ("radial_exp", {}),
    ("radial_power", {"a": 0.0}),
    ("radial_power", {"a": 0.5}),
    ("radial_power", {"a": 2.0}),
    ("angular_bump", {}),
    ("jump", {}),
    ("lipschitz_compact", {}),
)


def suite_hardy(grid: PolarGrid):
    """Ten fields exercising the 1/r-weighted gradient bound below the
    critical exponent, including near-extremal radial profiles.  Yields one
    field at a time, so a caller that drops each field (and its cached
    gradient and tables) before the next holds one at a time."""
    return (make_test_field(name, grid, **params) for name, params in _HARDY_MEMBERS)


_CZ_MEMBERS = (
    ("logcounter", {"beta": 1.0}),
    ("radial_exp", {}),
    ("radial_power", {"a": 0.5}),
    ("radial_power", {"a": 2.0}),
    ("angular_bump", {}),
)


def suite_cz(grid: PolarGrid):
    """Five fields with finite weighted Sobolev data at p=2, the inputs of the
    decomposition and K-functional sweeps, yielded one at a time (see
    suite_hardy)."""
    return (make_test_field(name, grid, **params) for name, params in _CZ_MEMBERS)


# The extension suites, one entry per field in suite order: the exponent
# ranges whose suite holds it ("below" p < n, "at" p = n, "above" n < p < inf,
# "inf" p = inf).  Membership in the unweighted space constrains the vertex
# behavior.
_EVERY_RANGE = ("below", "at", "above", "inf")
_EXTENSION_MEMBERS = (
    ("radial_exp", {}, _EVERY_RANGE),
    ("radial_power", {"a": 2.0}, _EVERY_RANGE),
    ("angular_bump", {}, _EVERY_RANGE),
    ("lipschitz_compact", {}, _EVERY_RANGE),
    ("jump", {}, ("below",)),
    ("logcounter", {"beta": 1.0}, ("below", "at")),
    ("radial_power", {"a": 0.5}, ("at", "above")),
)
# The quadrant formula's members.  Above the dimension a field has a limit
# at the vertex on each cone, and the formula extends only fields whose two
# limits agree: not jump's +1 and -1.
QUADRANT_MEMBERS = (
    ("radial_exp", {}, _EVERY_RANGE),
    ("angular_bump", {}, _EVERY_RANGE),
    ("lipschitz_compact", {}, _EVERY_RANGE),
    ("jump", {}, ("below", "at")),
)


def _exponent_range(p: float, n: int) -> str:
    if p < n:
        return "below"
    if p == n:
        return "at"
    return "inf" if p == float("inf") else "above"


def suite_extension_members(grid: PolarGrid, ps, members=_EXTENSION_MEMBERS):
    """The (field, p) pairs of an extension member table (by default the
    extension operator's, or QUADRANT_MEMBERS) over the exponents ps, member
    by member: each field is built once, paired with every p of ps whose
    suite holds it, and dropped before the next is built."""
    n = grid.domain.n
    for name, params, ranges in members:
        held = [p for p in ps if _exponent_range(p, n) in ranges]
        if held:
            f = make_test_field(name, grid, **params)
            for p in held:
                yield f, p
            del f


def suite_fullplane(grid: PolarGrid):
    """Five smooth compactly-decaying fields on the full plane, yielded one
    at a time (see suite_hardy)."""
    if grid.kind != "fullplane":
        raise ValueError("needs a full-plane grid")

    def gauss(cx, cy, s):
        def fn(r, t, h):
            x, y = r * np.cos(t), r * np.sin(t)
            return np.exp(-(((x - cx) ** 2 + (y - cy) ** 2) / (2 * s * s)))
        return fn

    def modulated(fn0, mod):
        def fn(r, t, h):
            x, y = r * np.cos(t), r * np.sin(t)
            return fn0(r, t, h) * mod(x, y)
        return fn

    g0 = gauss(0.0, 0.0, 0.8)
    members = (
        ("gauss_offset", gauss(0.5, 0.3, 0.7)),
        ("gauss_centered", g0),
        ("gauss_x", modulated(g0, lambda x, y: x)),
        ("gauss_wave", modulated(g0, lambda x, y: np.sin(2 * x) + 0.5 * y)),
        ("gauss_far", gauss(-0.8, 0.6, 1.1)),
    )
    return (Field.from_function(grid, fn, name=name) for name, fn in members)
