"""Run configuration: domain, grid, sweep ranges, output directory.

Loaded from a JSON file; an empty or missing body means all defaults.
Invalid values raise ConfigError, which the CLI maps to exit code 2.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import sys
from dataclasses import dataclass, field as dfield

from .geometry import ConeDomain
from .grids import PolarGrid


class ConfigError(ValueError):
    pass


# Largest grid, nr * nt cells.  verify-all, the command that holds the most
# per cell, peaked at 716.4 MiB resident and took 156 s at 2400x416 (998,400
# cells, 2-core host), about 0.75 KiB per cell; README gives its launcher and
# the peaks at 600x96 and 1200x192.
MAX_CELLS = 1_000_000

# Largest nt: the ball and decomposition code reads one nt x nt table of
# angle cosines per grid (`PolarGrid.col_cosines`), 128 MiB at the ceiling,
# plus a temporary of the same size while it is built.
MAX_NT = 4096

# Largest r_max: cell measures integrate r^(n-1) dr as differences of r^n,
# which overflow a double (1.8e308) past r = 5.6e102 at n = 3.
MAX_R = 1e100
# Smallest r_min: r^n (n <= 3) stays a positive normal double, so no cell
# measure vanishes.  Smallest r_max: its default r_min, 1e-12 r_max, meets it.
MIN_R = 1e-100
MIN_R_MAX = 1e-88
# Largest alpha_decades: the cz sweep's lowest level is 10^-alpha_decades
# times its highest, and normal doubles reach down to 2.2e-308.
MAX_DECADES = 308
# Largest alpha_points and t_points: each point decomposes every field of its
# sweep (cz one field's plus sheet, kfunc five fields), about 3 ms (cz) and
# 14 ms (kfunc) per point at 20x8 and 20 ms and 0.3 s at the default 600x96,
# so 10^4 points take from half a minute to about an hour.
MAX_POINTS = 10_000

# Each key's row: its type, then its interval (lo, hi, ends[, why]), its
# choices, or nothing, as `require` reads them; for a list type, [float],
# each entry's.  RunConfig states the rules that tie keys together.
BOUNDS = {
    "n": (int, 2, 3, "[]"),
    "omega": (float, 0.0, math.pi / 2, "()"),
    "variant": (str, ("double", "quadrant")),
    "nr": (int, 3, math.inf, "[)"),
    "nt": (int, 3, MAX_NT, "[]", "the columns whose cosine table fits 128 MiB"),
    "r_max": (float, MIN_R_MAX, MAX_R, "[]", "where cell measures stay finite, "
              "and positive at the default r_min, 1e-12 r_max"),
    "r_min": (float, MIN_R, MAX_R, "[)", "where cell measures stay positive"),
    "eps_list": ([float], 0.0, 1.0, "()"),
    "k_list": ([float], 1.0, math.inf, "[]"),
    "alpha_decades": (int, 0, MAX_DECADES, "[]", "the decades a double spans below 1"),
    "alpha_points": (int, 2, MAX_POINTS, "[]", "the points a sweep can decompose"),
    "t_lo": (float, 0.0, math.inf, "()"),
    "t_hi": (float, 0.0, math.inf, "()"),
    "t_points": (int, 2, MAX_POINTS, "[]", "the points a sweep can decompose"),
    "p_list": ([float], 1.0, math.inf, "[]"),
    "out_dir": (str,),
}

# what each row type admits (a bool is never a number), and its name
_KINDS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number"),
          str: (str, "a string")}


def require(key: str, v, kind, *rule) -> None:
    """Refuse v, in one line naming `key`, unless it is of type `kind` and
    the rule admits it: an interval (lo, hi, ends[, why]), each end closed
    ("[", "]") or open ("(", ")") as `ends` says, or a tuple of choices.
    A list type, [float], asks for a nonempty list of such entries."""
    if isinstance(kind, list):
        if not (isinstance(v, list) and v):
            raise ConfigError(f"{key} must be a nonempty list, got {v!r}")
        for x in v:
            require(key, x, kind[0], *rule)
        return
    abc, name = _KINDS[kind]
    if not isinstance(v, abc) or isinstance(v, bool):
        raise ConfigError(f"{key} must be {name}, got {v!r}")
    # Python compares big integers exactly, so one past a double's range
    # would pass an interval and overflow where the code reads it as a float
    if isinstance(v, int) and abs(v) > sys.float_info.max:
        raise ConfigError(f"{key} must fit a double, at most {sys.float_info.max:.4g} "
                          f"in size, got an integer past it")
    if len(rule) == 1 and v not in rule[0]:
        raise ConfigError(f"{key} must be one of {', '.join(map(repr, rule[0]))}, "
                          f"got {v!r}")
    if len(rule) < 3:
        return
    lo, hi, ends, why = (*rule, "")[:4]
    if ((lo <= v if ends[0] == "[" else lo < v)
            and (v <= hi if ends[1] == "]" else v < hi)):
        return
    lo, hi = ("pi/2" if x == math.pi / 2 else f"{x:g}" for x in (lo, hi))
    raise ConfigError(f"{key} must lie in {ends[0]}{lo}, {hi}{ends[1]}"
                      + (f", {why}" if why else "") + f", got {v}")


@dataclass
class RunConfig:
    n: int = 2
    omega: float = math.pi / 4
    variant: str = "double"
    nr: int = 600
    nt: int = 96
    r_max: float = 40.0
    r_min: float | None = None      # None: 1e-12 r_max
    eps_list: list = dfield(default_factory=lambda: [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    k_list: list = dfield(default_factory=lambda: [2.0, 4.0, 8.0, 16.0])
    alpha_decades: int = 4
    alpha_points: int = 9
    t_lo: float = 1e-3
    t_hi: float = 1e3
    t_points: int = 7
    p_list: list = dfield(default_factory=lambda: [1.0, 1.5, 3.0, float("inf")])
    out_dir: str = "out"

    def __post_init__(self):
        for key, row in BOUNDS.items():
            if not (key == "r_min" and self.r_min is None):
                require(key, getattr(self, key), *row)
        if self.variant == "quadrant" and self.n != 2:
            raise ConfigError("the quadrant variant is two-dimensional: set n = 2")
        if self.nr * self.nt > MAX_CELLS:
            raise ConfigError(f"grid nr = {self.nr}, nt = {self.nt} has {self.nr * self.nt} "
                              f"cells, above the cap of {MAX_CELLS} (verify-all holds "
                              "about 0.75 KiB per cell)")
        if self.r_min is not None and not self.r_min < self.r_max:
            raise ConfigError(f"r_min must lie below r_max = {self.r_max:g}, "
                              f"got {self.r_min}")
        if not all(eps ** (1.0 / k) < 1 for eps in self.eps_list for k in self.k_list):
            raise ConfigError("every k in k_list must keep the corrector radius "
                              "eps^(1/k) below 1 for each eps in eps_list")
        self.p_list = [float(p) for p in self.p_list]
        if len(set(self.p_list)) < len(self.p_list):
            raise ConfigError(f"p_list repeats an exponent: {self.p_list}")
        if not self.t_lo < self.t_hi:
            raise ConfigError(f"t_lo and t_hi must satisfy t_lo < t_hi, got "
                              f"t_lo = {self.t_lo}, t_hi = {self.t_hi}")

    def grid(self) -> PolarGrid:
        return PolarGrid.cone(ConeDomain(self.n, self.omega, self.variant), nr=self.nr,
                              nt=self.nt, r_max=self.r_max, r_min=self.r_min)


def load_config(path: str | None) -> RunConfig:
    """Parse a JSON config; empty content or a missing path yield defaults."""
    if path is None:
        return RunConfig()
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path) as fh:
        text = fh.read().strip()
    if not text:
        return RunConfig()
    try:
        data = json.loads(text)
    except ValueError as e:     # also an integer past Python's digit limit
        raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    if unknown := set(data) - set(BOUNDS):
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if isinstance(data.get("p_list"), list):
        data["p_list"] = [float("inf") if p in ("inf", "Infinity") else p
                          for p in data["p_list"]]
    return RunConfig(**data)
