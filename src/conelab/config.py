"""Run configuration: domain, grid, sweep ranges, output directory.

Loaded from a JSON file; an empty or missing body means all defaults.
Invalid values raise ConfigError, which the CLI maps to exit code 2.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass, field as dfield, fields

from .geometry import ConeDomain
from .grids import PolarGrid


class ConfigError(ValueError):
    pass


# Largest grid, nr * nt cells.  verify-all, the command that holds the most
# per cell, peaked at 106.4-107.3 MiB resident at 600x96 (57,600 cells) and
# at 292.7-300.4 MiB at 1200x192 (230,400 cells): about 1.1 KiB per cell
# over a 44 MiB base, so a grid at the cap needs about 1.1 GiB.  Its
# tracemalloc peaks, 50.0 and 191.6 MiB, do not move with allocator layout
# as its resident peak does.  Next come kfunc (0.75-0.77 KiB per cell) and
# extend (0.43).
MAX_CELLS = 1_000_000

# Largest r_max: cell measures integrate r^(n-1) dr as differences of r^n,
# which overflow a double (1.8e308) past r = 5.6e102 at n = 3.
MAX_R = 1e100
# Largest alpha_decades: the cz sweep's lowest level is 10^-alpha_decades
# times its highest, and normal doubles reach down to 2.2e-308.
MAX_DECADES = 308

# Each numeric key's interval, (lo, hi, ends[, why]) as `require` reads it;
# a list's interval holds for each entry.  RunConfig states the rules that
# tie keys together.
BOUNDS = {
    "omega": (0.0, math.pi / 2, "()"),
    "nr": (3, math.inf, "[)"),
    "nt": (3, math.inf, "[)"),
    "r_max": (0.0, MAX_R, "(]", "where cell measures (r^n, n <= 3) stay finite"),
    "eps_list": (0.0, 1.0, "()"),
    "k_list": (1.0, math.inf, "[]"),
    "p_list": (1.0, math.inf, "[]"),
    "alpha_decades": (0, MAX_DECADES, "[]", "the decades a double spans below 1"),
    "alpha_points": (2, math.inf, "[)"),
    "t_points": (2, math.inf, "[)"),
    "t_lo": (0.0, math.inf, "()"),
    "t_hi": (0.0, math.inf, "()"),
}


def require(key: str, v, lo, hi, ends: str, why: str = "") -> None:
    """Refuse v outside the interval from lo to hi, each end closed ("[", "]")
    or open ("(", ")") as `ends` says, in one line naming `key`."""
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
    r_min: float | None = None
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
        for name in ("nr", "nt", "alpha_decades", "alpha_points", "t_points"):
            v = getattr(self, name)
            if not isinstance(v, numbers.Integral) or isinstance(v, bool):
                raise ConfigError(f"{name} must be an integer")
        for name in ("eps_list", "k_list", "p_list"):
            v = getattr(self, name)
            if not isinstance(v, list) or not v or not all(
                    isinstance(x, numbers.Real) and not isinstance(x, bool) for x in v):
                raise ConfigError(f"{name} must be a nonempty list of numbers")
        if self.n not in (2, 3):
            raise ConfigError("n must be 2 or 3")
        if self.variant not in ("double", "quadrant"):
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.variant == "quadrant" and self.n != 2:
            raise ConfigError("the quadrant variant is two-dimensional: set n = 2")
        for key, bound in BOUNDS.items():
            v = getattr(self, key)
            for x in (v if isinstance(v, list) else [v]):
                require(key, x, *bound)
        if self.nr * self.nt > MAX_CELLS:
            raise ConfigError(f"grid nr = {self.nr}, nt = {self.nt} has {self.nr * self.nt} "
                              f"cells, above the cap of {MAX_CELLS} (verify-all holds "
                              "about 1.1 KiB per cell)")
        if self.r_min is not None:     # 1e-100 r_max underflows below r_max = 2.5e-224
            require("r_min", self.r_min, 1e-100 * self.r_max or math.ulp(0.0),
                    self.r_max, "[)", "from 1e-100 r_max, where cell measures stay "
                    "positive, to r_max")
        if not all(eps ** (1.0 / k) < 1 for eps in self.eps_list for k in self.k_list):
            raise ConfigError("every k in k_list must keep the corrector radius "
                              "eps^(1/k) below 1 for each eps in eps_list")
        self.p_list = [float(p) for p in self.p_list]
        if len(set(self.p_list)) < len(self.p_list):
            raise ConfigError(f"p_list repeats an exponent: {self.p_list}")
        if not self.t_lo < self.t_hi:
            raise ConfigError(f"t_lo and t_hi must satisfy t_lo < t_hi, got "
                              f"t_lo = {self.t_lo}, t_hi = {self.t_hi}")

    def domain(self) -> ConeDomain:
        return ConeDomain(self.n, self.omega, self.variant)

    def grid(self) -> PolarGrid:
        return PolarGrid.cone(self.domain(), nr=self.nr, nt=self.nt,
                              r_max=self.r_max, r_min=self.r_min)


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
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(data) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if isinstance(data.get("p_list"), list):
        data["p_list"] = [float("inf") if p in ("inf", "Infinity") else p
                          for p in data["p_list"]]
    try:
        return RunConfig(**data)
    except TypeError as e:
        raise ConfigError(str(e)) from e
