"""Report rows and deterministic CSV/JSON emission.

Every verification row carries the check id, a pass flag, the bound text and
what was measured.  A check states each of its limits once, as a `Limit`
record on a measured key; the pass flag, the bound text and the closest call
all follow from these records.  Files are written atomically (temp file
plus rename) and floats are serialized with repr, so identical runs produce
byte-identical outputs.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field as dfield

import numpy as np


# sense -> (holds, share): share is measured/limit for upper bounds,
# limit/measured for lower bounds and |measured - center|/tol for a two-sided
# tolerance, so a value at its limit has share 1
_SENSES = {
    "<=": (lambda x, v, t: x <= v, lambda x, v, t: x / v),
    "<": (lambda x, v, t: x < v, lambda x, v, t: x / v),
    ">=": (lambda x, v, t: x >= v, lambda x, v, t: v / x if x else math.inf),
    "+/-": (lambda x, v, t: abs(x - v) <= t, lambda x, v, t: abs(x - v) / t),
    "==": (lambda x, v, t: x == v, None),
    "finite": (lambda x, v, t: np.isfinite(x), None),
}


@dataclass(frozen=True)
class Limit:
    """One acceptance limit: measured[key] against `value` by `sense`.

    Senses: "<=", "<", ">=", "==" (flags, verdicts and exact constants),
    "+/-" (|measured - value| <= tol) and "finite" (no value).
    """

    key: str
    sense: str
    value: object = None
    tol: float | None = None

    def __post_init__(self):
        if self.sense not in _SENSES:
            raise ValueError(f"unknown limit sense {self.sense!r}")
        if (self.sense == "+/-") != (self.tol is not None):
            raise ValueError("a tolerance goes with the +/- sense only")

    def holds(self, x) -> bool:
        return bool(_SENSES[self.sense][0](x, self.value, self.tol))

    def share(self, x) -> float:
        """How close x came to the limit: 1 at the limit, above 1 past it.
        Flags and finiteness have no ratio: 0 when held, inf when not."""
        ratio = _SENSES[self.sense][1]
        if ratio is None:
            return 0.0 if self.holds(x) else math.inf
        return float(ratio(x, self.value, self.tol))

    def text(self) -> str:
        if self.sense == "finite":
            return f"{self.key} finite"
        v = format(self.value, "g") if isinstance(self.value, float) else self.value
        if self.sense == "+/-":
            return f"{self.key} = {v} +/- {self.tol:g}"
        return f"{self.key} {self.sense} {v}"


@dataclass
class CheckResult:
    """Outcome of one named verification: measured values and the limits
    held against them, from which `passed` and the bound text follow."""

    check_id: str
    description: str
    measured: dict = dfield(default_factory=dict)
    limits: list = dfield(default_factory=list)
    runtime: float = 0.0

    def put(self, key: str, value, *limits) -> None:
        """Record measured[key] = value and its limits, each a (sense, value)
        pair, ("+/-", center, tol) or ("finite",)."""
        self.measured[key] = value
        self.limits += [Limit(key, *lim) for lim in limits]

    @property
    def passed(self) -> bool:
        return all(lim.holds(self.measured[lim.key]) for lim in self.limits)

    @property
    def bound(self) -> str:
        return ", ".join(lim.text() for lim in self.limits)

    def closest(self) -> tuple[float, Limit]:
        """(share, limit) of the limit the measured values came closest to."""
        return max(((lim.share(self.measured[lim.key]), lim)
                    for lim in self.limits), key=lambda sl: sl[0])

    def row(self) -> dict:
        # runtime stays out: result files are byte-identical across runs
        out = {"check": self.check_id, "passed": self.passed,
               "bound": self.bound}
        out.update(self.measured)
        return out


def summary(results: list) -> dict:
    """The verify_all.json object of a run's check results."""
    return {
        "passed": all(r.passed for r in results),
        "n_checks": len(results),
        "n_failed": sum(not r.passed for r in results),
        "checks": [r.row() for r in results],
    }


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, np.integer):
        return str(int(v))
    return str(v)


def _csv_cell(text: str) -> str:
    """RFC 4180: a cell holding a comma, a quote or a line break is quoted,
    with its inner quotes doubled."""
    if any(c in text for c in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _atomic_write(path: str, pieces) -> None:
    """Write the text pieces in order to a temp file, then rename it to path;
    if a piece raises, nothing is written."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _has_nan(obj) -> bool:
    """Whether a float NaN sits anywhere in obj, through dicts, lists and tuples."""
    if isinstance(obj, (dict, list, tuple)):
        return any(map(_has_nan, obj.values() if isinstance(obj, dict) else obj))
    return isinstance(obj, (float, np.floating)) and bool(np.isnan(obj))


def write_csv(path: str, rows: list[dict], columns: list[str] | None = None) -> None:
    """Write dict rows with a fixed column order (union of keys by default).
    A NaN cell raises ValueError and nothing is written; inf stays, the
    marker of a row the membership gate refused."""
    if columns is None:
        columns = []
        for r in rows:
            for k in r:
                if k not in columns:
                    columns.append(k)
    lines = [",".join(_csv_cell(c) for c in columns)]
    for r in rows:
        cells = [r.get(c, "") for c in columns]
        if _has_nan(cells):
            raise ValueError(f"NaN in a row for {path}: {r}")
        lines.append(",".join(_csv_cell(_fmt(v)) for v in cells))
    _atomic_write(path, ["\n".join(lines) + "\n"])


def write_json(path: str, obj) -> None:
    """Sorted, indented JSON; a NaN anywhere raises ValueError, as in write_csv."""
    if _has_nan(obj):
        raise ValueError(f"NaN in the object for {path}")
    _atomic_write(path, [json.dumps(obj, indent=2, sort_keys=True, default=_fmt)
                         + "\n"])
