"""Report rows and deterministic CSV/JSON emission.

Every verification row carries the check id, what was measured, the bound it
was held against, and a pass flag.  Files are written atomically (temp file
plus rename) and floats are serialized with repr, so identical runs produce
byte-identical outputs.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field as dfield

import numpy as np


@dataclass
class CheckResult:
    """Outcome of one named verification: measured values against a bound."""

    check_id: str
    description: str
    measured: dict
    bound: str
    passed: bool
    runtime: float = 0.0

    def row(self) -> dict:
        # runtime stays out: result files are byte-identical across runs
        out = {"check": self.check_id, "passed": self.passed,
               "bound": self.bound}
        out.update({k: v for k, v in self.measured.items()})
        return out


@dataclass
class VerificationReport:
    results: list = dfield(default_factory=list)

    def add(self, result: CheckResult):
        self.results.append(result)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def summary(self) -> dict:
        return {
            "passed": self.all_passed,
            "n_checks": len(self.results),
            "n_failed": sum(not r.passed for r in self.results),
            "checks": [r.row() for r in self.results],
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


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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
        if any(isinstance(v, (float, np.floating)) and np.isnan(v) for v in cells):
            raise ValueError(f"NaN in a row for {path}: {r}")
        lines.append(",".join(_csv_cell(_fmt(v)) for v in cells))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_json(path: str, obj) -> None:
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True,
                                   default=_fmt) + "\n")
