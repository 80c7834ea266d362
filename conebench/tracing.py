"""In-memory span recorder that wraps conelab's public functions from outside.

Every wrapped call becomes a span (id, parent id, name, start, end).  A
span's self time is its duration minus the time its direct children cover;
the run is single-threaded, so children never overlap.  Counters ride on the
same boundaries.  Nothing inside conelab changes: the tracer replaces the
names where callers look them up (module attributes bound by
``from .x import y``, and class attributes for methods) and puts the
originals back on ``close``.
"""

from __future__ import annotations

import json
import sys
import time
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

from conelab import ballops, czd, density, extension, fieldlib, fields, grids
from conelab import rearrangement as rar


class Tracer:
    def __init__(self):
        self.spans: list[list] = []       # [id, parent, name, start, end]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._seen: dict[str, weakref.WeakValueDictionary] = defaultdict(
            weakref.WeakValueDictionary)

    # -- recording -------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = [sid, self._stack[-1] if self._stack else None, name,
               time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, on_result=None, cached=False):
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if cached:
                # a hit hands back an object this function returned before
                seen = self._seen[name]
                self.counts[name + ".hits"] += seen.get(id(out)) is out
                seen[id(out)] = out
            if on_result is not None:
                on_result(args, out)
            return out
        return traced

    def _count(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, fn, name, **kw):
        """Replace every conelab module attribute bound to ``fn``."""
        wrapped = self._wrap(name, fn, **kw)
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] != "conelab":
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._set(mod, attr, wrapped)

    def patch_method(self, cls, attr, name, count_only=False, **kw):
        raw = cls.__dict__[attr]
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        new = self._count(name, fn) if count_only else self._wrap(name, fn, **kw)
        self._set(cls, attr, classmethod(new) if isinstance(raw, classmethod) else new)

    def install(self):
        def decomposed(args, res):
            self.counts["czd.decompose.balls"] += len(res.balls)
            self.counts["czd.decompose.level_cells"] += int(res.level_set.sum())

        def sorted_samples(args, table):
            self.counts["rearrangement.rearrange.samples"] += int(np.size(args[0]))

        sb = ballops.SheetBalls
        self.patch_method(sb, "maximal", "ballops.maximal")
        self.patch_method(sb, "ball_dilate", "ballops.dilate")
        self.patch_method(sb, "ball_rows", "ballops.ball_rows.calls",
                          count_only=True)
        self.patch_method(ballops.BallAverager, "averages", "ballops.averages")
        self.patch_method(grids.PolarGrid, "cone", "grids.build")
        self.patch_method(grids.PolarGrid, "fullplane", "grids.build")
        self.patch_function(ballops.distance_to_cells, "ballops.distance")
        self.patch_function(czd.decompose, "czd.decompose", on_result=decomposed)
        self.patch_function(czd.verify, "czd.verify")
        self.patch_function(czd.k_upper_via_cz, "czd.k_upper")
        self.patch_function(czd.maximal_function, "czd.maximal_function",
                            cached=True)
        self.patch_function(fields.gradient, "fields.gradient", cached=True)
        self.patch_function(fields.lp_norm, "fields.lp_norm")
        self.patch_function(fields.radial_split, "fields.radial_split")
        self.patch_function(rar.rearrange_samples, "rearrangement.rearrange",
                            on_result=sorted_samples)
        self.patch_function(rar.k_sobolev_estimate, "rearrangement.k_estimate")
        self.patch_function(rar.k_component_lower_bound, "rearrangement.k_estimate")
        self.patch_function(rar.k_l1_linf_bruteforce, "rearrangement.oracle")
        self.patch_function(rar.k_split_random_search, "rearrangement.oracle")
        self.patch_function(extension.extend, "extension.extend")
        self.patch_function(extension.restrict, "extension.restrict")
        self.patch_function(extension.extend_pierre_2d, "extension.pierre")
        self.patch_function(density.approximation_errors,
                            "density.approximation_errors")
        self.patch_function(fieldlib.make_test_field, "fieldlib.make_test_field")

    def close(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- summaries ---------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, outermost inclusive seconds, self seconds."""
        child_time = defaultdict(float)
        for _, parent, _, t0, t1 in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for sid, parent, name, t0, t1 in self.spans:
            row = out[name]
            row["calls"] += 1
            row["self_s"] += (t1 - t0) - child_time[sid]
            if not self._inside_same_name(parent, name):
                row["s"] += t1 - t0
        return dict(out)

    def _inside_same_name(self, parent, name) -> bool:
        while parent is not None:
            if self.spans[parent][2] == name:
                return True
            parent = self.spans[parent][1]
        return False

    def write_jsonl(self, path: str, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1}) + "\n")
