"""conelab benchmark: closed-loop workloads timed from outside the package.

    python3 conebench/run.py --workload cz-levels --seed 0 --seconds 40 --trace 0

Run from the root of a checkout: the package is imported from ``src/``.  One
process, one caller, BLAS/OpenMP pinned to one thread.  A run repeats rounds
of its workload (see workloads.py) until one more round would end after
``--seconds``, but never fewer than the workload's ``min_rounds``, which
give every input a round.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0 reports the end-to-end metrics.  --trace 1 runs one untraced cycle
and then the same cycle traced, reports the per-layer metrics of the traced
cycle (trace.overhead_s is traced wall minus untraced wall), prints the
layer shares to standard error and writes the spans, with parent ids, to
``.conebench/trace-<workload>-seed<seed>.jsonl``.

Every run also times a fixed host-speed probe before, between and after
the rounds, outside the timed sections, and prints its median and range to
standard error.  Metrics are never rescaled with it: it only explains
spread.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".conebench")

SETUP_REPS = 9

# wall_s             median seconds of one round's operations
# ops_per_s          operations over the summed seconds of the rounds
# setup_s            median seconds to build one round's grids and fields
# peak_rss_mb        the process's peak resident memory
# pass_ratio         operations that met every bound over those attempted,
#                    i.e. 1 - fail ratio, which would read 0 on a clean run
# worst_bound_ratio  largest measured/limit over the upper bounds checked
END_TO_END = {
    "wall_s": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
    "worst_bound_ratio": "ratio",
}

# name -> (unit, span name, field of the span summary)
_SPAN_METRICS = {
    "ballops.maximal.s": ("s", "ballops.maximal", "s"),
    "ballops.maximal.calls": ("count", "ballops.maximal", "calls"),
    "ballops.averages.s": ("s", "ballops.averages", "s"),
    "ballops.averages.calls": ("count", "ballops.averages", "calls"),
    "ballops.dilate.s": ("s", "ballops.dilate", "s"),
    "czd.decompose.self_s": ("s", "czd.decompose", "self_s"),
    "czd.decompose.calls": ("count", "czd.decompose", "calls"),
    "ballops.distance.s": ("s", "ballops.distance", "s"),
    "ballops.distance.calls": ("count", "ballops.distance", "calls"),
    "czd.k_upper.self_s": ("s", "czd.k_upper", "self_s"),
    "czd.verify.s": ("s", "czd.verify", "s"),
    "czd.verify.calls": ("count", "czd.verify", "calls"),
    "czd.maximal_function.calls": ("count", "czd.maximal_function", "calls"),
    "rearrangement.rearrange.s": ("s", "rearrangement.rearrange", "s"),
    "rearrangement.k_estimate.s": ("s", "rearrangement.k_estimate", "s"),
    "rearrangement.oracle.s": ("s", "rearrangement.oracle", "s"),
    "fields.gradient.s": ("s", "fields.gradient", "s"),
    "fields.lp_norm.s": ("s", "fields.lp_norm", "s"),
    "fields.lp_norm.calls": ("count", "fields.lp_norm", "calls"),
    "fields.radial_split.s": ("s", "fields.radial_split", "s"),
    "extension.extend.s": ("s", "extension.extend", "s"),
    "extension.extend.calls": ("count", "extension.extend", "calls"),
    "extension.restrict.s": ("s", "extension.restrict", "s"),
    "extension.pierre.s": ("s", "extension.pierre", "s"),
    "density.approximation_errors.s": ("s", "density.approximation_errors", "s"),
    "grids.build.s": ("s", "grids.build", "s"),
    "fieldlib.make_test_field.s": ("s", "fieldlib.make_test_field", "s"),
}

# counters kept by the tracer itself
_COUNT_METRICS = ("czd.decompose.balls", "czd.decompose.level_cells",
                  "ballops.ball_rows.calls", "rearrangement.rearrange.samples")

# name -> span name whose repeated results are counted as cache hits
_HIT_RATIOS = {"czd.maximal_function.hit_ratio": "czd.maximal_function",
               "fields.gradient.hit_ratio": "fields.gradient"}



def span_metrics(table_checks) -> dict:
    """_SPAN_METRICS plus the inclusive time of each check of ``tables``."""
    out = dict(_SPAN_METRICS)
    out.update({f"acceptance.check.{c}.s": ("s", f"acceptance.check.{c}", "s")
                for c in table_checks})
    return out


def per_layer_units(table_checks) -> dict:
    units = {name: spec[0] for name, spec in span_metrics(table_checks).items()}
    units.update({name: "count" for name in _COUNT_METRICS})
    units.update({name: "ratio" for name in _HIT_RATIOS})
    units.update({"czd.sweep.variation_ratio": "ratio", "trace.wall_s": "s",
                  "trace.overhead_s": "s", "host.probe_s": "s"})
    return units


def host_probe(reps: int = 3) -> float:
    """Median seconds of a fixed kernel: per-ring numpy calls from a Python
    loop, the mix the ball and decomposition code runs on."""
    a = np.linspace(0.0, 1.0, 600 * 96).reshape(600, 96)
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(30):
            for row in a:
                acc += float(np.cumsum(row)[-1])
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


class Loop:
    """Closed loop over a workload's rounds; every round builds fresh inputs."""

    def __init__(self, workload):
        self.workload = workload
        self.setup_s: list[float] = []
        self.walls: list[float] = []
        self.ok: list[bool] = []
        self.ratios: list[float] = []
        self.sweep_ratios: list[float] = []

    def setup(self):
        t0 = time.perf_counter()
        state = self.workload.setup()
        self.setup_s.append(time.perf_counter() - t0)
        return state

    def round(self, index: int, span) -> float:
        """One timed round; returns its seconds including set-up.

        ``span(name)`` opens a context around each operation: a tracer's
        span, or ``nullcontext`` when nothing is recorded."""
        t0 = time.perf_counter()
        state = self.setup()
        t1 = time.perf_counter()
        res = self.workload.run(state, index, span)
        t2 = time.perf_counter()
        self.walls.append(t2 - t1)
        self.ok += res.ok
        self.ratios += res.ratios
        self.sweep_ratios += res.sweep_ratios
        return t2 - t0

    def for_seconds(self, seconds: float, probes: list) -> None:
        """Rounds until the next would end after ``seconds``; the host probe
        runs between rounds, outside the timed sections."""
        start = time.perf_counter()
        index = 0
        while True:
            last = self.round(index, nullcontext)
            index += 1
            probes.append(host_probe())
            elapsed = time.perf_counter() - start
            if index >= self.workload.min_rounds and elapsed + last > seconds:
                return

    def cycle(self, span) -> float:
        t0 = time.perf_counter()
        for index in range(self.workload.cycle):
            self.round(index, span)
        return time.perf_counter() - t0


def end_to_end(loop: Loop) -> dict:
    ops = len(loop.ok)
    return {
        "wall_s": statistics.median(loop.walls),
        "ops_per_s": ops / sum(loop.walls),
        "setup_s": statistics.median(loop.setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_ratio": sum(loop.ok) / ops,
        # 0 only when no operation returned a value; failed then says so
        "worst_bound_ratio": max(loop.ratios, default=0.0),
    }


def per_layer(tracer, loop: Loop, table_checks, traced_wall: float,
              untraced_wall: float, probe: float) -> dict:
    summary = tracer.summary()
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
    out = {name: summary.get(span, empty)[key]
           for name, (_, span, key) in span_metrics(table_checks).items()}
    out.update({name: tracer.counts[name] for name in _COUNT_METRICS})
    for name, span in _HIT_RATIOS.items():
        calls = summary.get(span, empty)["calls"]
        out[name] = tracer.counts[span + ".hits"] / calls if calls else 0.0
    out.update({"czd.sweep.variation_ratio": max(loop.sweep_ratios, default=0.0),
                "trace.wall_s": traced_wall,
                "trace.overhead_s": traced_wall - untraced_wall,
                "host.probe_s": probe})
    return out


def print_layer_report(tracer, wall: float, name: str) -> None:
    rows = sorted(tracer.summary().items(), key=lambda kv: -kv[1]["self_s"])
    print(f"layer shares of the traced {name} cycle ({wall:.3f} s, self time):",
          file=sys.stderr)
    for span, row in rows:
        print(f"  {span:42s} {row['self_s']:9.3f} s {row['self_s'] / wall:7.1%}"
              f" {row['calls']:9d} calls", file=sys.stderr)
    for key in sorted(tracer.counts):
        print(f"  count {key:36s} {tracer.counts[key]:d}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--grid", choices=("default", "small"), default="default",
                    help="small: the 220x48 structural grid, for the self-test")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "conelab", "__init__.py")):
        print(f"conebench: no conelab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from conelab.config import RunConfig
    from workloads import WORKLOADS, Tables
    if args.workload not in WORKLOADS:
        print(f"conebench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    cfg = RunConfig() if args.grid == "default" else RunConfig(
        nr=220, nt=48, r_min=4e-8)
    workload = WORKLOADS[args.workload](cfg, args.seed)
    if not workload.seed_applies:
        print(f"conebench: {workload.name} is deterministic; seed {args.seed} "
              "does not apply", file=sys.stderr)
    probes = [host_probe()]
    loop = Loop(workload)
    for _ in range(SETUP_REPS):
        loop.setup()

    if args.trace:
        from tracing import Tracer
        untraced_wall = loop.cycle(nullcontext)
        tracer = Tracer()
        tracer.install()
        try:
            traced_wall = loop.cycle(tracer.span)
        finally:
            tracer.close()
        probes.append(host_probe())
        metrics = per_layer(tracer, loop, Tables.checks, traced_wall,
                            untraced_wall, statistics.median(probes))
        units = per_layer_units(Tables.checks)
        print_layer_report(tracer, traced_wall, workload.name)
        os.makedirs(TRACE_DIR, exist_ok=True)
        tracer.write_jsonl(
            os.path.join(TRACE_DIR, f"trace-{workload.name}-seed{args.seed}.jsonl"),
            {"workload": workload.name, "seed": args.seed,
             "seed_applies": workload.seed_applies, "grid": args.grid,
             "counts": dict(tracer.counts)})
    else:
        loop.for_seconds(args.seconds, probes)
        metrics = end_to_end(loop)
        units = END_TO_END
    print(f"conebench: host probe median {statistics.median(probes):.6f} s "
          f"(min {min(probes):.6f}, max {max(probes):.6f}); round walls "
          f"{' '.join(f'{w:.3f}' for w in loop.walls)} s", file=sys.stderr)

    failed = loop.ok.count(False)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(loop.ok),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
