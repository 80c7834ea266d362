"""Command-line front end.

Subcommands: norm, hardy, split, cz, kfunc, extend, restrict, pierre,
density, counterexample, verify-all.  Reports are CSV files plus one summary
JSON under the configured output directory; identical configurations produce
byte-identical outputs.  Exit codes: 0 all checks passed, 1 some check
failed, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import acceptance, czd, density, extension
from .config import ConfigError, RunConfig, load_config
from .fieldlib import (make_test_field, suite_cz, suite_extension_members,
                       suite_fullplane, suite_hardy)
from .fields import (GATE_DECADES, cap_mean, decade_radii, hardy_rows,
                     log_log_increment_slope, lp_norm, partial_norm_power_table,
                     radial_split, save_field)
from .geometry import ConeDomain
from .grids import PolarGrid
from .report import write_csv, write_json

def _suite(name: str, grid):
    if name == "hardy":
        return suite_hardy(grid)
    if name == "cz":
        return suite_cz(grid)
    if name == "radial":
        return [make_test_field("radial_exp", grid),
                make_test_field("radial_power", grid, a=0.0),
                make_test_field("radial_power", grid, a=0.5),
                make_test_field("radial_power", grid, a=2.0)]
    raise ConfigError(f"unknown suite {name!r}")


def cmd_norm(cfg: RunConfig, args) -> int:
    grid = cfg.grid()
    rows = []
    for f in _suite(args.suite, grid):
        for p in cfg.p_list:
            w1p = extension.wp_norm(f, p)
            rows.append({"field": f.name, "p": p, "lp": lp_norm(f, p), "w1p": w1p,
                         "w1p_weighted": w1p + lp_norm(f, p, weight="inv_r")})
    write_csv(os.path.join(cfg.out_dir, "norms.csv"), rows,
              ["field", "p", "lp", "w1p", "w1p_weighted"])
    return 0


def cmd_hardy(cfg: RunConfig, args) -> int:
    grid = cfg.grid()
    n, p = grid.n, float(args.p)
    if p >= n:
        print(f"the weighted bound needs p < n (got p={p}, n={n})",
              file=sys.stderr)
        return 2
    fields = _suite(args.suite, grid)
    try:
        rows = list(hardy_rows(fields, p))
    except ValueError as e:
        raise ConfigError(f"{e}; refine the grid (nr, r_min)") from e
    write_csv(os.path.join(cfg.out_dir, f"hardy_n{n}_p{p:g}.csv"), rows,
              ["field", "p", "quotient", "bound", "ok"])
    return 0 if all(r["ok"] for r in rows) else 1


def cmd_split(cfg: RunConfig, args) -> int:
    grid = cfg.grid()
    rows = []
    for f in _suite(args.suite, grid):
        sp = radial_split(f)
        resid = float(np.abs(cap_mean(sp.antiradial)).max())
        rows.append({"field": f.name,
                     "ring_mean_residual": resid,
                     "radial_l2": lp_norm(sp.radial, 2.0),
                     "antiradial_l2": lp_norm(sp.antiradial, 2.0),
                     "reconstruction_err": float(
                         np.abs(sp.radial.values + sp.antiradial.values
                                - f.values).max())})
    write_csv(os.path.join(cfg.out_dir, "split.csv"), rows,
              ["field", "ring_mean_residual", "radial_l2", "antiradial_l2",
               "reconstruction_err"])
    return 0


def _require_planar(cfg: RunConfig, command: str) -> None:
    """`command` works on planar (n = 2) grids only."""
    if cfg.n != 2:
        raise ConfigError(f"{command} needs a planar grid (n = 2), got n = {cfg.n}")


def _require_nonzero(f) -> None:
    """The level sweep and the K ratio are undefined on the zero field."""
    if not f.values.any():
        raise ConfigError(f"{f.name} vanishes on the grid's radii "
                          f"[{f.grid.r_min:.3g}, {f.grid.r_max:.3g}]; lower r_min")


def cmd_cz(cfg: RunConfig, args) -> int:
    _require_planar(cfg, "cz")
    grid = cfg.grid()
    kw = {}
    if args.field == "logcounter":
        kw["beta"] = args.beta
    elif args.field == "radial_power" and args.a is not None:
        kw["a"] = args.a
    f = make_test_field(args.field, grid, **kw)
    _require_nonzero(f)
    rows, ok = [], True
    try:
        for rep in czd.level_sweep(f, cfg.alpha_decades, cfg.alpha_points):
            res = rep.pop("decomposition")
            rows.append(rep)
            ok &= (rep["underline_disjoint"] and rep["plain_cover_exact"]
                   and rep["overline_meets_complement"])
            if args.dump_cover:
                cover = [{"x_r": r, "x_theta": t, "r_i": ri, "type": ty}
                         for r, t, ri, ty in res.cover_rows()]
                write_csv(os.path.join(cfg.out_dir,
                                       f"cover_{f.name}_a{rep['alpha']:.3e}.csv"),
                          cover, ["x_r", "x_theta", "r_i", "type"])
    except czd.DegenerateLevelError as e:
        raise ConfigError(f"alpha_decades = {cfg.alpha_decades} takes {e} on "
                          f"{f.name}; lower alpha_decades") from e
    write_csv(os.path.join(cfg.out_dir, f"cz_{f.name}.csv"), rows,
              ["alpha", "n_balls", "overlap_N", "rec_err", "eg_ratio",
               "eb_ratio", "eB_ratio"])
    return 0 if ok else 1


def cmd_kfunc(cfg: RunConfig, args) -> int:
    _require_planar(cfg, "kfunc")
    grid = cfg.grid()
    fields = suite_cz(grid)
    for f in fields:        # refuse before any file is written
        _require_nonzero(f)
    for f in fields:
        rows = list(czd.k_band(f, cfg.t_lo, cfg.t_hi, cfg.t_points))
        write_csv(os.path.join(cfg.out_dir, f"kfunc_{f.name}.csv"), rows,
                  ["t", "K_estimate", "K_upper_cz", "ratio"])
    return 0


def cmd_extend(cfg: RunConfig, args) -> int:
    _require_planar(cfg, "extend")
    grid = cfg.grid()
    if max(cfg.p_list) >= grid.n and len(decade_radii(grid)) <= GATE_DECADES:
        raise ConfigError(
            f"r_min = {grid.r_min:.3g} leaves fewer than {GATE_DECADES + 1} decades "
            f"below r_max for the membership gate at p >= {grid.n}; lower r_min")
    members = list(suite_extension_members(grid, cfg.p_list))
    rows = []
    for row in extension.operator_norm_report(
            ((p, [f for f, held in members if p in held]) for p in cfg.p_list),
            PolarGrid.fullplane_matching(grid)):
        Ef = row.pop("extended")
        if args.dump_fields and Ef is not None:
            save_field(Ef, os.path.join(
                cfg.out_dir, f"extended_{row['field']}_p{row['p']:g}.txt"))
        rows.append(row)
    write_csv(os.path.join(cfg.out_dir, "extension.csv"), rows,
              ["field", "p", "source_norm", "target_norm", "ratio",
               "roundtrip_err", "gate"])
    write_json(os.path.join(cfg.out_dir, "extension_meta.json"),
               {"sphere_measure_ratio": grid.domain.sphere_measure_ratio(),
                "enlargement": extension.cone_map_for(grid).enlargement})
    return 0


def cmd_restrict(cfg: RunConfig, args) -> int:
    _require_planar(cfg, "restrict")
    grid = cfg.grid()
    full = PolarGrid.fullplane_matching(grid)
    rows = [extension.restriction_antiradial_ratio(F, grid)
            for F in suite_fullplane(full)]
    write_csv(os.path.join(cfg.out_dir, "restriction.csv"), rows,
              ["field", "anti_norm", "grad_norm", "ratio"])
    return 0


def cmd_pierre(cfg: RunConfig, args) -> int:
    _require_planar(cfg, "pierre")
    dom = ConeDomain(2, math.pi / 4, "quadrant")
    grid = PolarGrid.cone(dom, nr=cfg.nr, nt=cfg.nt, r_max=min(cfg.r_max, 4.0),
                          r_min=1e-7 * min(cfg.r_max, 4.0))
    fields = [make_test_field(name, grid) for name in
              ("radial_exp", "angular_bump", "lipschitz_compact", "jump")]
    # the explicit formula has no membership gate: every input is accepted
    rows = [{**row, "gate": "accepted"} for row in extension.quadrant_report(
        fields, cfg.p_list, PolarGrid.fullplane_matching(grid))]
    write_csv(os.path.join(cfg.out_dir, "pierre.csv"), rows,
              ["field", "p", "source_norm", "target_norm", "ratio",
               "roundtrip_err", "gate"])
    return 0


def cmd_density(cfg: RunConfig, args) -> int:
    grid = cfg.grid()
    if min(cfg.eps_list) / 2.0 <= grid.r_min:
        raise ConfigError(
            f"eps_list goes down to {min(cfg.eps_list):g}, which the grid does not "
            f"resolve (eps/2 <= r_min = {grid.r_min:.3g}); raise eps_list or lower r_min")
    f = make_test_field(args.field, grid)
    mode = args.mode
    rows = density.convergence_table(
        f, float(args.p), mode, cfg.eps_list,
        cfg.k_list if mode == "corrected" else None)
    write_csv(os.path.join(cfg.out_dir, f"density_{f.name}_{mode}.csv"), rows,
              ["eps", "k", "l_p_err", "grad_err", "trend"]
              if mode == "corrected" else ["eps", "l_p_err", "grad_err", "trend"])
    return 0


def cmd_counterexample(cfg: RunConfig, args) -> int:
    _require_planar(cfg, "counterexample")
    shallow = (f"r_max = {cfg.r_max:g} leaves too few decades above r_min = 1e-12 "
               f"to fit the vertex tail; raise r_max")
    if not cfg.r_max > 1e-12:
        raise ConfigError(shallow)
    dom = ConeDomain(2, cfg.omega)
    grid = PolarGrid.cone(dom, nr=cfg.nr, nt=cfg.nt, r_max=cfg.r_max,
                          r_min=1e-12)
    beta = float(args.beta)
    f = make_test_field("logcounter", grid, beta=beta)
    r_mins, P = partial_norm_power_table(f.values, grid, 2.0)
    rows = [{"r_min": float(r), "partial_weighted_sq": float(v)}
            for r, v in zip(r_mins, P)]
    if len(P) < 2:
        raise ConfigError(shallow)
    out = {"beta": beta, "expected_slope": 1.0 - 2.0 * beta}
    if beta < 0.5:
        try:
            out["measured_slope"] = log_log_increment_slope(r_mins, P)
        except ValueError as e:
            raise ConfigError(f"{shallow} ({e})") from e
    else:
        out["last_decade_increment"] = float((P[-1] - P[-2]) / P[-2])
    write_csv(os.path.join(cfg.out_dir, f"counterexample_b{beta:g}.csv"),
              rows, ["r_min", "partial_weighted_sq"])
    write_json(os.path.join(cfg.out_dir, f"counterexample_b{beta:g}.json"), out)
    print(" ".join(f"{k}={v}" for k, v in out.items()))
    return 0


def cmd_verify_all(cfg: RunConfig, args) -> int:
    only = args.checks.split(",") if args.checks else None
    if only:
        unknown = set(only) - set(acceptance.CHECKS)
        if unknown:
            print(f"unknown checks: {sorted(unknown)}", file=sys.stderr)
            return 2

    def progress(res):
        status = "PASS" if res.passed else "FAIL"
        share, lim = res.closest()
        print(f"[{status}] {res.check_id} ({res.runtime:.1f}s) closest: "
              f"{lim.text()} at {share:.4g}", flush=True)

    report = acceptance.run_all(cfg, only=only, progress=progress)
    write_json(os.path.join(cfg.out_dir, "verify_all.json"), report.summary())
    write_csv(os.path.join(cfg.out_dir, "verify_all.csv"),
              [r.row() for r in report.results])
    print(f"{len(report.results)} checks, "
          f"{sum(not r.passed for r in report.results)} failed")
    return 0 if report.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="conelab",
        description="Numerical laboratory for Sobolev analysis on double cones")
    ap.add_argument("--config", help="JSON configuration file")
    ap.add_argument("--out", help="output directory override")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        return p

    p = add("norm", cmd_norm, help="norm tables over a suite")
    p.add_argument("--suite", default="hardy")
    p = add("hardy", cmd_hardy, help="weighted-gradient quotients")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--suite", default="hardy")
    p = add("split", cmd_split, help="radial/anti-radial split diagnostics")
    p.add_argument("--suite", default="hardy")
    p = add("cz", cmd_cz, help="Calderon-Zygmund decomposition sweep")
    p.add_argument("--field", default="logcounter")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--dump-cover", action="store_true")
    add("kfunc", cmd_kfunc, help="K-functional tables")
    p = add("extend", cmd_extend, help="extension operator report")
    p.add_argument("--dump-fields", action="store_true")
    add("restrict", cmd_restrict, help="restriction chain report")
    add("pierre", cmd_pierre, help="explicit quadrant-cone extension report")
    p = add("density", cmd_density, help="approximation convergence tables")
    p.add_argument("--field", default="lipschitz_compact")
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--mode", choices=("plain", "corrected"), default="plain")
    p = add("counterexample", cmd_counterexample,
            help="critical-exponent divergence table")
    p.add_argument("--beta", type=float, default=0.25)
    p = add("verify-all", cmd_verify_all, help="run the acceptance suite")
    p.add_argument("--checks", help="comma-separated subset of check ids")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.out:
            cfg.out_dir = args.out
        if getattr(args, "n", None) is not None:
            cfg = RunConfig(**{**cfg.as_dict(), "n": args.n})
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    try:
        return args.fn(cfg, args)
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
