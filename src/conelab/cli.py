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
from .config import BOUNDS, ConfigError, RunConfig, load_config, require
from .fieldlib import (QUADRANT_MEMBERS, make_test_field, suite_cz,
                       suite_extension_members, suite_fullplane, suite_hardy)
from .fields import (GATE_DECADES, SLOPE_INCREMENTS, WEIGHTS, cap_mean,
                     critical_sweep, decade_radii, hardy_rows, lp_norm,
                     radial_split, ringed_tail_decades, samples, save_field)
from .geometry import ConeDomain
from .grids import PolarGrid
from .report import summary, write_csv, write_json

EXTENSION_COLUMNS = ("field", "p", "source_norm", "target_norm", "ratio",
                     "roundtrip_err", "gate")


def _suite(name: str, grid):
    if name == "hardy":
        return suite_hardy(grid)
    if name == "cz":
        return suite_cz(grid)
    if name == "radial":
        return (make_test_field(family, grid, **params) for family, params in
                (("radial_exp", {}), ("radial_power", {"a": 0.0}),
                 ("radial_power", {"a": 0.5}), ("radial_power", {"a": 2.0})))
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
    p = args.p
    require("--p", p, float, 1.0, cfg.n, "[)", "where the weighted bound holds")
    grid = cfg.grid()
    # each member is refused on its way to its quotient; nothing is written
    # before the last one
    rows = list(hardy_rows((_resolved(f, "hardy") for f in _suite(args.suite, grid)), p))
    write_csv(os.path.join(cfg.out_dir, f"hardy_n{grid.n}_p{p:g}.csv"), rows,
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


def _test_field(args, grid, **params):
    """The --field test field, refused if make_test_field does not know it."""
    try:
        return make_test_field(args.field, grid, **params)
    except ValueError as e:
        raise ConfigError(f"--field: {e}") from e


def _require_depth(grid, use: str, gate: bool, eps=None) -> None:
    """Refuse a grid too shallow for the membership gate (if `gate`) or the
    vertex cutoff at eps, naming r_min, the key that sets its inner radius."""
    if gate and len(decade_radii(grid)) <= GATE_DECADES:
        shortfall = (f"leaves the membership gate fewer than {GATE_DECADES + 1} "
                     "decades below r_max")
    elif eps is not None and eps / 2.0 <= grid.r_min:
        shortfall = f"does not resolve the vertex cutoff at eps = {eps:g}"
    else:
        return
    raise ConfigError(f"the innermost radius {grid.r_min:.3g} {shortfall} for {use}; "
                      "lower r_min")


def _resolved(f, use: str, key: str = "r_min"):
    """f, refused if it has no radial derivative (no Hardy quotient) on its
    grid: if it vanishes on the innermost ring, naming `key`, which sets that
    ring (r_max for a grid pinned at 1e-12 r_max), or if it is constant over
    the grid, naming r_max."""
    if not f.values[:, 0].any():
        raise ConfigError(f"{f.name} vanishes on the innermost radius "
                          f"{f.grid.r_min:.10g} of the n = {f.grid.n} grid, so it "
                          f"has no radial derivative for {use}; lower {key}")
    if (f.values == f.values[:, :1]).all():
        raise ConfigError(f"{f.name} is constant out to r_max = {f.grid.r_max:.10g}, "
                          f"so it has no radial derivative for {use}; raise r_max")
    return f


def _require_slope_fit(grid, use: str) -> None:
    """Refuse a deep grid too coarse or too short for the growth-slope fit."""
    if (k := ringed_tail_decades(grid)) < SLOPE_INCREMENTS:
        raise ConfigError(f"nr = {grid.nr} rings from r = 1e-12 to r_max = {grid.r_max:g} "
                          f"fall in {k} of the decades at or below 1e-4, fewer than the "
                          f"{SLOPE_INCREMENTS} {use}'s growth-slope fit needs; raise nr, "
                          f"or r_max if below 1e-7")


def _require_nonzero(f) -> None:
    """The level sweep and the K ratio are undefined on the zero field."""
    if not f.values.any():
        raise ConfigError(f"{f.name} vanishes on the grid's radii "
                          f"[{f.grid.r_min:.3g}, {f.grid.r_max:.3g}]; lower r_min")


def _require_bounded(f, flag: str) -> None:
    """Refuse a field whose |f|, |f|/r or |grad f| passes czd.MAX_SAMPLE,
    above which the sweep's squared estimates overflow, naming the flag that
    sets the field.  |f| is read first: a gradient of overflowed samples is
    not defined."""
    for w, family in zip(WEIGHTS, ("|f|", "|f|/r", "|grad f|")):
        if not (top := float(samples(f, w).max())) <= czd.MAX_SAMPLE:
            raise ConfigError(f"{flag} gives {f.name} a {family} of {top:.3g}, above "
                              f"the {czd.MAX_SAMPLE:g} whose square cz can hold")


# cz's field parameters: flag -> the one field that reads it
_CZ_PARAMS = {"beta": "logcounter", "a": "radial_power"}
# the interval of a flag that only needs to be finite
_FINITE = (float, -math.inf, math.inf, "()")


def cmd_cz(cfg: RunConfig, args) -> int:
    kw = {k: getattr(args, k) for k in _CZ_PARAMS if getattr(args, k) is not None}
    for k, v in kw.items():
        require(f"--{k}", v, *_FINITE)
        if args.field != _CZ_PARAMS[k]:
            raise ConfigError(f"--{k} applies to --field {_CZ_PARAMS[k]} only, "
                              f"not {args.field}")
    grid = cfg.grid()
    f = _test_field(args, grid, **kw)
    _require_nonzero(f)
    _require_bounded(f, " ".join(f"--{k} = {v:g}" for k, v in kw.items()) or "--field")
    rows, ok = [], True
    try:
        for rep in czd.level_sweep(f, cfg.alpha_decades, cfg.alpha_points):
            res = rep.pop("decomposition")
            rows.append(rep)
            ok &= all(rep[k] for k in czd.SET_PROPERTIES)
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
    grid = cfg.grid()
    for f in suite_cz(grid):    # refuse before any file is written
        _require_nonzero(f)
    for f in suite_cz(grid):
        rows = list(czd.k_band(f, cfg.t_lo, cfg.t_hi, cfg.t_points))
        write_csv(os.path.join(cfg.out_dir, f"kfunc_{f.name}.csv"), rows,
                  ["t", "K_estimate", "K_upper_cz", "ratio"])
    return 0


def cmd_extend(cfg: RunConfig, args) -> int:
    grid = cfg.grid()
    _require_depth(grid, f"p >= {grid.n}", gate=max(cfg.p_list) >= grid.n)
    full = PolarGrid.fullplane(grid)
    rows = []
    for row in extension.extension_rows(
            suite_extension_members(grid, cfg.p_list),
            lambda f, p: extension.extend(f, p, full)):
        Ef = row.pop("extended")
        if args.dump_fields and Ef is not None:
            save_field(Ef, os.path.join(
                cfg.out_dir, f"extended_{row['field']}_p{row['p']:g}.txt"))
        rows.append(row)
    rows.sort(key=lambda row: cfg.p_list.index(row["p"]))    # p-major, stable
    write_csv(os.path.join(cfg.out_dir, "extension.csv"), rows, EXTENSION_COLUMNS)
    write_json(os.path.join(cfg.out_dir, "extension_meta.json"),
               {"sphere_measure_ratio": grid.domain.sphere_measure_ratio(),
                "enlargement": extension.cone_map_for(grid).enlargement})
    return 0


def cmd_restrict(cfg: RunConfig, args) -> int:
    grid = cfg.grid()
    full = PolarGrid.fullplane(grid)
    rows = [extension.restriction_antiradial_ratio(F, grid)
            for F in suite_fullplane(full)]
    write_csv(os.path.join(cfg.out_dir, "restriction.csv"), rows,
              ["field", "anti_norm", "grad_norm", "ratio"])
    return 0


def cmd_pierre(cfg: RunConfig, args) -> int:
    dom = ConeDomain(2, math.pi / 4, "quadrant")
    grid = PolarGrid.cone(dom, nr=cfg.nr, nt=cfg.nt, r_max=min(cfg.r_max, 4.0),
                          r_min=1e-7 * min(cfg.r_max, 4.0))
    full = PolarGrid.fullplane(grid)
    rows = []
    for row in extension.extension_rows(
            suite_extension_members(grid, cfg.p_list, QUADRANT_MEMBERS),
            lambda f, p: extension.extend_pierre_2d(f, full)):
        del row["extended"]     # which would outlive its member
        rows.append(row)
    write_csv(os.path.join(cfg.out_dir, "pierre.csv"), rows, EXTENSION_COLUMNS)
    return 0


def cmd_density(cfg: RunConfig, args) -> int:
    p = args.p
    require("--p", p, float, *BOUNDS["p_list"][1:])
    grid = cfg.grid()
    _require_depth(grid, "density's eps_list", gate=False, eps=min(cfg.eps_list))
    f = _test_field(args, grid)
    mode = args.mode
    rows = density.convergence_table(
        f, p, cfg.eps_list, cfg.k_list if mode == "corrected" else None)
    write_csv(os.path.join(cfg.out_dir, f"density_{f.name}_{mode}.csv"), rows,
              ["eps", "k", "l_p_err", "grad_err", "trend"]
              if mode == "corrected" else ["eps", "l_p_err", "grad_err", "trend"])
    return 0


def cmd_counterexample(cfg: RunConfig, args) -> int:
    require("--beta", args.beta, *_FINITE)
    grid = acceptance.AcceptanceContext(cfg).grid_deep
    _require_slope_fit(grid, "counterexample")
    try:
        _, (r_mins, P), out = next(critical_sweep(grid, (args.beta,)))
    except OverflowError as e:
        raise ConfigError(f"--beta = {args.beta:g}: {e}") from e
    rows = [{"r_min": float(r), "partial_weighted_sq": float(v)}
            for r, v in zip(r_mins, P)]
    write_csv(os.path.join(cfg.out_dir, f"counterexample_b{args.beta:g}.csv"),
              rows, ["r_min", "partial_weighted_sq"])
    write_json(os.path.join(cfg.out_dir, f"counterexample_b{args.beta:g}.json"), out)
    print(" ".join(f"{k}={v}" for k, v in out.items()))
    return 0


def cmd_verify_all(cfg: RunConfig, args) -> int:
    only = args.checks.split(",") if args.checks else None
    if unknown := set(only or ()) - set(acceptance.CHECKS):
        raise ConfigError(f"unknown checks: {sorted(unknown)}")
    # refuse, before any check runs, a grid that a check cannot read
    ctx = acceptance.AcceptanceContext(cfg)
    for c in only or acceptance.CHECKS:
        _require_depth(ctx.grid2, c, gate=c in acceptance.GATE_CHECKS,
                       eps=acceptance.CUTOFF_EPS.get(c))
        if c in acceptance.QUOTIENT_CHECKS:
            # the n = 3 grid starts at 1e-12 r_max, whatever r_min says
            for grid, key in ((ctx.grid3, "r_max"), (ctx.grid2, "r_min")):
                for f in suite_hardy(grid):
                    _resolved(f, c, key)
        if c in acceptance.SLOPE_CHECKS:
            _require_slope_fit(ctx.grid_deep, c)
    results = []
    for res in acceptance.run_all(ctx, only):
        share, lim = res.closest()
        print(f"[{'PASS' if res.passed else 'FAIL'}] {res.check_id} ({res.runtime:.1f}s) "
              f"closest: {lim.text()} at {share:.4g}", flush=True)
        results.append(res)
    out = summary(results)
    write_json(os.path.join(cfg.out_dir, "verify_all.json"), out)
    write_csv(os.path.join(cfg.out_dir, "verify_all.csv"), out["checks"])
    print(f"{out['n_checks']} checks, {out['n_failed']} failed")
    return 0 if out["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="conelab",
        description="Numerical laboratory for Sobolev analysis on double cones")
    ap.add_argument("--config", help="JSON configuration file")
    ap.add_argument("--out", help="output directory override")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, planar=False, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn, planar=planar)
        return p

    p = add("norm", cmd_norm, help="norm tables over a suite")
    p.add_argument("--suite", default="hardy")
    p = add("hardy", cmd_hardy, help="weighted-gradient quotients")
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--suite", default="hardy")
    p = add("split", cmd_split, help="radial/anti-radial split diagnostics")
    p.add_argument("--suite", default="hardy")
    p = add("cz", cmd_cz, planar=True, help="Calderon-Zygmund decomposition sweep")
    p.add_argument("--field", default="logcounter")
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--dump-cover", action="store_true")
    add("kfunc", cmd_kfunc, planar=True, help="K-functional tables")
    p = add("extend", cmd_extend, planar=True, help="extension operator report")
    p.add_argument("--dump-fields", action="store_true")
    add("restrict", cmd_restrict, planar=True, help="restriction chain report")
    add("pierre", cmd_pierre, planar=True, help="explicit quadrant-cone extension report")
    p = add("density", cmd_density, help="approximation convergence tables")
    p.add_argument("--field", default="lipschitz_compact")
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--mode", choices=("plain", "corrected"), default="plain")
    p = add("counterexample", cmd_counterexample, planar=True,
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
        if args.planar and cfg.n != 2:
            raise ConfigError(f"{args.command} needs a planar grid (n = 2), "
                              f"got n = {cfg.n}")
        return args.fn(cfg, args)
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
