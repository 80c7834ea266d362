"""The acceptance gate: each of the thirteen criteria runs at the default
600x96 grid and its pinned tolerance, printing one PASS/FAIL line per
criterion.

Run with `pytest tests/test_acceptance.py -v -s` (or `conelab verify-all`).
"""

import functools
import importlib.util
import json
import pathlib
import sys
import tracemalloc

import numpy as np
import pytest

from conelab import acceptance
from conelab.config import RunConfig
from conelab.geometry import ConeDomain
from conelab.grids import PolarGrid
from conelab.report import CheckResult, Limit, summary, write_json


@pytest.fixture(scope="module")
def results():
    lines, results = [], []
    for res in acceptance.run_all(acceptance.AcceptanceContext()):
        status = "PASS" if res.passed else "FAIL"
        line = f"[{status}] {res.check_id} ({res.runtime:.1f}s): {res.bound}"
        lines.append(line)
        print(line, flush=True)
        results.append(res)
    print("\n".join(lines))
    return results


@pytest.mark.parametrize("check_id", list(acceptance.CHECKS))
def test_acceptance_criterion(results, check_id):
    res = next(r for r in results if r.check_id == check_id)
    detail = ", ".join(f"{k}={v}" for k, v in res.measured.items())
    print(f"{'PASS' if res.passed else 'FAIL'} {check_id}: {detail}")
    assert res.passed, f"{check_id} failed: {detail}"


def test_every_criterion_ran(results):
    assert {r.check_id for r in results} == set(acceptance.CHECKS)


def test_benchmark_limits_match_the_records(results):
    # conebench restates the one-sided upper limits of its tables checks as
    # measured/limit functions; a change to either copy shows here
    path = pathlib.Path(__file__).resolve().parents[1] / "conebench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_conebench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    by_id = {r.check_id: r for r in results}
    for check_id, ratios in workloads.TABLE_UPPER_BOUNDS.items():
        res = by_id[check_id]
        records = [res.measured[lim.key] / lim.value for lim in res.limits
                   if lim.sense in ("<=", "<")]
        assert sorted(ratios(res.measured)) == sorted(records), check_id


def test_flag_records_are_json_booleans(results, tmp_path):
    # a numpy flag would reach verify_all.json through the default hook
    # as the string "True"
    write_json(str(tmp_path / "verify_all.json"), summary(results))
    rows = {row["check"]: row for row in
            json.loads((tmp_path / "verify_all.json").read_text())["checks"]}
    flags = [(r.check_id, lim.key) for r in results for lim in r.limits
             if lim.sense == "==" and isinstance(lim.value, bool)]
    assert ("rearrangement-laws", "distribution_bound_ok") in flags
    for check_id, key in flags:
        assert isinstance(rows[check_id][key], bool), (check_id, key)


class TestLimit:
    def test_senses(self):
        assert Limit("x", "<=", 2.0).holds(2.0)
        assert not Limit("x", "<", 2.0).holds(2.0)
        assert Limit("x", ">=", 0.5).holds(0.5)
        assert Limit("x", "==", "accept").holds("accept")
        assert not Limit("x", "==", True).holds(False)
        assert Limit("x", "+/-", 1.0, 0.25).holds(0.75)
        assert not Limit("x", "+/-", 1.0, 0.25).holds(1.3)
        assert Limit("x", "finite").holds(1e300)
        assert not Limit("x", "finite").holds(float("nan"))

    def test_shares(self):
        assert Limit("x", "<=", 4.0).share(3.0) == 0.75
        assert Limit("x", ">=", 0.5).share(2.0) == 0.25
        assert Limit("x", ">=", 0.5).share(0.0) == float("inf")
        assert Limit("x", "+/-", 1.0, 0.5).share(0.75) == 0.5
        assert Limit("x", "==", True).share(True) == 0.0
        assert Limit("x", "finite").share(float("inf")) == float("inf")

    @pytest.mark.parametrize("args", [("x", "~", 1.0), ("x", "<=", 1.0, 0.1),
                                      ("x", "+/-", 1.0)])
    def test_malformed_limit_refused(self, args):
        with pytest.raises(ValueError):
            Limit(*args)

    def test_result_follows_its_limits(self):
        res = CheckResult("demo", "two limits")
        res.put("err", 0.5, ("<=", 1.0))
        res.put("note", 7.0)
        res.put("slope", 0.9, ("+/-", 1.0, 0.2), (">=", 0.0))
        assert res.passed
        assert res.bound == "err <= 1, slope = 1 +/- 0.2, slope >= 0"
        share, lim = res.closest()
        assert (lim.key, lim.sense) == ("err", "<=") and share == 0.5
        assert list(res.row()) == ["check", "passed", "bound", "err", "note",
                                   "slope"]
        res.put("flag", False, ("==", True))
        assert not res.passed
        assert res.closest()[1].key == "flag"


# The traced peak of each streamed check on the CLI tests' SMALL grid, in
# bytes of the largest field it builds (on the named grid): one suite field
# with its caches at a time, plus one step's working arrays; for
# rearrangement-laws these are its table and one (steps, 8) array of f**'s
# panel terms, filled a block at a time (27 fields); for kfunc-equiv the K
# band's maximal functions and tables on one field.  A check that holds its whole suite
# reads 34, 87, 18 and 120.  The suites are built per call, so no field or
# cache outlives its check: after it returns, each holds at most one field.
PEAK_FIELDS = {"hardy-bound": ("grid2", 10), "rearrangement-laws": ("grid2", 29),
               "restriction-hhat": ("full2_fine", 10), "kfunc-equiv": ("grid2", 60)}
SMALL = RunConfig(nr=220, nt=48, r_min=4e-8)


def traced(check_id, ctx):
    """Run one check under tracemalloc: its result, and the bytes it still
    holds after returning and at its peak."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = acceptance.CHECKS[check_id](ctx)
        held, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    return res, held, peak


@functools.cache
def streamed_run(check_id):
    """One traced run of a streamed check on warm grids, with the bytes of
    one field of its grid; both tracing tests read it, so each streamed
    check is traced once."""
    ctx = acceptance.AcceptanceContext(SMALL)
    for grid in (ctx.grid2, ctx.grid3, ctx.full2, ctx.grid2_fine, ctx.full2_fine):
        grid.cell_measure
    np.polynomial    # numpy imports it on first use, which is no field
    grid_name = PEAK_FIELDS.get(check_id, ("grid2",))[0]
    field_bytes = 8 * np.prod(getattr(ctx, grid_name).shape)
    return (*traced(check_id, ctx), field_bytes)


@pytest.mark.parametrize("check_id", list(PEAK_FIELDS))
def test_streamed_checks_hold_one_field_at_a_time(check_id):
    res, held, peak, field_bytes = streamed_run(check_id)
    assert res.passed
    limit = PEAK_FIELDS[check_id][1]
    assert peak <= limit * field_bytes, f"{peak / field_bytes:.1f} fields"
    assert held <= field_bytes, f"{held / field_bytes:.1f} fields held"


def test_extension_roundtrip_peak():
    # the tallest table-check peak, in grid2 fields: a member's coarse and
    # fine fields and extensions, each caching one |grad f| array (34
    # fields).  SMALL is too shallow for the membership gate, which refuses
    # one exponent here.
    res, held, peak, field_bytes = streamed_run("extension-roundtrip")
    assert res.measured["refused_exponents"] == 1
    assert peak <= 36 * field_bytes, f"{peak / field_bytes:.1f} fields"
    assert held <= field_bytes, f"{held / field_bytes:.1f} fields held"


@pytest.mark.parametrize("check_id", ["cz-prop41", "kfunc-equiv"])
def test_checks_drop_their_fields_on_return(check_id):
    # the suites are built per call, so no field or cache outlives its check
    if check_id in PEAK_FIELDS:
        _, held, _, field_bytes = streamed_run(check_id)
    else:
        ctx = acceptance.AcceptanceContext(SMALL)
        ctx.grid2.cell_measure
        field_bytes = 8 * np.prod(ctx.grid2.shape)
        held = traced(check_id, ctx)[1]    # cz-prop41 fails on this grid
    assert held <= field_bytes, f"{held / field_bytes:.1f} fields"


def test_cz_prop41_passes_at_220x48():
    # at the default r_min; its eg_variation read 7.19 while the partition
    # bump stopped at 2 underline radii inside a blocking reach of 2.4
    ctx = acceptance.AcceptanceContext(RunConfig(nr=220, nt=48))
    res = acceptance.CHECKS["cz-prop41"](ctx)
    assert res.passed, res.measured


@pytest.mark.parametrize("config", [{"r_min": 1e-3},
                                    {"nr": 100, "r_min": 40 * 0.9**99},
                                    {"nr": 220, "nt": 48, "r_min": 4e-8}])
def test_fine_grid_refines_grid2(config):
    ctx = acceptance.AcceptanceContext(RunConfig(**config))
    g, fine = ctx.grid2, ctx.grid2_fine
    assert fine.r_min == pytest.approx(g.r_min, rel=1e-12)
    assert fine.r_max == g.r_max and fine.q > g.q


def test_fine_grid_radii_unchanged_at_the_defaults():
    ctx = acceptance.AcceptanceContext()
    plain = PolarGrid.cone(ConeDomain(2, ctx.cfg.omega), nr=900, nt=144, r_max=40.0)
    assert np.array_equal(ctx.grid2_fine.r, plain.r)
    assert np.array_equal(ctx.grid2_fine.r_edges, plain.r_edges)
