"""The acceptance gate: each of the thirteen criteria runs at the default
600x96 grid and its pinned tolerance, printing one PASS/FAIL line per
criterion.

Run with `pytest tests/test_acceptance.py -v -s` (or `conelab verify-all`).
"""

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
from conelab.report import CheckResult, Limit, write_json


@pytest.fixture(scope="module")
def report():
    lines = []

    def progress(res):
        status = "PASS" if res.passed else "FAIL"
        line = f"[{status}] {res.check_id} ({res.runtime:.1f}s): {res.bound}"
        lines.append(line)
        print(line, flush=True)

    rep = acceptance.run_all(progress=progress)
    print("\n".join(lines))
    return rep


@pytest.mark.parametrize("check_id", list(acceptance.CHECKS))
def test_acceptance_criterion(report, check_id):
    res = next(r for r in report.results if r.check_id == check_id)
    detail = ", ".join(f"{k}={v}" for k, v in res.measured.items())
    print(f"{'PASS' if res.passed else 'FAIL'} {check_id}: {detail}")
    assert res.passed, f"{check_id} failed: {detail}"


def test_every_criterion_ran(report):
    assert {r.check_id for r in report.results} == set(acceptance.CHECKS)


def test_benchmark_limits_match_the_records(report):
    # conebench restates the one-sided upper limits of its tables checks as
    # measured/limit functions; a change to either copy shows here
    path = pathlib.Path(__file__).resolve().parents[1] / "conebench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_conebench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    results = {r.check_id: r for r in report.results}
    for check_id, ratios in workloads.TABLE_UPPER_BOUNDS.items():
        res = results[check_id]
        records = [res.measured[lim.key] / lim.value for lim in res.limits
                   if lim.sense in ("<=", "<")]
        assert sorted(ratios(res.measured)) == sorted(records), check_id


def test_flag_records_are_json_booleans(report, tmp_path):
    # a numpy flag would reach verify_all.json through the default hook
    # as the string "True"
    write_json(str(tmp_path / "verify_all.json"), report.summary())
    rows = {row["check"]: row for row in
            json.loads((tmp_path / "verify_all.json").read_text())["checks"]}
    flags = [(r.check_id, lim.key) for r in report.results for lim in r.limits
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
# rearrangement-laws these are f**'s node arrays, 8 samples per sample;
# for kfunc-equiv the K band's maximal functions and tables on one field.
# A check that holds its whole suite reads 34, 87, 18 and 120.
PEAK_FIELDS = {"hardy-bound": ("grid2", 10), "rearrangement-laws": ("grid2", 56),
               "restriction-hhat": ("full2_fine", 10), "kfunc-equiv": ("grid2", 60)}


@pytest.mark.parametrize("check_id", list(PEAK_FIELDS))
def test_streamed_checks_hold_one_field_at_a_time(check_id):
    ctx = acceptance.AcceptanceContext(RunConfig(nr=220, nt=48, r_min=4e-8))
    for grid in (ctx.grid2, ctx.grid3, ctx.full2, ctx.grid2_fine, ctx.full2_fine):
        grid.cell_measure
    grid_name, limit = PEAK_FIELDS[check_id]
    field_bytes = 8 * np.prod(getattr(ctx, grid_name).shape)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert acceptance.CHECKS[check_id](ctx).passed
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= limit * field_bytes, f"{peak / field_bytes:.1f} fields"


@pytest.mark.parametrize("check_id", ["cz-prop41", "kfunc-equiv"])
def test_checks_drop_their_fields_on_return(check_id):
    # the suites are built per call, so no field or cache outlives its check
    ctx = acceptance.AcceptanceContext(RunConfig(nr=220, nt=48, r_min=4e-8))
    ctx.grid2.cell_measure
    field_bytes = 8 * np.prod(ctx.grid2.shape)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        acceptance.CHECKS[check_id](ctx)    # cz-prop41 fails on this grid
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held <= field_bytes, f"{held / field_bytes:.1f} fields"


@pytest.mark.parametrize("config", [{"r_min": 1e-3}, {"nr": 100, "q": 0.9},
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
