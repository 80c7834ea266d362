import csv
import json
import math
import os
import re
import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conelab import czd, extension
from conelab.cli import main
from conelab.config import (BOUNDS, MAX_CELLS, MAX_DECADES, MAX_NT, MAX_POINTS, MAX_R,
                            ConfigError, RunConfig, load_config)
from conelab.geometry import ConeDomain
from conelab.grids import PolarGrid
from conelab.report import write_csv, write_json

SMALL = {"nr": 220, "nt": 48, "r_min": 4e-8, "alpha_decades": 2,
         "alpha_points": 3, "t_points": 3, "eps_list": [1e-2, 1e-3],
         "k_list": [2, 4], "p_list": [1.0, 1.5]}
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SMALL))
    return str(path)


def _past_ends(lo, hi, ends, integer):
    """A value just past each finite end of an interval, and NaN."""
    for end, closed, step in ((lo, ends[0] == "[", -1), (hi, ends[1] == "]", 1)):
        if math.isfinite(end):
            if not closed:
                yield end
            else:
                yield end + step if integer else math.nextafter(end, step * math.inf)
    yield math.nan


class TestConfig:
    def test_defaults(self):
        cfg = load_config(None)
        assert cfg.nr == 600 and cfg.nt == 96
        assert cfg.omega == pytest.approx(math.pi / 4)

    def test_empty_file_means_defaults(self, tmp_path):
        p = tmp_path / "empty.json"
        p.write_text("")
        cfg = load_config(str(p))
        assert cfg.nr == 600

    def test_override(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"r_min": 1e-3, "nr": 100}))
        grid = load_config(str(p)).grid()
        assert grid.nr == 100 and grid.r_min == pytest.approx(1e-3)

    def test_bounds_hold_one_row_per_key(self):
        assert list(BOUNDS) == [f.name for f in fields(RunConfig)]

    def test_readme_names_every_key(self):
        # the sentence "Keys mirror `conelab.config.RunConfig`: ..." lists
        # each field once, and nothing else
        with open(README) as fh:
            sentence = re.search(r"Keys mirror `conelab\.config\.RunConfig`:(.*?)\.",
                                 fh.read(), re.S).group(1)
        names = re.findall(r"`(\w+)`", sentence)
        assert sorted(names) == sorted(f.name for f in fields(RunConfig))

    def test_q_migration_keeps_the_radii(self):
        # README: a {"q": q} config becomes {"r_min": r_max * q**(nr - 1)}
        old = 40.0 * 0.9 ** np.arange(99, -1, -1.0)
        new = RunConfig(nr=100, r_min=40.0 * 0.9 ** (100 - 1)).grid()
        assert np.array_equal(new.r, old)
        assert np.array_equal(new.r_edges[1:-1], np.sqrt(old[:-1] * old[1:]))

    def test_invalid_omega_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"omega": math.pi}))
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        for data in ({"bogus": 1}, {"tolerances": {"x": 1}}, {"suite": "cz"}):
            p.write_text(json.dumps(data))
            with pytest.raises(ConfigError):
                load_config(str(p))
            assert main(["--config", str(p), "--out", str(tmp_path / "o"),
                         "norm"]) == 2

    @pytest.mark.parametrize("data", [{"r_max": -1}, {"r_min": 100},
                                      {"p_list": [0.5]}, {"alpha_points": 1},
                                      {"r_min": 40.0}, {"r_min": -0.5}, {"r_min": 0},
                                      {"eps_list": [2.0]}, {"eps_list": [-0.1]},
                                      {"k_list": [0]}, {"k_list": [2, 0.5]},
                                      {"p_list": ["abc"]}, {"p_list": 5},
                                      {"p_list": [None]}, {"nt": 12.5},
                                      {"alpha_points": 2.5}, {"t_points": 7.0},
                                      {"alpha_points": 10**15},
                                      {"t_points": 10**15},
                                      {"r_min": 1e-200}, {"r_min": 1e-120},
                                      {"n": 3, "variant": "quadrant",
                                       "nr": 20, "nt": 8},
                                      {"alpha_decades": "x"},
                                      {"alpha_decades": -1},
                                      {"alpha_decades": 2.5},
                                      {"alpha_decades": True}, {"n": 0},
                                      {"k_list": [math.inf]}, {"k_list": [1e17]},
                                      {"p_list": [1, 3, 1.0]},
                                      # both below their floors: r_max's
                                      # line, read first, names r_min too
                                      {"r_min": 0, "r_max": 1e-300}])
    def test_out_of_range_exits_2(self, tmp_path, capsys, data):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(data))
        out = tmp_path / "o"
        assert main(["--config", str(p), "--out", str(out), "norm"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and next(iter(data)) in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("shape", [(MAX_CELLS // 1000 + 1, 1000),
                                       (MAX_CELLS // 3 + 1, 3)])
    def test_grid_above_the_cap_exits_2(self, tmp_path, capsys, shape):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"nr": shape[0], "nt": shape[1]}))
        out = tmp_path / "o"
        assert main(["--config", str(p), "--out", str(out), "norm"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "nr" in err[0] and "nt" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("data", [{"r_max": math.inf}, {"r_max": 1e300},
                                      {"t_hi": math.inf}, {"alpha_decades": 400}],
                             ids=["r_max-inf", "r_max-1e300", "t_hi-inf",
                                  "alpha_decades-400"])
    @pytest.mark.parametrize("command", [["norm"], ["hardy"], ["cz"], ["kfunc"],
                                         ["verify-all", "--checks", "poincare"]],
                             ids=lambda c: c[0])
    def test_non_finite_or_overflowing_value_exits_2(self, tmp_path, capsys, data,
                                                     command):
        # json writes inf as Infinity, which json.loads reads back
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"nr": 40, "nt": 8, **data}))
        out = tmp_path / "o"
        assert main(["--config", str(p), "--out", str(out)] + command) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and next(iter(data)) in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("command,entry,line", [
        # 10^400 lies in [1, inf] and (0, inf), as Python compares exactly
        ("norm", '"p_list": [1' + "0" * 400 + "]", "p_list must fit a double"),
        ("kfunc", '"t_hi": 1' + "0" * 400, "t_hi must fit a double"),
        # json.loads converts no integer of more than 4300 digits
        ("kfunc", '"t_hi": 1' + "0" * 5000, "config is not valid JSON")],
        ids=["p_list-1e400", "t_hi-1e400", "t_hi-1e5000"])
    def test_integer_past_a_double_exits_2(self, tmp_path, capsys, command, entry, line):
        p = tmp_path / "c.json"
        p.write_text('{"nr": 20, "nt": 8, ' + entry + "}")
        out = tmp_path / "o"
        assert main(["--config", str(p), "--out", str(out), command]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and line in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("command,key", [("kfunc", "t_points"),
                                             ("cz", "alpha_points")])
    def test_point_count_past_its_ceiling_exits_2(self, tmp_path, capsys, command,
                                                   key):
        # 10^15 points would not even allocate their levels
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"nr": 20, "nt": 8, key: 10**15}))
        out = tmp_path / "o"
        assert main(["--config", str(p), "--out", str(out), command]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].endswith(
            f"{key} must lie in [2, {MAX_POINTS}], the points a sweep can "
            f"decompose, got {10**15}")
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [
        (key, value) for key, (kind, *rule) in BOUNDS.items() if len(rule) > 2
        for value in _past_ends(*rule[:3], kind is int)]
        + [("r_min", RunConfig.r_max)],     # r_min's end at r_max, a cross-key rule
        ids=lambda v: str(v))
    def test_just_past_each_bound_exits_2(self, tmp_path, capsys, key, value):
        self._refused(tmp_path, capsys, key, value)

    @pytest.mark.parametrize("key,value", [
        (key, value) for key, (kind, *_) in BOUNDS.items()
        for value in ((5,) if kind is str else ("1", True))],
        ids=lambda v: str(v))
    def test_wrong_type_exits_2(self, tmp_path, capsys, key, value):
        # a bool is never a number, nor a number a string
        self._refused(tmp_path, capsys, key, value)

    @staticmethod
    def _refused(tmp_path, capsys, key, value):
        p = tmp_path / "c.json"
        entry = [value] if isinstance(BOUNDS[key][0], list) else value
        p.write_text(json.dumps({"nr": 20, "nt": 8, key: entry}))
        out = tmp_path / "o"
        assert main(["--config", str(p), "--out", str(out), "norm"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and key in err[0]
        assert not out.exists()

    def test_ceilings_are_admitted(self):
        cfg = RunConfig(r_max=MAX_R, alpha_decades=MAX_DECADES,
                        alpha_points=MAX_POINTS, t_points=MAX_POINTS)
        assert cfg.grid().radial_weight[-1] < math.inf

    def test_wide_grid_past_the_nt_ceiling_exits_2(self, tmp_path, capsys):
        # 1,000,000 cells, at the cap, but an nt x nt cosine table of 74.5 GiB
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"nr": 10, "nt": 100000}))
        out = tmp_path / "o"
        assert main(["--config", str(p), "--out", str(out), "cz"]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            f"configuration error: nt must lie in [3, {MAX_NT}], the columns "
            "whose cosine table fits 128 MiB, got 100000"]
        assert not out.exists()

    def test_grid_at_the_cap_is_admitted(self):
        assert RunConfig(nr=MAX_CELLS // 1000, nt=1000).nr * 1000 == MAX_CELLS

    def test_q_is_an_unknown_key_exits_2(self, tmp_path, capsys):
        # r_min is the one key for the innermost radius
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"nr": 100, "q": 0.9}))
        out = tmp_path / "o"
        assert main(["--config", str(p), "--out", str(out), "norm"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["configuration error: unknown config keys: ['q']"]
        assert not out.exists()

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/path.json")

    def test_infinity_exponent(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"p_list": [1, "inf"]}))
        cfg = load_config(str(p))
        assert cfg.p_list[-1] == float("inf")


class TestCommands:
    def test_hardy_exit_zero(self, tmp_path, small_config):
        out = tmp_path / "out"
        rc = main(["--config", small_config, "--out", str(out),
                   "hardy", "--p", "1", "--suite", "radial"])
        assert rc == 0
        text = (out / "hardy_n2_p1.csv").read_text()
        assert text.splitlines()[0] == "field,p,quotient,bound,ok"
        assert all(ln.endswith("True") for ln in text.splitlines()[1:])

    def test_hardy_rejects_critical_exponent(self, tmp_path, small_config):
        rc = main(["--config", small_config, "--out", str(tmp_path / "o"),
                   "hardy", "--p", "2"])
        assert rc == 2

    @pytest.mark.parametrize("command", [["density"],
                                         ["density", "--mode", "corrected"],
                                         ["extend"]])
    def test_shallow_grid_exits_2(self, tmp_path, capsys, command):
        # the refusal names the key that sets the inner radius
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({"nr": 20, "nt": 8, "r_min": 0.1}))
        out = tmp_path / "o"
        assert main(["--config", str(cfgp), "--out", str(out)] + command) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].endswith("lower r_min")
        assert command[0] == "extend" or "eps_list" in err[0]
        assert not out.exists()

    # traced peak of a command at SMALL, in fields of its 220 x 48 grid: the
    # extension suites and the radial suite hold one member at a time
    PEAK_FIELDS = {"extend": 50, "extend --dump-fields": 45, "pierre": 30,
                   "hardy --suite radial": 10}

    @pytest.mark.parametrize("command", list(PEAK_FIELDS))
    def test_streamed_commands_hold_one_member_at_a_time(self, tmp_path, small_config,
                                                         command):
        field_bytes = 8 * 2 * SMALL["nr"] * SMALL["nt"]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert main(["--config", small_config, "--out", str(tmp_path / "o")]
                        + command.split()) == 0
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        limit = self.PEAK_FIELDS[command]
        assert peak <= limit * field_bytes, f"{peak / field_bytes:.1f} fields"

    def test_determinism(self, tmp_path, small_config):
        commands = (["hardy", "--p", "1", "--suite", "radial"],
                    ["verify-all", "--checks", "hardy-bound,pierre-2d"],
                    ["extend", "--dump-fields"])
        runs = []
        for d in ("a", "b"):
            out = tmp_path / d
            for cmd in commands:
                main(["--config", small_config, "--out", str(out)] + cmd)
            runs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert "verify_all.csv" in runs[0]
        assert any(name.startswith("extended_") for name in runs[0])
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("command", ["cz", "kfunc", "extend", "restrict",
                                         "pierre", "counterexample"])
    def test_planar_commands_refuse_n3(self, tmp_path, capsys, command):
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({**SMALL, "n": 3}))
        assert main(["--config", str(cfgp), "--out", str(tmp_path / "o"),
                     command]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "n = 2" in err[0]

    def test_norm_and_split(self, tmp_path, small_config):
        out = tmp_path / "out"
        assert main(["--config", small_config, "--out", str(out),
                     "norm", "--suite", "radial"]) == 0
        assert main(["--config", small_config, "--out", str(out),
                     "split", "--suite", "radial"]) == 0
        assert (out / "norms.csv").exists()
        assert (out / "split.csv").exists()

    def test_cz_command(self, tmp_path, small_config):
        out = tmp_path / "out"
        rc = main(["--config", small_config, "--out", str(out),
                   "cz", "--field", "logcounter", "--beta", "1.0",
                   "--dump-cover"])
        assert rc == 0
        csv = (out / "cz_logcounter(b=1).csv").read_text().splitlines()
        assert csv[0] == "alpha,n_balls,overlap_N,rec_err,eg_ratio,eb_ratio,eB_ratio"
        assert len(csv) == 4   # header + alpha_points rows
        covers = [p for p in os.listdir(out) if p.startswith("cover_")]
        assert covers
        head = (out / covers[0]).read_text().splitlines()[0]
        assert head == "x_r,x_theta,r_i,type"

    @pytest.mark.parametrize("prop", czd.SET_PROPERTIES)
    def test_cz_exits_1_when_a_set_property_fails(self, tmp_path, small_config,
                                                 monkeypatch, prop):
        real = czd.verify
        monkeypatch.setattr(czd, "verify", lambda res: {**real(res), prop: False})
        assert main(["--config", small_config, "--out", str(tmp_path / "o"),
                     "cz"]) == 1

    @pytest.mark.parametrize("field", ["angular_bump", "radial_power", "radial_exp"])
    def test_cz_sweep_below_maximal_minimum_exits_2(self, tmp_path, capsys, field):
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({"nr": 120, "nt": 24, "r_min": 4e-6}))
        out = tmp_path / "out"
        assert main(["--config", str(cfgp), "--out", str(out),
                     "cz", "--field", field, "--dump-cover"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "alpha_decades" in err[0]
        assert not out.exists()

    def test_density_command(self, tmp_path, small_config):
        out = tmp_path / "out"
        rc = main(["--config", small_config, "--out", str(out),
                   "density", "--field", "lipschitz_compact", "--p", "1",
                   "--mode", "plain"])
        assert rc == 0
        head = (out / "density_lipschitz_compact_plain.csv").read_text()
        assert head.splitlines()[0] == "eps,l_p_err,grad_err,trend"

    def test_counterexample_slope(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({"nr": 400, "nt": 32}))
        rc = main(["--config", str(cfgp), "--out", str(out),
                   "counterexample", "--beta", "0.25"])
        assert rc == 0
        data = json.loads((out / "counterexample_b0.25.json").read_text())
        assert abs(float(data["measured_slope"]) - 0.5) < 0.1

    def test_counterexample_matches_hardy_critical(self, tmp_path, small_config):
        # one sweep serves both: the command's slope and increment are the
        # check's measured values, bit for bit
        out = tmp_path / "out"
        for beta in ("0.25", "1"):
            assert main(["--config", small_config, "--out", str(out),
                         "counterexample", "--beta", beta]) == 0
        assert main(["--config", small_config, "--out", str(out),
                     "verify-all", "--checks", "hardy-critical"]) in (0, 1)
        measured = json.loads((out / "verify_all.json").read_text())["checks"][0]
        b025 = json.loads((out / "counterexample_b0.25.json").read_text())
        b1 = json.loads((out / "counterexample_b1.json").read_text())
        assert b025["measured_slope"] == measured["weighted_growth_slope_beta025"]
        assert b1["last_decade_increment"] == measured["weighted_last_decade_incr_beta1"]

    @pytest.mark.parametrize("command,name", [
        (["cz", "--field", "bogus"], "bogus"),
        (["density", "--field", "bogus"], "bogus"),
        (["hardy", "--p", "0.5"], "--p"),
        (["density", "--p", "0.5"], "--p")],
        ids=["cz-field", "density-field", "hardy-p", "density-p"])
    def test_unknown_field_or_exponent_below_1_exits_2(self, tmp_path, capsys,
                                                       small_config, command,
                                                       name):
        out = tmp_path / "o"
        assert main(["--config", small_config, "--out", str(out)] + command) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and name in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("command,flag", [
        (["hardy", "--p", repr(math.nextafter(1.0, 0.0))], "--p"),
        (["hardy", "--p", "2"], "--p"),
        (["hardy", "--p", "nan"], "--p"),
        (["density", "--p", repr(math.nextafter(1.0, 0.0))], "--p"),
        (["density", "--p", "nan"], "--p"),
        (["cz", "--beta=nan"], "--beta"),
        (["cz", "--beta=inf"], "--beta"),
        (["cz", "--field", "radial_power", "--a=nan"], "--a"),
        (["cz", "--field", "radial_power", "--a=-inf"], "--a"),
        (["counterexample", "--beta=nan"], "--beta"),
        (["counterexample", "--beta=-inf"], "--beta")],
        ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_just_past_each_flag_bound_exits_2(self, tmp_path, capsys, small_config,
                                               command, flag):
        # hardy's --p lies in [1, n), density's in p_list's [1, inf], and
        # cz's and counterexample's parameters are finite
        out = tmp_path / "o"
        assert main(["--config", small_config, "--out", str(out)] + command) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and flag in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("command,flag", [
        (["cz", "--field", "angular_bump", "--beta", "5"], "--beta"),
        (["cz", "--field", "logcounter", "--a", "0.3"], "--a"),
        (["cz", "--field", "radial_exp", "--a", "1"], "--a"),
        (["cz", "--beta=-130"], "--beta"),
        (["cz", "--field", "radial_power", "--a=-50"], "--a"),
        (["counterexample", "--beta=-130"], "--beta"),
        (["counterexample", "--beta=-160"], "--beta")],
        ids=["cz-beta-elsewhere", "cz-a-elsewhere", "cz-a-radial_exp",
             "cz-beta-square", "cz-a-square", "counterexample-130",
             "counterexample-160"])
    def test_field_parameter_refusals_exit_2(self, tmp_path, capsys, small_config,
                                             command, flag):
        # a flag the field does not read, or a parameter whose samples (cz's
        # squares, counterexample's partial integrals) overflow a double
        out = tmp_path / "o"
        assert main(["--config", small_config, "--out", str(out)] + command) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and flag in err[0]
        assert not out.exists()

    def test_counterexample_past_the_power_overflow(self, tmp_path, capsys,
                                                    small_config):
        # at beta = -100 the innermost rings' v^2 overflows while v^2 w fits
        out = tmp_path / "o"
        assert main(["--config", small_config, "--out", str(out),
                     "counterexample", "--beta=-100"]) == 0
        assert not capsys.readouterr().err
        cells = (out / "counterexample_b-100.csv").read_text().replace("\n", ",")
        assert "inf" not in cells.split(",")

    @pytest.mark.parametrize("r_max,beta", [(1e-10, "0.25"), (1e-11, "1"),
                                            (1e-13, "1")])
    def test_counterexample_shallow_r_max_exits_2(self, tmp_path, capsys,
                                                  r_max, beta):
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({"r_max": r_max, "nr": 40, "nt": 8}))
        out = tmp_path / "o"
        assert main(["--config", str(cfgp), "--out", str(out),
                     "counterexample", "--beta", beta]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "r_max" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("r_max", [1e-8, 1e100])
    @pytest.mark.parametrize("command", [["verify-all", "--checks", "hardy-critical"],
                                         ["counterexample"]], ids=lambda c: c[0])
    def test_deep_grid_too_coarse_for_the_slope_fit_exits_2(self, tmp_path, capsys,
                                                            r_max, command):
        # 40 rings from 1e-12 leave fewer than 3 decades at or below 1e-4
        # holding a ring: too few decades there (1e-8), or too few rings (1e100)
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({"r_max": r_max, "nr": 40, "nt": 8}))
        out = tmp_path / "o"
        assert main(["--config", str(cfgp), "--out", str(out)] + command) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "r_max" in err[0] and "nr" in err[0]
        assert not out.exists()

    def test_extend_and_restrict(self, tmp_path, small_config):
        out = tmp_path / "new" / "out"      # --dump-fields creates it
        assert main(["--config", small_config, "--out", str(out),
                     "extend", "--dump-fields"]) == 0
        assert any(p.name.startswith("extended_") for p in out.iterdir())
        head = (out / "extension.csv").read_text().splitlines()[0]
        assert head == ("field,p,source_norm,target_norm,ratio,"
                        "roundtrip_err,gate")
        assert main(["--config", small_config, "--out", str(out),
                     "restrict"]) == 0

    def test_extend_builds_each_field_once(self, tmp_path, monkeypatch):
        # the default p_list gives 21 rows of 7 distinct fields
        built = []
        real = extension._extended
        monkeypatch.setattr(extension, "_extended",
                            lambda f, full: built.append(f.name) or real(f, full))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({k: SMALL[k] for k in ("nr", "nt", "r_min")}))
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "extend"]) == 0
        with open(out / "extension.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 21 and all(r["gate"] == "accepted" for r in rows)
        assert len(built) == len(set(built)) == 7

    def test_pierre(self, tmp_path, small_config):
        out = tmp_path / "out"
        assert main(["--config", small_config, "--out", str(out),
                     "pierre"]) == 0
        assert (out / "pierre.csv").exists()

    def test_verify_all_subset(self, tmp_path, small_config):
        # both checks' bound texts hold commas
        out = tmp_path / "out"
        rc = main(["--out", str(out), "verify-all", "--checks",
                   "hardy-bound,hhat-gate"])
        assert rc == 0
        summary = json.loads((out / "verify_all.json").read_text())
        assert summary["passed"] is True and summary["n_checks"] == 2
        with open(out / "verify_all.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert [len(r) for r in rows] == [len(header)] * 2
        for row, check in zip(rows, summary["checks"]):
            assert "," in check["bound"]
            assert {k: row[header.index(k)] for k in check} == {
                k: repr(v) if isinstance(v, float) else str(v)
                for k, v in check.items()}

    @pytest.mark.parametrize("data,key,rule", [
        ({"r_min": 1e-3}, "r_min", "membership gate"),
        ({"r_min": 1e-5}, "r_min", "density-approx"),
        ({"r_min": 40 * 0.9**99, "nr": 100}, "r_min", "membership gate")])
    def test_verify_all_refuses_shallow_grid(self, tmp_path, capsys, data, key,
                                             rule):
        # refused before any check runs, naming the key that sets the
        # innermost radius
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps(data))
        out = tmp_path / "o"
        assert main(["--config", str(cfgp), "--out", str(out), "verify-all"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and rule in err[0] and err[0].endswith(f"lower {key}")
        assert not out.exists()

    @pytest.mark.parametrize("r_max", [1e-6, 0.25])
    @pytest.mark.parametrize("command", [["verify-all"], ["hardy"]])
    def test_r_max_inside_the_jump_plateau_exits_2(self, tmp_path, capsys, r_max,
                                                    command):
        # the jump field is constant for r <= 1/4: its Hardy quotient has no
        # denominator, so the grid is refused before any check runs
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({"r_max": r_max, "nr": 200, "nt": 48}))
        out = tmp_path / "o"
        assert main(["--config", str(cfgp), "--out", str(out)] + command) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].endswith("raise r_max")
        assert not out.exists()

    @pytest.mark.parametrize("config,key", [
        ({"r_min": 0.6}, "r_min"),
        # the n = 3 grid of hardy-bound starts at 1e-12 r_max = 1
        ({"nr": 40, "nt": 8, "r_max": 1e12}, "r_max"),
        # the cutoff underflows to 0 just below r = 1/2: quotients of rounding
        # noise, were the grid admitted
        ({"r_min": 0.4999999, "r_max": 0.5, "nr": 3, "nt": 8}, "r_min")])
    def test_inner_radius_past_the_hardy_support_exits_2(self, tmp_path, capsys,
                                                         config, key):
        # logcounter and jump vanish for r >= 1/2, so on a grid starting
        # there they have no radial derivative
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps(config))
        out = tmp_path / "o"
        argv = ["--config", str(cfgp), "--out", str(out)]
        assert main(argv + ["verify-all", "--checks", "hardy-bound"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].endswith(f"lower {key}")
        assert main(argv + ["hardy"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].endswith("lower r_min")
        assert not out.exists()

    @pytest.mark.parametrize("suite,config,ending", [
        ("nope", {"nr": 20, "nt": 8}, "unknown suite 'nope'"),
        # logcounter's cutoff rounds to 0 at the innermost ring: its
        # quotient would be one of rounding noise
        ("cz", {"r_min": 0.4999999, "r_max": 0.5, "nr": 3, "nt": 8}, "lower r_min"),
        # e^-r underflows to 0 on every ring
        ("radial", {"r_min": 1000, "r_max": 2000, "nr": 10, "nt": 8}, "lower r_min")])
    def test_hardy_refuses_each_suite_up_front(self, tmp_path, capsys, suite, config,
                                               ending):
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert main(["--config", str(cfgp), "--out", str(out),
                     "hardy", "--suite", suite]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].endswith(ending)
        assert suite != "radial" or not re.search("logcounter|jump", err[0])
        assert not out.exists()

    def test_hardy_radial_suite_past_r_one_half(self, tmp_path):
        # the radial suite holds no field that vanishes from r = 1/2 on
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({"r_min": 0.6, "nr": 10, "nt": 8}))
        assert main(["--config", str(cfgp), "--out", str(tmp_path / "o"),
                     "hardy", "--suite", "radial"]) == 0

    @pytest.mark.parametrize("r_min", [1e-100, 1e-5])
    def test_corners_of_the_inner_radius_floor_run_cleanly(self, tmp_path, r_min):
        # r_min at its floor, and far below r_max at r_max's ceiling: every
        # command ends in 0, 1 or 2, with no warning and no NaN in any file
        config = {"r_max": MAX_R, "r_min": r_min, "nr": 40, "nt": 8}
        RunConfig(**config)     # admitted
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps(config))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _run_every_command(cfgp, tmp_path / "out", [
                ["norm"], ["split"], ["hardy"], ["hardy", "--suite", "cz"], ["density"],
                ["density", "--mode", "corrected"], ["counterexample"], ["pierre"],
                ["restrict"], ["extend"], ["kfunc"], ["cz"], ["verify-all"]])

    def test_verify_all_builds_each_grid_once(self, tmp_path, small_config,
                                              monkeypatch):
        # the up-front refusals read the grids the checks read: hardy-bound's
        # planar and n = 3 grids, each built once
        built = []
        real = PolarGrid.cone
        monkeypatch.setattr(PolarGrid, "cone", staticmethod(
            lambda *a, **kw: built.append(a) or real(*a, **kw)))
        assert main(["--config", small_config, "--out", str(tmp_path / "o"),
                     "verify-all", "--checks", "hardy-bound"]) == 0
        assert len(built) == 2

    def test_verify_all_unknown_check(self, tmp_path):
        rc = main(["--out", str(tmp_path), "verify-all", "--checks", "nope"])
        assert rc == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as e:
            main(["frobnicate"])
        assert e.value.code == 2

    def test_bad_config_exits_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        rc = main(["--config", str(p), "--out", str(tmp_path), "norm"])
        assert rc == 2

    def test_kfunc_small(self, tmp_path):
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({"nr": 160, "nt": 24, "r_min": 4e-6,
                                    "t_lo": 0.1, "t_hi": 10.0, "t_points": 2}))
        out = tmp_path / "out"
        rc = main(["--config", str(cfgp), "--out", str(out), "kfunc"])
        assert rc == 0
        files = [p for p in os.listdir(out) if p.startswith("kfunc_")]
        assert len(files) == 5
        head = (out / files[0]).read_text().splitlines()[0]
        assert head == "t,K_estimate,K_upper_cz,ratio"

    @pytest.mark.parametrize("command", ["kfunc", "cz"])
    def test_vanishing_field_exits_2(self, tmp_path, capsys, command):
        # logcounter lives in r < 1/2: on [0.5, 40] it is the zero field
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({"nr": 20, "nt": 8, "r_min": 0.5}))
        out = tmp_path / "o"
        assert main(["--config", str(cfgp), "--out", str(out), command]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].endswith("lower r_min")
        assert not out.exists()


class TestReport:
    def test_write_csv_refuses_nan(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError):
            write_csv(str(path), [{"a": 1.0}, {"a": float("nan")}])
        assert not path.exists() and not list(tmp_path.iterdir())

    def test_write_json_refuses_nan(self, tmp_path):
        path = tmp_path / "t.json"
        with pytest.raises(ValueError):
            write_json(str(path), {"a": [1.0, {"b": (float("inf"), float("nan"))}]})
        assert not path.exists() and not list(tmp_path.iterdir())
        write_json(str(path), {"a": float("inf")})
        assert json.loads(path.read_text()) == {"a": float("inf")}

    def test_write_csv_keeps_infinity(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(str(path), [{"a": float("inf"), "b": "refused"}])
        assert path.read_text() == "a,b\ninf,refused\n"


def _run_every_command(cfgp, out, commands):
    """No traceback, an exit code of 0, 1 or 2, and no NaN in any CSV or JSON."""
    for command in commands:
        assert main(["--config", str(cfgp), "--out", str(out)] + command) in (0, 1, 2)
    for csv in (out.glob("*.csv") if out.exists() else []):
        cells = csv.read_text().replace("\n", ",").split(",")
        assert "nan" not in cells, csv.name

    for js in (out.glob("*.json") if out.exists() else []):
        def no_nan(constant):
            assert constant != "NaN", js.name
            return float(constant)
        json.loads(js.read_text(), parse_constant=no_nan)


_ranged = st.floats(-0.5, 1.5)
SMALL_CONFIGS = st.fixed_dictionaries(
    {"nr": st.integers(3, 40), "nt": st.integers(3, 16),
     "alpha_points": st.integers(2, 3), "t_points": st.integers(2, 3)},
    optional={"r_max": st.sampled_from([40.0, 1.0, 1e-4, 1e-10, 2e-12, 1e-12,
                                        MAX_R, math.inf, "40"]),
              "alpha_decades": st.integers(0, 8) | st.just(400),
              "t_lo": st.sampled_from([1e-6, 1e-3, 1.0, "1"]),
              "t_hi": st.sampled_from([1e-2, 1.0, 1e3, math.inf]),
              # r_min's floor, just past it, and NaN
              "r_min": st.sampled_from([1e-12, 1e-6, 1e-3, 0.5, 40.0, -1.0,
                                        BOUNDS["r_min"][1], math.nan,
                                        math.nextafter(BOUNDS["r_min"][1], 0.0)]),
              "omega": st.sampled_from([0.3, True]),
              "out_dir": st.sampled_from(["out", 5]),
              "p_list": st.lists(st.floats(0.5, 6.0) | st.just("inf"),
                                 max_size=3),
              "eps_list": st.lists(_ranged, max_size=3)})


@settings(max_examples=25, deadline=None)
@given(data=SMALL_CONFIGS, p=st.sampled_from(["0.5", "1", "1.5"]),
       mode=st.sampled_from(["plain", "corrected"]),
       beta=st.sampled_from(["0.25", "1", "nan", "inf", "-130"]),
       field=st.sampled_from(["logcounter", "radial_exp", "angular_bump",
                              "bogus"]))
def test_random_small_configs_exit_cleanly(tmp_path_factory, data, p, mode, beta,
                                           field):
    tmp = tmp_path_factory.mktemp("cfg")
    cfgp = tmp / "c.json"
    cfgp.write_text(json.dumps(data))
    _run_every_command(cfgp, tmp / "out", [
        ["norm"], ["split"], ["hardy", "--p", p],
        ["density", "--p", p, "--mode", mode],
        ["counterexample", "--beta=" + beta], ["pierre"], ["restrict"],
        ["extend"], ["kfunc"],
        ["cz", "--field", field] + (["--beta=" + beta] if field == "logcounter" else []),
        ["verify-all", "--checks", "hardy-critical"]])
