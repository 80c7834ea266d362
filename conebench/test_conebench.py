"""Self-test of the benchmark on the small 220x48 grid.

    python3 -m pytest -q conebench

Checks that every metric BENCHMARK.json names is emitted with its unit, for
every workload, traced and untraced, and that the benchmark refuses to run
without the package sources.  Measured values are not checked: on the small
grid some acceptance bounds are expected to miss.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run(["--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--grid", "small"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert 0 <= result["failed"] <= result["attempted"]
    assert result["correct"] == (result["failed"] == 0)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"], m["name"]
        assert isinstance(emitted["value"], (int, float)), m["name"]


def test_unknown_workload_is_refused():
    proc = _run(["--workload", "nope", "--seed", "0", "--seconds", "1"])
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_refuses_without_package_sources():
    bare = os.path.join(ROOT, ".conebench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "conebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "conebench/run.py", "--workload", "tables",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
