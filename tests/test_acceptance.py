"""The acceptance gate: each of the thirteen criteria runs at the default
600x96 grid and its pinned tolerance, printing one PASS/FAIL line per
criterion.

Run with `pytest tests/test_acceptance.py -v -s` (or `conelab verify-all`).
"""

import pytest

from conelab import acceptance


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
