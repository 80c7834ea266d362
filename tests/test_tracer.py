"""The benchmark's tracer (conebench/tracing.py) wraps conelab functions and
methods by name from outside the package.  Installing and closing it here
makes a deleted or renamed traced name fail this suite at once, not only the
benchmark's own self-test."""

import os

import pytest

from conelab import ballops, czd, fields, grids

CONEBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "conebench")


@pytest.fixture()
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(CONEBENCH)
    import tracing
    return tracing


def _traced_names():
    return (fields.lp_norm, czd.decompose, czd.maximal_function,
            ballops.SheetBalls.__dict__["ball_rows"],
            grids.PolarGrid.__dict__["cone"], grids.PolarGrid.__dict__["fullplane"])


def test_tracer_installs_and_closes(tracing):
    before = _traced_names()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        during = _traced_names()
    finally:
        tracer.close()
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, _traced_names()))
