"""The allocator policy that `import conelab` sets on glibc: freed
field-sized temporaries stay in the heap, so the next ones fault no pages."""

import platform
import resource

import numpy as np
import pytest

import conelab

GLIBC = platform.libc_ver()[0] == "glibc"


def _temporaries(rounds=16, shape=(1, 900, 576)):
    """Three field-sized temporaries per round, each freed before the next
    round; a field at 900x576 is about 4 MiB."""
    for _ in range(rounds):
        a = np.ones(shape)
        b = a * 2.0
        c = np.sqrt(b)
        del a, b, c


@pytest.mark.skipif(not GLIBC, reason="the policy is set on glibc only")
def test_freed_temporaries_fault_no_pages_again():
    _temporaries()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    _temporaries()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 1000


def test_import_does_nothing_off_glibc(monkeypatch):
    monkeypatch.setattr(platform, "libc_ver", lambda *a, **k: ("", ""))
    monkeypatch.setattr(conelab.ctypes, "CDLL", pytest.fail)
    conelab._keep_freed_pages()
