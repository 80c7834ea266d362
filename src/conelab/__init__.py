"""conelab: numerical Sobolev analysis on double cones.

Hardy-type inequalities, radial/anti-radial splits, the Poincare/doubling
law, Calderon-Zygmund decompositions, rearrangement K-functionals,
extension/restriction operators, and vertex approximation sequences, all
verified at desk scale on polar grids.
"""

import ctypes
import platform

from .config import RunConfig, load_config
from .fieldlib import make_test_field, suite_cz, suite_hardy
from .fields import (WEIGHTS, Field, RadialSplit, hardy_quotient, lp_norm,
                     poincare_ball_ratio, radial_split, samples)
from .geometry import (BilipschitzConeMap, ConeDomain, HomogeneousCutoff,
                       ball_measure, doubling_ratio)
from .grids import PolarGrid
from .rearrangement import (RearrangementTable, k_l1_linf, k_sobolev_estimate,
                            rearrange)

__version__ = "0.1.0"


def _keep_freed_pages():
    """Keep freed field-sized temporaries in the process heap (glibc only).

    By default glibc serves a block past its mmap threshold (128 KiB, raised
    to the largest mapped block freed so far) with a mapping of its own,
    unmaps it on free and trims a free heap top past twice that threshold,
    so the next temporary of the same size faults its pages in again: a
    steady conebench `tables` round took 125k-128k minor faults (0.5 GiB
    of pages against an 85 MB peak).  Here M_MMAP_THRESHOLD is set to 32 MiB
    (glibc's 64-bit maximum) and M_TRIM_THRESHOLD to 256 MiB, and a round
    takes at most a few faults.  Both are needed: setting either one
    freezes the dynamic mmap threshold at 128 KiB, and a round then measured
    395k-585k faults with the trim threshold alone and 415k-445k with the
    mmap threshold alone, slower than glibc's default.
    Allocation sizes and arithmetic are unchanged, so every result is bit
    for bit the same.  Elsewhere this does nothing."""
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt(-3, 32 << 20)    # M_MMAP_THRESHOLD
    mallopt(-1, 256 << 20)   # M_TRIM_THRESHOLD


_keep_freed_pages()
