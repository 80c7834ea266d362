"""Smooth cutoff profiles shared by cutoffs and partitions of unity.

All cutoffs in this package are built from one fixed quintic smoothstep so
that results are reproducible: any C^1 profile with the right support works
for the inequalities being measured, but a single choice must be pinned.
"""

from __future__ import annotations

import numpy as np


def smoothstep(t):
    """Quintic smoothstep: 0 for t<=0, 1 for t>=1, 6t^5-15t^4+10t^3 between (C^2)."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def plateau(s, flat_end, support_end):
    """Profile equal to 1 on [0, flat_end], 0 on [support_end, inf), smooth between.

    Used for the radial vertex cutoff, the angular cutoff of the extension
    operator and the Whitney partition bump.  Clamped at 0: the smoothstep
    rounds above 1 just below its end, where 1 - smoothstep would go negative.
    """
    if not support_end > flat_end:
        raise ValueError("support_end must exceed flat_end")
    s = np.asarray(s, dtype=float)
    v = 1.0 - smoothstep((s - flat_end) / (support_end - flat_end))
    # in place: the clamp adds no array to the partition bump's peak
    return np.maximum(v, 0.0, out=v if v.ndim else None)
