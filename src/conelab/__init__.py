"""conelab: numerical Sobolev analysis on double cones.

Hardy-type inequalities, radial/anti-radial splits, Calderon-Zygmund
decompositions, rearrangement K-functionals, extension/restriction operators,
and vertex approximation sequences, all verified at desk scale on polar grids.
"""

from .config import RunConfig, load_config
from .fieldlib import make_test_field, suite_cz, suite_extension, suite_hardy
from .fields import (Field, GradientField, NormSpec, RadialSplit,
                     even_odd_split, gradient, hardy_quotient, lp_norm,
                     morrey_quotient, norm, poincare_ball_ratio,
                     poincare_cap_ratio, radial_split)
from .geometry import (BilipschitzConeMap, ConeBall, ConeDomain,
                       HomogeneousCutoff, ball_measure, contains,
                       doubling_ratio)
from .grids import PolarGrid
from .rearrangement import (RearrangementTable, interpolation_norm, k_l1_linf,
                            k_l1_ln, k_sobolev_estimate, rearrange)

__version__ = "0.1.0"
