"""conelab: numerical Sobolev analysis on double cones.

Hardy-type inequalities, radial/anti-radial splits, the Poincare/doubling
law, Calderon-Zygmund decompositions, rearrangement K-functionals,
extension/restriction operators, and vertex approximation sequences, all
verified at desk scale on polar grids.
"""

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
