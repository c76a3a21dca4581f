"""Explicit upper and lower bounds for the sharp constants of the tame
basic and Kato inequalities of the Navier-Stokes bilinear map on a torus.

The package computes, for an exponent pair (p, n) and dimension d:

* refined upper bounds assembled from a truncated lattice-sum scan, an
  explicit far-field expansion and a closed-form truncation error;
* rough closed-form upper bounds (a power of two times a zeta value);
* lower bounds from explicit trial fields, including closed-form large-p
  variants, all cross-checkable against a spectral oracle;
* the large-p limit diagnostics showing both bound families' p-th roots
  approach 2.
"""

__version__ = "0.1.0"

from .envelopes import EnvelopeConstant, ProblemParams, envelope_b, envelope_c, envelope_max, tail_delta
from .errors import (
    InvalidArgumentError,
    InvalidDimensionError,
    NsconstError,
    OutOfRegimeError,
    PropertyFailureError,
    SingularPointError,
    UnsupportedExponentsError,
)
from .flatsums import ScanResult, ball_scan, full_sum_oracle, g_flat, k_flat
from .lattice import (
    LatticeVector,
    canonicalize,
    projector_norm,
    zeta_partial,
    zeta_tail_bound,
)
from .lower import (
    LowerReport,
    TrialParams,
    asymptotic_lower,
    g_lower_eval,
    g_lower_optimize,
    k_lower_combined,
    k_lower_family,
    k_lower_simple,
    limit_probe,
)
from .series import SeriesExpansion, eval_E, eval_F, expand_series, remainder_max
from .farfield import SpherePoly, moment_poly, sphere_moments, sphere_polys
from .spectral import (
    FourierField,
    advect,
    bilinear_map,
    leray_project,
    random_solenoidal_field,
    sobolev_inner,
    sobolev_norm,
)
from .upper import TruncationConfig, UpperReport, rough_upper, sandwich_check, upper_bound

__all__ = [name for name in dir() if not name.startswith("_")]
