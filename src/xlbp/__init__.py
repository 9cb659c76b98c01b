"""Exact Laurent biorthogonal polynomials, their exceptional extensions,
and machine certification of the associated recurrence relations.

The package is organised bottom-up:

  exact_core    rationals, one exact (Laurent) polynomial type, exact nullspace
  hr_classical  the classical two-parameter family plus its identity catalog
  darboux       seed data and the backward operator for the four extensions
  xhr           exceptional families, partners, norms, structured weights
  recurrence    recurrence construction and exact certification
  quadrature    high-precision numeric validation on the unit circle
  cli           command-line interface (gen / verify / certify)
"""

from .exact_core import (
    Poly,
    format_rational,
    parse_rational,
    solve_exact,
)
from .hr_classical import (
    IdentityTag,
    ParameterPoleError,
    Params,
    hr_partner,
    hr_poly,
    moments,
    norm_ratio,
    pochhammer,
    ttrr_coeffs,
    verify_identity,
)
from .darboux import Seed, SeedType, make_seed, psi_hat, xi
from .xhr import (
    InadmissibleIndexError,
    WeightFactor,
    XIndex,
    x_norm_ratio,
    x_partner,
    x_poly,
    x_weight_factor,
)
from .recurrence import (
    CertificationError,
    RecurrenceCertificate,
    a_coeffs_formula,
    a_coeffs_solver,
    certify,
    example_oracles,
    q_poly,
)

__version__ = "0.1.0"
