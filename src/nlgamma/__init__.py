"""nlgamma: the normalized log-gamma function ln(Gamma(x+1))/x, its
higher derivatives by independent cross-validating routes, the special
functions underneath them, and a verification CLI.

Pure Python throughout; the scalar kernels live in ``_backend.kernels``.
"""

from .delta import (
    EvalResult,
    MAX_DERIV_ORDER,
    Route,
    asymptotic_leading,
    check_complete_monotonicity,
    delta,
    delta_deriv,
    delta_deriv_at_one,
    delta_deriv_half_integer,
    frac_rep_prop2,
    integral_delta,
    integral_delta_squared,
    recurrence_residual,
)
from .hyp2f1 import ConvergenceError, gauss_2f1, hyp_identity_residual, pochhammer
from .quad import (
    QuadResult,
    integrate_finite,
    integrate_unit_split,
    lemma2_transform,
    p1_integral,
    pointwise,
)
from .report import IdentityResidual, VerificationReport
from .specfun import (
    CONSTANTS,
    hurwitz_zeta,
    ln_gamma,
    polygamma,
    riemann_zeta,
    upper_incomplete_gamma_int,
)

__version__ = "1.0.0"

BACKEND = "python"

__all__ = [
    "BACKEND",
    "CONSTANTS",
    "ConvergenceError",
    "EvalResult",
    "IdentityResidual",
    "MAX_DERIV_ORDER",
    "QuadResult",
    "Route",
    "VerificationReport",
    "asymptotic_leading",
    "backend_name",
    "check_complete_monotonicity",
    "delta",
    "delta_deriv",
    "delta_deriv_at_one",
    "delta_deriv_half_integer",
    "frac_rep_prop2",
    "gauss_2f1",
    "hurwitz_zeta",
    "hyp_identity_residual",
    "integral_delta",
    "integral_delta_squared",
    "integrate_finite",
    "integrate_unit_split",
    "lemma2_transform",
    "ln_gamma",
    "p1_integral",
    "pochhammer",
    "pointwise",
    "polygamma",
    "recurrence_residual",
    "riemann_zeta",
    "upper_incomplete_gamma_int",
]


def backend_name():
    """Name of the kernel implementation; always 'python'."""
    return BACKEND
