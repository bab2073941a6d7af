"""Double-precision special-function primitives.

Log-gamma, digamma/polygamma, Hurwitz and Riemann zeta, the
integer-parameter upper incomplete gamma, and Gamma(0, x).  Thin
domain-checked wrappers over the scalar kernels, plus double-precision
views of the one zeta/gamma table (`_ddconsts`) that the other modules
share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import quad
from ._backend import kernels
from ._ddconsts import ZETA_DD

__all__ = [
    "CONSTANTS",
    "K_MAX",
    "SpecialConstants",
    "gamma_zero",
    "hurwitz_zeta",
    "ln_gamma",
    "polygamma",
    "riemann_zeta",
    "upper_incomplete_gamma_int",
]

K_MAX = len(ZETA_DD) - 1

# Gamma(0, x): the alternating series loses roughly 2x/ln(10) digits to
# cancellation, so it is abandoned well before the documented 1e-11
# relative budget is at risk; quadrature takes over beyond this point.
GAMMA_ZERO_SERIES_CUTOFF = 5.0


def ln_gamma(x):
    """ln Gamma(x) for x > 0 (relative error ~1e-14 on [1e-3, 1e6])."""
    if x <= 0.0:
        raise ValueError(f"ln_gamma: need x > 0, got {x}")
    return kernels.ln_gamma(x)


def hurwitz_zeta(s, a):
    """zeta(s, a) = sum_{k>=0} (a + k)^(-s) for s > 1, a > 0."""
    if s <= 1.0:
        raise ValueError(f"hurwitz_zeta: need s > 1, got {s}")
    if a <= 0.0:
        raise ValueError(f"hurwitz_zeta: need a > 0, got {a}")
    return kernels.hurwitz_zeta(s, a)


def riemann_zeta(s):
    """zeta(s) for s > 1; identical to hurwitz_zeta(s, 1) bit for bit."""
    if s <= 1.0:
        raise ValueError(f"riemann_zeta: need s > 1, got {s}")
    return kernels.hurwitz_zeta(s, 1.0)


def polygamma(order, x):
    """psi^(order)(x) for x > 0; order -1 means ln Gamma, order 0 digamma.

    Positive orders go through the Hurwitz zeta reflection
    psi^(n)(x) = (-1)^(n+1) n! zeta(n+1, x).
    """
    if order < -1:
        raise ValueError(f"polygamma: need order >= -1, got {order}")
    if x <= 0.0:
        raise ValueError(f"polygamma: need x > 0, got {x}")
    if order == -1:
        return kernels.ln_gamma(x)
    if order == 0:
        return kernels.digamma(x)
    sign = 1.0 if order % 2 else -1.0
    return sign * math.factorial(order) * kernels.hurwitz_zeta(order + 1.0, x)


def upper_incomplete_gamma_int(n, x):
    """Gamma(n+1, x) for integer n >= 0, x >= 0, by the finite sum
    n! e^(-x) sum_{m=0}^n x^m/m! accumulated in ascending order."""
    if n < 0:
        raise ValueError(f"upper_incomplete_gamma_int: need n >= 0, got {n}")
    if x < 0.0:
        raise ValueError(f"upper_incomplete_gamma_int: need x >= 0, got {x}")
    return kernels.upper_incomplete_gamma_int(n, x)


def gamma_zero(x):
    """Gamma(0, x) = integral_x^inf e^(-t)/t dt for x > 0.

    Series below GAMMA_ZERO_SERIES_CUTOFF, quadrature of
    e^(-x) integral_0^inf e^(-u)/(x+u) du above; relative error <= 1e-11.
    """
    if x <= 0.0:
        raise ValueError(f"gamma_zero: need x > 0, got {x}")
    if x <= GAMMA_ZERO_SERIES_CUTOFF:
        return kernels.gamma_zero_series(x)
    # integrand is positive and smooth; truncate where e^(-u) is spent
    big = 60.0
    cfg = quad.QuadConfig(rel_tol=1e-13, abs_tol=5e-300, max_subdivisions=400)
    r = quad.integrate_finite(lambda u: math.exp(-u) / (x + u), 0.0, big, cfg)
    return math.exp(-x) * (r.value + math.exp(-big) / (x + big))


@dataclass(frozen=True)
class SpecialConstants:
    """Shared constants: Euler's gamma, a few logs, and zeta(2..K_MAX)."""

    euler_gamma: float = kernels.EULER_GAMMA
    ln_pi: float = math.log(math.pi)
    ln_2: float = math.log(2.0)
    zeta_values: tuple = field(default_factory=tuple)
    zeta_minus_one_values: tuple = field(default_factory=tuple)

    @classmethod
    def build(cls):
        """Round the double-double table: zeta(k) is hi, and zeta(k) - 1 is
        (hi - 1) + lo, exact before its one rounding (hi is in [1, 2])."""
        rows = ZETA_DD[2:]
        zv = [0.0, 0.0] + [hi for hi, _ in rows]
        zm = [0.0, 0.0] + [(hi - 1.0) + lo for hi, lo in rows]
        return cls(zeta_values=tuple(zv), zeta_minus_one_values=tuple(zm))


CONSTANTS = SpecialConstants.build()
