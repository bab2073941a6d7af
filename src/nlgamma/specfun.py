"""Double-precision special-function primitives.

Log-gamma, digamma/polygamma, Hurwitz and Riemann zeta, and the
integer-parameter upper incomplete gamma.  Log-gamma,
Hurwitz zeta and the incomplete gamma are the scalar kernels themselves,
which check their own domains; the rest are built on them here, next to
double-precision views of the one zeta/gamma table (`_ddconsts`) that
the other modules share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ._backend import kernels
from ._backend.kernels import hurwitz_zeta, ln_gamma, upper_incomplete_gamma_int
from ._ddarith import K_MAX
from ._ddconsts import ZETA_DD

__all__ = [
    "CONSTANTS",
    "K_MAX",
    "SpecialConstants",
    "hurwitz_zeta",
    "ln_gamma",
    "polygamma",
    "riemann_zeta",
    "upper_incomplete_gamma_int",
]


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
