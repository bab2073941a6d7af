"""Shared fixtures."""

import math

import pytest


@pytest.fixture
def mp_deriv():
    """D^(m)(x) at 60 digits (mpmath; the test is skipped without it):

        sum_j C(m,j) psi^(m-j-1)(x+1) (-1)^j j! / x^(j+1),

    with psi^(-1) = ln Gamma.  Near x = 0 the terms cancel by a factor
    of about |x|^(-m-1), so the precision grows by that many digits; at
    x = 0 the limit (-1)^(m-1) m! zeta(m+1)/(m+1) is returned."""
    mpmath = pytest.importorskip("mpmath")

    def deriv(m, x):
        lost = (m + 1) * max(0.0, -math.log10(abs(x))) if x else 0.0
        with mpmath.workdps(60 + int(lost)):
            if x == 0.0:
                limit = mpmath.factorial(m) * mpmath.zeta(m + 1) / (m + 1)
                return float(limit if m % 2 else -limit)
            xm = mpmath.mpf(x)
            total = mpmath.mpf(0)
            for j in range(m + 1):
                order = m - j - 1
                psi = (
                    mpmath.loggamma(xm + 1) if order < 0 else mpmath.psi(order, xm + 1)
                )
                term = mpmath.binomial(m, j) * mpmath.factorial(j) * psi / xm ** (j + 1)
                total += -term if j % 2 else term
            return float(total)

    return deriv
