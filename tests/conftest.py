"""Shared fixtures."""

import pytest


@pytest.fixture
def mp_deriv():
    """D^(m)(x) at 60 digits (mpmath; the test is skipped without it):

        sum_j C(m,j) psi^(m-j-1)(x+1) (-1)^j j! / x^(j+1),

    with psi^(-1) = ln Gamma.  Callers keep |x| away from 0, where the
    terms cancel."""
    mpmath = pytest.importorskip("mpmath")

    def deriv(m, x):
        with mpmath.workdps(60):
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
