"""The Taylor form of ln Gamma around 1 and 2, in ulps against mpmath.

The kernel's zone [0.5, 2.5] and D(x) = ln Gamma(1+x)/x below the
|x| = 0.125 seam both read it.  The bounds pin the figures measured when
the zeta table became the correctly rounded one and x = 1.5 moved to the
expansion around 2; they sit just above those figures.
"""

import math
import statistics

import pytest

mp = pytest.importorskip("mpmath")

from nlgamma._backend import kernels  # noqa: E402
from nlgamma.delta import delta  # noqa: E402


def _ulps(value, exact):
    return float(abs(mp.mpf(value) - exact)) / math.ulp(float(exact))


def _grid(lo, hi, n):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def test_ln_gamma_taylor_zone():
    # measured: mean 0.68 ulp, max 9.2 ulp (the zeros at 1 and 2 left out);
    # the two Taylor series summed to the old table gave 0.86 and 14.2
    with mp.workdps(40):
        errs = [
            _ulps(kernels.ln_gamma(x), mp.loggamma(x))
            for x in _grid(0.5, 2.5, 2001)
            if x not in (1.0, 2.0)
        ]
    assert statistics.mean(errs) <= 0.75
    assert max(errs) <= 10.0


def test_ln_gamma_at_one_and_a_half():
    # x = 1.5 is on the expansion around 2: 0.30 ulp, against 3.3 ulp on
    # the one around 1
    with mp.workdps(40):
        assert _ulps(kernels.ln_gamma(1.5), mp.loggamma(1.5)) <= 0.5


def test_delta_below_seam():
    # measured: mean 0.27 ulp, max 1.16 ulp (0.29 and 1.24 with the old
    # inline series)
    with mp.workdps(40):
        errs = [
            _ulps(delta(x), mp.loggamma(1 + mp.mpf(x)) / x if x else -mp.euler)
            for x in _grid(-0.124, 0.124, 2001)
        ]
    assert statistics.mean(errs) <= 0.28
    assert max(errs) <= 1.2
