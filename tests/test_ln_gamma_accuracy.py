"""The Taylor form of ln Gamma around 1 and 2, in ulps against mpmath.

The kernel's zone [0.5, 2.5], the downward shift from (2.5, 8) into it
and D(x) = ln Gamma(1+x)/x up to the |x| = 0.26 seam all read it.  The
bounds pin the figures measured when the zeta table became the correctly
rounded one and x = 1.5 moved to the expansion around 2, and when (2.5, 8)
moved from the upward shift to Stirling to the downward one; they sit
just above those figures.
"""

import math
import statistics

import pytest

mp = pytest.importorskip("mpmath")

from nlgamma._backend import kernels  # noqa: E402
from nlgamma.cli import _delta_point  # noqa: E402
from nlgamma.delta import Route, delta, delta_deriv  # noqa: E402


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


def test_ln_gamma_shifted_down():
    # measured: mean 0.35 ulp, max 1.70 ulp; the upward shift to
    # Stirling's range subtracted logs about as large as the result and
    # gave 5.6 and 99 (23 and 114 on (2.5, 3))
    with mp.workdps(40):
        errs = [
            _ulps(kernels.ln_gamma(x), mp.loggamma(x)) for x in _grid(2.5, 8.0, 2001)
        ]
    assert statistics.mean(errs) <= 0.4
    assert max(errs) <= 2.0


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 12])
def test_closed_within_estimate_above_one_and_a_half(m, mp_deriv):
    # CLOSED's j = m term is ln Gamma(x+1); with the upward shift 21 of
    # these 246 values missed their estimate by 1.02-1.30x
    for i in range(41):
        x = 1.5 + 0.0125 * i
        r = delta_deriv(m, x, Route.CLOSED)
        assert abs(r.value - mp_deriv(m, x)) <= r.abs_err_est, x


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


def test_delta_in_the_band():
    # 0.125 <= |x| <= 0.26 takes the Taylor form too; as ln Gamma(x+1)/x
    # it was 7.0 ulps off at worst (20,000 draws), now 1.16
    with mp.workdps(40):
        errs = [
            _ulps(delta(s * x), mp.loggamma(1 + mp.mpf(s * x)) / (s * x))
            for x in _grid(0.125, 0.26, 1001)
            for s in (1.0, -1.0)
        ]
    assert max(errs) <= 2.0


# ln Gamma(x + 1) is finite up to this double and overflows from the next
_LN_GAMMA_EDGE = 2.5563481638716906e305


@pytest.mark.parametrize(
    "x",
    [
        _LN_GAMMA_EDGE,
        math.nextafter(_LN_GAMMA_EDGE, math.inf),
        1e306,
        1e308,
        1.7976931348623157e308,
    ],
)
def test_delta_past_ln_gamma_overflow(x):
    # D ~ ln x - 1 is under 710 at every double, but ln Gamma(x + 1)/x
    # gave inf (and its printed estimate inf) from the edge's next double on
    value, err, route = _delta_point(x)
    assert route is Route.CLOSED
    with mp.workdps(40):
        exact = mp.loggamma(mp.mpf(x) + 1) / x
    assert abs(value - exact) <= err < 1e-12, (x, value, err)
    if x == _LN_GAMMA_EDGE:
        assert value == kernels.ln_gamma(x + 1.0) / x
