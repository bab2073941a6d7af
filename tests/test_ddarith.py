"""The double-double CLOSED path below |x| = 0.125: its coefficient
tables, the truncation bound of its Horner passes, and its values and
estimates against a high-precision oracle."""

import math

import pytest

from nlgamma import _ddarith
from nlgamma.delta import Route, delta_deriv

ORACLE_MS = (1, 2, 3, 5, 8, 12)
# 16 log-spaced magnitudes in [1e-6, 0.125), both signs
MAGNITUDES = [1e-6 * (0.125 / 1e-6) ** (i / 16) for i in range(16)]
ORACLE_XS = [s * a for a in MAGNITUDES for s in (1.0, -1.0)]
ORDERS = range(-1, 12)  # ln Gamma(1 + x)/x, then psi^(j)(1 + x) for m <= 12

_reference = {}


def _mp(mp_deriv, m, x):
    if (m, x) not in _reference:
        _reference[m, x] = mp_deriv(m, x)
    return _reference[m, x]


@pytest.mark.parametrize("m", ORACLE_MS)
def test_closed_within_estimate(m, mp_deriv):
    for x in ORACLE_XS:
        r = delta_deriv(m, x, Route.CLOSED)
        ref = _mp(mp_deriv, m, x)
        assert abs(r.value - ref) <= r.abs_err_est, (m, x, r.value, ref)


@pytest.mark.parametrize("m", [m for m in ORACLE_MS if m >= 2])
def test_recurrence_within_estimate(m, mp_deriv):
    for x in ORACLE_XS:
        r = delta_deriv(m, x, Route.RECURRENCE)
        ref = _mp(mp_deriv, m, x)
        assert abs(r.value - ref) <= r.abs_err_est, (m, x, r.value, ref)


def _exact_coefficient(mpmath, j, p):
    """c_{j,p} of the module docstring, in mpmath."""
    k = p + max(j, 0) + 1
    zeta = mpmath.euler if k == 1 else mpmath.zeta(k)
    if j < 0:
        c = zeta / k
    else:
        c = zeta * mpmath.factorial(k - 1) / mpmath.factorial(k - 1 - j)
    return c if k % 2 == 0 else -c


@pytest.mark.parametrize("j", ORDERS)
@pytest.mark.parametrize("binade", [0, 3, 10])
def test_truncated_tail_within_bound(j, binade):
    mpmath = pytest.importorskip("mpmath")
    coeffs, terms = _ddarith._order_table(j)
    n = terms[binade]
    h = _ddarith.X_MAX * 2.0**-binade
    bound = _ddarith._tail(coeffs, j, n, h)
    c0 = abs(coeffs[0][0])
    assert bound <= _ddarith.TAIL_REL * c0
    with mpmath.workdps(80):
        for x in (h, -h):
            xm = mpmath.mpf(x)
            if j < 0:
                full = mpmath.loggamma(1 + xm) / xm
            else:
                full = mpmath.psi(j, 1 + xm)
            kept = sum(_exact_coefficient(mpmath, j, p) * xm**p for p in range(n))
            assert abs(full - kept) <= bound, (x, float(full - kept), bound)
            # the docstring's premise: the value stays above |c_{j,0}|/5
            assert abs(full) >= c0 / 5


def test_horner_length_falls_with_x():
    for j in ORDERS:
        terms = _ddarith._order_table(j)[1]
        assert all(a >= b for a, b in zip(terms, terms[1:]))
        assert terms[-1] == 1
        assert terms[0] < len(_ddarith._order_table(j)[0])


def test_coefficients_match_the_exact_series():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for j in ORDERS:
            for p, (hi, lo) in enumerate(_ddarith._order_table(j)[0]):
                exact = _exact_coefficient(mpmath, j, p)
                assert abs(mpmath.mpf(hi) + lo - exact) <= 1e-31 * abs(exact), (j, p)


def test_tables_are_built_lazily_and_stay_small():
    _ddarith._order_table.cache_clear()
    delta_deriv(1, 0.5)
    delta_deriv(3, 0.2, Route.CLOSED)
    assert _ddarith._order_table.cache_info().currsize == 0
    delta_deriv(3, 0.05, Route.CLOSED)
    assert _ddarith._order_table.cache_info().currsize == 4
    pairs = sum(len(_ddarith._order_table(j)[0]) for j in ORDERS)
    assert pairs <= 1000


@pytest.mark.parametrize("x", [0.0, 0.13, -0.2, math.inf, math.nan])
def test_domain(x):
    with pytest.raises(ValueError, match="double-double CLOSED"):
        _ddarith.closed_product_rule_dd(3, x)


def test_seam_point_uses_the_top_table_row():
    value, err = _ddarith.closed_product_rule_dd(2, 0.125)
    closed = delta_deriv(2, 0.125, Route.CLOSED)  # the double kernels
    assert abs(value - closed.value) <= err + closed.abs_err_est
