"""CLOSED below |x| = 0.125: the collected Leibniz coefficients (the
bracket identity, the polygamma Taylor weights they are built from, and
their rounding), and the values and estimates against high-precision
oracles down to |x| = 5e-324."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from nlgamma import _ddarith
from nlgamma.delta import Route, delta_deriv

ORACLE_MS = (1, 2, 3, 5, 8, 12)
# 16 log-spaced magnitudes in [1e-6, 0.125), both signs
MAGNITUDES = [1e-6 * (0.125 / 1e-6) ** (i / 16) for i in range(16)]
ORACLE_XS = [s * a for a in MAGNITUDES for s in (1.0, -1.0)]
ORDERS = range(-1, 12)  # ln Gamma(1 + x), then psi^(j)(1 + x) for m <= 12
SRC = Path(__file__).resolve().parents[1] / "src"

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


def test_bracket_vanishes_below_and_is_the_series_factor_above():
    # every negative power of the Leibniz double sum has weight 0, and
    # power n >= 0 has SERIES's (-1)^k (k-1)!/((k-1-m)! k), k = n + m + 1
    for m in range(1, 13):
        for n in range(-m, 0):
            assert _ddarith._bracket(m, n) == 0, (m, n)
        for n in range(_ddarith.K_MAX - m):
            k = n + m + 1
            factor = math.prod(range(k - m, k))  # k times SERIES's coef
            assert _ddarith._bracket(m, n) == (-factor if k % 2 else factor), (m, n)


@pytest.mark.parametrize("j", ORDERS)
@pytest.mark.parametrize("binade", [0, 3, 10])
def test_truncated_tail_within_bound(j, binade):
    # the weights the bracket sums are psi^(j)'s Taylor weights at 1: the
    # series through zeta(K_MAX) reproduces psi^(j)(1 + x), or ln Gamma(1 + x)
    # for j = -1, within the geometric bound on the rest at |x| = h
    mpmath = pytest.importorskip("mpmath")
    k_max = _ddarith.K_MAX
    h = _ddarith.X_MAX * 2.0**-binade
    ratio = h * k_max / (k_max - max(j, 0))
    last = abs(_ddarith._weight(j, k_max)) * 1.01 * h ** (k_max - j - 1) / k_max
    bound = last * ratio / (1.0 - ratio)  # zeta(K_MAX) < 1.01
    with mpmath.workdps(30 - int(math.log10(bound))):  # resolves the bound
        for x in (h, -h):
            xm = mpmath.mpf(x)
            kept = mpmath.fsum(
                (mpmath.euler if k == 1 else mpmath.zeta(k))
                * _ddarith._weight(j, k) / k
                * xm ** (k - j - 1)
                for k in range(max(j, 0) + 1, k_max + 1)  # p >= 0 (>= 1 for ln Gamma)
            )
            full = mpmath.loggamma(1 + xm) if j < 0 else mpmath.psi(j, 1 + xm)
            assert abs(full - kept) <= bound, (x, float(full - kept), bound)


def test_coefficients_match_the_exact_series():
    # each a_n is zeta(k) B(m, n) rounded once from the double-double table
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for m in range(1, 13):
            coefs, _ = _ddarith._table(m)
            assert len(coefs) == _ddarith.K_MAX - m
            for n, a in enumerate(reversed(coefs)):
                k = n + m + 1
                exact = mpmath.zeta(k) * math.perm(k - 1, m) / k
                exact = -exact if k % 2 else exact
                assert abs(a - exact) <= 2.0**-53 * abs(exact), (m, n)


def test_tables_are_built_lazily_and_stay_small():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = "import nlgamma._ddarith as d; print(d._table.cache_info().currsize)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "0"
    _ddarith._table.cache_clear()
    delta_deriv(1, 0.5)
    delta_deriv(3, 0.2, Route.CLOSED)
    assert _ddarith._table.cache_info().currsize == 0
    delta_deriv(3, 0.05, Route.CLOSED)
    assert _ddarith._table.cache_info().currsize == 1
    assert sum(len(_ddarith._table(m)[0]) for m in range(1, 13)) <= 1000


@pytest.mark.parametrize("x", [0.0, 0.13, -0.2, math.inf, math.nan])
def test_domain(x):
    with pytest.raises(ValueError, match=r"CLOSED needs 0 < \|x\|"):
        _ddarith.closed_product_rule_dd(3, x)


def test_seam_point_uses_the_top_table_row():
    value, err = _ddarith.closed_product_rule_dd(2, 0.125)
    closed = delta_deriv(2, 0.125, Route.CLOSED)  # the double kernels
    assert abs(value - closed.value) <= err + closed.abs_err_est


def test_region_zero_is_bounded_and_sharp(mp_taylor_deriv):
    # seeded draws log-uniform on 1e-6 <= |x| < 0.125, the edges of the
    # double range, and the seam itself: the estimate bounds the error and
    # is under 1e-13 of the value, which is never 0
    rng = random.Random(99)
    points = []
    for _ in range(300):
        mag = math.exp(rng.uniform(math.log(1e-6), math.log(0.125)))
        points.append((rng.randint(1, 12), rng.choice((1.0, -1.0)) * mag))
    edges = (0.125, 1e-25, 1e-300, 5e-324)
    points += [(m, s * a) for m in (1, 2, 7, 12) for a in edges for s in (1.0, -1.0)]
    for m, x in points:
        value, err = _ddarith.closed_product_rule_dd(m, x)
        if abs(x) < _ddarith.X_MAX:
            r = delta_deriv(m, x, Route.CLOSED)
            assert (r.value, r.abs_err_est, r.n_evals) == (value, err, m + 1)
        assert value != 0.0
        assert abs(value - mp_taylor_deriv(m, x)) <= err, (m, x)
        assert err <= 1e-13 * abs(value), (m, x, err / abs(value))
