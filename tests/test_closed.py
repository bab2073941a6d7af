"""CLOSED on the double kernels (|x| >= 0.125): its estimate against a
high-precision oracle over the seam band 0.125 <= |x| < 0.28 and beyond,
RECURRENCE built on it, and the x^(m+1) range both CLOSED paths refuse
outside."""

import random

import pytest

from nlgamma import _ddarith
from nlgamma.delta import Route, delta_deriv


def _draws(seed, n, lo, hi, both_signs):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        x = rng.uniform(lo, hi)
        out.append((rng.randint(1, 12), -x if both_signs and rng.random() < 0.5 else x))
    return out


# the seam band, both signs, and (0.28, 1.2], where the digamma
# and ln Gamma kernels cross zero and the terms still cancel
DRAWS = {
    "band": _draws(9101, 300, 0.125, 0.28, True),
    "above": _draws(9102, 150, 0.28, 1.2, False),
}


@pytest.fixture(scope="module")
def reference():
    return {}


def _misses(route, draws, mp_deriv, cache):
    misses = []
    for m, x in draws:
        if route is Route.RECURRENCE and m < 2:
            continue
        if (m, x) not in cache:
            cache[m, x] = mp_deriv(m, x)
        r = delta_deriv(m, x, route)
        if abs(r.value - cache[m, x]) > r.abs_err_est:
            misses.append((m, x, abs(r.value - cache[m, x]) / r.abs_err_est))
    return misses


@pytest.mark.parametrize("region", sorted(DRAWS))
@pytest.mark.parametrize("route", [Route.CLOSED, Route.RECURRENCE], ids=lambda r: r.value)
def test_estimate_covers_the_error(route, region, mp_deriv, reference):
    assert _misses(route, DRAWS[region], mp_deriv, reference) == []


@pytest.mark.parametrize(
    "m,x", [(10, 0.12562212740494744), (3, 0.1447599462340723), (6, 0.4691197082360905)]
)
def test_former_misses(m, x, mp_deriv):
    r = delta_deriv(m, x, Route.CLOSED)
    assert abs(r.value - mp_deriv(m, x)) <= 0.6 * r.abs_err_est


class TestRange:
    @pytest.mark.parametrize("m,x", [(12, 1e-25), (12, -1e-25), (12, 1e24), (1, 1e160)])
    def test_refused(self, m, x):
        with pytest.raises(ValueError, match="domain error"):
            delta_deriv(m, x, Route.CLOSED)

    @pytest.mark.parametrize("m,x", [(12, 1e-25), (2, 1e160)])
    def test_recurrence_inherits_the_refusal(self, m, x):
        with pytest.raises(ValueError, match="domain error"):
            delta_deriv(m, x, Route.RECURRENCE)

    @pytest.mark.parametrize("m", [1, 2, 5, 8, 12])
    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_double_double_edge(self, m, side, mp_deriv):
        # just above the smallest |x| served, and just below it
        x = _ddarith.POW_MIN ** (1.0 / (m + 1)) * 1.0000001
        r = delta_deriv(m, side * x, Route.CLOSED)
        assert abs(r.value - mp_deriv(m, side * x)) <= r.abs_err_est
        with pytest.raises(ValueError, match="domain error"):
            delta_deriv(m, side * x / 1.001, Route.CLOSED)

    @pytest.mark.parametrize("m,x", [(1, 1e154), (2, 4.6e102), (5, 2.15e51), (12, 4.9e23)])
    def test_large_x_edge(self, m, x, mp_deriv):
        r = delta_deriv(m, x, Route.CLOSED)
        assert abs(r.value - mp_deriv(m, x)) <= r.abs_err_est
        with pytest.raises(ValueError, match="domain error"):
            delta_deriv(m, x * 1.5, Route.CLOSED)
