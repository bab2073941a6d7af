"""CLOSED on the double kernels (|x| >= 0.125): its estimate against a
high-precision oracle over the seam band 0.125 <= |x| < 0.28 and beyond,
RECURRENCE built on it, and the range of x both routes serve: CLOSED
refuses where x^(m+1) overflows, and RECURRENCE also where m/x does."""

import random

import pytest

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
    @pytest.mark.parametrize("m,x", [(12, 1e24), (1, 1e160)])
    def test_refused(self, m, x):
        with pytest.raises(ValueError, match="domain error"):
            delta_deriv(m, x, Route.CLOSED)

    @pytest.mark.parametrize("m,x", [(2, 1e160)])
    def test_recurrence_inherits_the_refusal(self, m, x):
        with pytest.raises(ValueError, match="domain error"):
            delta_deriv(m, x, Route.RECURRENCE)

    @pytest.mark.parametrize("m", [2, 12])
    @pytest.mark.parametrize("x", [5e-324, -5e-324])
    def test_recurrence_refuses_where_m_over_x_overflows(self, m, x):
        # CLOSED answers there, but (m/x) D^(m-1)(x) is past the double range
        assert delta_deriv(m - 1, x, Route.CLOSED).value != 0.0
        with pytest.raises(ValueError, match="domain error"):
            delta_deriv(m, x, Route.RECURRENCE)

    @pytest.mark.parametrize("m", [2, 12])
    @pytest.mark.parametrize("x", [1e-25, -1e-25])
    def test_recurrence_answers_at_tiny_x(self, m, x, mp_taylor_deriv):
        r = delta_deriv(m, x, Route.RECURRENCE)
        assert abs(r.value - mp_taylor_deriv(m, x)) <= r.abs_err_est

    @pytest.mark.parametrize("m", [1, 2, 5, 8, 12])
    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_double_double_edge(self, m, side, mp_deriv):
        # CLOSED once refused |x|^(m+1) < 2^-969; it answers on both sides
        x = 2.0 ** (-969 / (m + 1)) * 1.0000001
        for y in (side * x, side * x / 1.001):
            r = delta_deriv(m, y, Route.CLOSED)
            assert abs(r.value - mp_deriv(m, y)) <= r.abs_err_est

    @pytest.mark.parametrize("m,x", [(1, 1e154), (2, 4.6e102), (5, 2.15e51), (12, 4.9e23)])
    def test_large_x_edge(self, m, x, mp_deriv):
        r = delta_deriv(m, x, Route.CLOSED)
        assert abs(r.value - mp_deriv(m, x)) <= r.abs_err_est
        with pytest.raises(ValueError, match="domain error"):
            delta_deriv(m, x * 1.5, Route.CLOSED)
