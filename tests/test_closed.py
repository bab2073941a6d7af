"""CLOSED and RECURRENCE built on it, against a high-precision oracle
over 0.125 <= |x| < 0.28, on both sides of the Taylor seam at 0.26, and
beyond on the double kernels; the band below the seam, where both are
sharp; a hypothesis sweep of the whole disc |x| <= 0.26, pinned at every
point where the collected series changes length, and of SERIES there; a
hypothesis sweep of CLOSED on the double kernels past the seam; the
double-kernel side pinned bit for bit to the plain per-term Leibniz
loop; and the range of x both routes serve: CLOSED refuses where
x^(m+1) overflows, and RECURRENCE also where m/x does."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlgamma import _ddarith
from nlgamma._backend import kernels
from nlgamma._ddarith import X_MAX
from nlgamma.delta import _CLOSED_TERM_REL, Route, delta_deriv


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


@pytest.mark.parametrize("m", range(1, 13))
def test_band_below_the_seam_is_sharp(m, mp_deriv):
    # on 0.125 <= |x| <= 0.26 CLOSED sums the collected series: its
    # estimate is under 2e-13 of the value (the double kernels left
    # 1.4e-2 at m = 12, x = 0.125), and RECURRENCE over it is within
    # 1e-12 of the value
    rng = random.Random(9200 + m)
    xs = [X_MAX, -X_MAX, 0.125, -0.125]
    xs += [rng.choice((1.0, -1.0)) * rng.uniform(0.125, X_MAX) for _ in range(20)]
    for x in xs:
        exact = mp_deriv(m, x)
        r = delta_deriv(m, x, Route.CLOSED)
        assert abs(r.value - exact) <= r.abs_err_est <= 2e-13 * abs(exact), (m, x)
        if m >= 2:
            r = delta_deriv(m, x, Route.RECURRENCE)
            assert abs(r.value - exact) <= r.abs_err_est, (m, x)
            assert abs(r.value - exact) <= 1e-12 * abs(exact), (m, x)


def _within_estimate(m, x, exact):
    """CLOSED, and RECURRENCE where it answers, within their estimates of
    exact at (m, x); RECURRENCE may refuse only with a domain error."""
    r = delta_deriv(m, x, Route.CLOSED)
    assert abs(r.value - exact) <= r.abs_err_est, (m, x, r.value, exact)
    if m < 2:
        return
    try:
        r = delta_deriv(m, x, Route.RECURRENCE)
    except ValueError as exc:  # at x = 0, or where m/x overflows
        assert x == 0.0 or "domain error" in str(exc), (m, x)
        return
    assert abs(r.value - exact) <= r.abs_err_est, (m, x, r.value, exact)


_DISC = st.one_of(
    st.floats(min_value=-X_MAX, max_value=X_MAX),
    st.builds(
        lambda e, sign: sign * 10.0**e,
        st.floats(min_value=-323.0, max_value=math.log10(X_MAX)),
        st.sampled_from((1.0, -1.0)),
    ),
)


@given(m=st.integers(min_value=1, max_value=12), x=_DISC)
@settings(max_examples=200, deadline=None)
def test_disc_sweep_within_estimate(m, x, mp_taylor_deriv):
    # uniform and log-uniform |x| over the whole Taylor disc
    _within_estimate(m, x, mp_taylor_deriv(m, x))


@given(m=st.integers(min_value=1, max_value=12), x=_DISC)
@settings(max_examples=200, deadline=None)
def test_series_sweep_within_estimate(m, x, mp_taylor_deriv):
    r = delta_deriv(m, x, Route.SERIES)
    exact = mp_taylor_deriv(m, x)
    assert r.converged
    assert abs(r.value - exact) <= r.abs_err_est, (m, x, r.value, exact)


# past the seam on the double kernels: uniform on (-1, -0.26) and
# log-uniform on (0.26, 1e6]
_PAST_SEAM = st.one_of(
    st.floats(min_value=-1.0, max_value=-X_MAX, exclude_min=True, exclude_max=True),
    st.builds(
        lambda e: 10.0**e,
        st.floats(min_value=math.log10(X_MAX), max_value=6.0, exclude_min=True),
    ),
)


@given(m=st.integers(min_value=1, max_value=12), x=_PAST_SEAM)
@settings(max_examples=200, deadline=None)
# just past the seam, where the Leibniz terms cancel most
@example(m=11, x=0.2601)
@example(m=12, x=0.2601)
@example(m=11, x=-0.2601)
@example(m=12, x=-0.2601)
@example(m=11, x=0.27)
@example(m=12, x=0.27)
@example(m=11, x=-0.27)
@example(m=12, x=-0.27)
@example(m=11, x=0.3)
@example(m=12, x=0.3)
# beside the zero of the digamma at x + 1 = 1.4616
@example(m=6, x=0.4691)
# the largest x whose x^(m+1) is finite
@example(m=1, x=1.3407807929942596e154)
@example(m=12, x=5.15111442105967e23)
def test_double_kernel_sweep_within_estimate(m, x, mp_deriv):
    # honesty only: just past the seam the estimate is wide, up to 6.8e-6
    # of the value at m = 12
    r = delta_deriv(m, x, Route.CLOSED)
    exact = mp_deriv(m, x)
    assert r.converged
    assert abs(r.value - exact) <= r.abs_err_est, (m, x, r.value, exact)


@pytest.mark.parametrize("m", [1, 6, 12])
def test_length_change_points_within_estimate(m, mp_taylor_deriv):
    # each limit up to which the collected series keeps N terms, and the
    # next double above it, where it keeps N + 1; then the fixed edges
    limits = _ddarith._table(m)[1]
    xs = [y for lim in limits if lim < X_MAX for y in (lim, math.nextafter(lim, 1.0))]
    xs += [0.0] + [s * a for a in (5e-324, 0.125, X_MAX) for s in (1.0, -1.0)]
    for x in xs:
        _within_estimate(m, x, mp_taylor_deriv(m, x))


def _closed_per_term(m, x):
    """CLOSED past the seam as the plain per-term loop: each
    comb(m, j) psi^(m-j-1)(x+1) j!/x^(j+1) from its own kernel call."""
    terms = []
    xpow = 1.0
    for j in range(m + 1):
        xpow *= x
        order = m - j - 1
        if order == -1:
            psi = kernels.ln_gamma(x + 1.0)
        elif order == 0:
            psi = kernels.digamma(x + 1.0)
        else:
            sign = 1.0 if order % 2 else -1.0
            psi = sign * math.factorial(order) * kernels.hurwitz_zeta(order + 1.0, x + 1.0)
        term = math.comb(m, j) * psi * math.factorial(j) / xpow
        terms.append(-term if j % 2 else term)
    value = math.fsum(terms)
    return value, 2.2e-15 * abs(value) + _CLOSED_TERM_REL * math.fsum(map(abs, terms))


def _uniform(seed, n, lo, hi):
    rng = random.Random(seed)
    return [rng.uniform(lo, hi) for _ in range(n)]


# x past the seam by the zeta kernel's path at a = x + 1: a < 1 (the
# Taylor path after a^-s), 1 <= a < 2 (Taylor), a >= 2 (Euler-Maclaurin)
PER_TERM_XS = {
    "a<1": [-1.0 + 1e-12, math.nextafter(-X_MAX, -1.0)] + _uniform(9301, 30, -1.0, -X_MAX),
    "1<=a<2": [math.nextafter(X_MAX, 1.0), math.nextafter(1.0, 0.0)]
    + _uniform(9302, 30, X_MAX, 1.0),
    "a>=2": [1.0, 1e6] + [10.0**e for e in _uniform(9303, 30, 0.0, 6.0)],
}


@pytest.mark.parametrize("path", sorted(PER_TERM_XS))
def test_double_kernel_side_is_the_per_term_loop(path):
    # one _zeta_values call over every order leaves CLOSED's value and
    # estimate bit for bit as they are term by term
    for m in range(1, 13):
        for x in PER_TERM_XS[path]:
            r = delta_deriv(m, x, Route.CLOSED)
            assert (r.value, r.abs_err_est) == _closed_per_term(m, x), (m, x)


@pytest.mark.parametrize("a", [1e-3, 0.5, 0.99, 1.0, 1.3, 1.999, 2.0, 7.5, 1e6])
def test_zeta_ladder_is_hurwitz_zeta(a):
    # several (s, plan) pairs in one call give hurwitz_zeta(s, a) for each
    # s, s-major, over more than one a too
    ss = [float(s) for s in range(12, 1, -1)] + [2.5, 70.0]
    pairs = [(s, kernels._zeta_plan(s)) for s in ss]
    args = [a, a + 0.25]
    got = kernels._zeta_values(pairs, args)
    assert got == [kernels.hurwitz_zeta(s, b) for s in ss for b in args]


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
