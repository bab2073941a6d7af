"""HURWITZ against a high-precision oracle on both sides of x = -1/2 and
x = 1, where its integral moves from one piece in u to
pieces of width 2 in the log variable v; the range edges at huge x,
where no factor |x|^(-m-1) may be formed outside the sum; and its work
there, one K21 panel a piece."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlgamma.delta import Route, delta_deriv

# uniform on the one-piece range, log-uniform over [0.5, 1e12] across
# x = 1, and -1 + 10^e from 1 + x = 1e-15 up past x = -1/2
_X = st.one_of(
    st.floats(min_value=-0.5, max_value=1.0),
    st.builds(lambda e: 10.0**e, st.floats(min_value=math.log10(0.5), max_value=12.0)),
    st.builds(
        lambda e: -1.0 + 10.0**e, st.floats(min_value=-15.0, max_value=math.log10(0.75))
    ),
)


@given(m=st.integers(min_value=1, max_value=12), x=_X)
@settings(max_examples=200, deadline=None)
@example(m=1, x=-0.5)
@example(m=12, x=-0.5)
@example(m=1, x=math.nextafter(-0.5, -1.0))
@example(m=12, x=math.nextafter(-0.5, -1.0))
@example(m=1, x=1.0)
@example(m=12, x=1.0)
@example(m=1, x=math.nextafter(1.0, 2.0))
@example(m=12, x=math.nextafter(1.0, 2.0))
# where a log-variable form used at tiny x missed its estimate by 1.15x
@example(m=11, x=3.5256368629591095e-05)
@example(m=11, x=3.682837372672322e-05)
# an ulp of the top end ln(1 + x) moves the value here: without that
# charge x = 1e9 reached 0.94 of the estimate
@example(m=1, x=1e9)
@example(m=6, x=1e9)
@example(m=12, x=1e9)
@example(m=1, x=1e12)
@example(m=6, x=1e12)
@example(m=12, x=1e12)
@example(m=1, x=-1.0 + 1e-12)
@example(m=12, x=-1.0 + 1e-12)
@example(m=1, x=-1.0 + 1e-15)
@example(m=12, x=-1.0 + 1e-15)
def test_sweep_within_estimate(m, x, mp_deriv, mp_taylor_deriv):
    r = delta_deriv(m, x, Route.HURWITZ)
    assert r.converged, (m, x)
    # the Taylor oracle needs no extra digits at tiny |x|
    exact = mp_taylor_deriv(m, x) if abs(x) <= 0.26 else mp_deriv(m, x)
    assert abs(r.value - exact) <= r.abs_err_est, (m, x, r.value, exact, r.abs_err_est)


@pytest.mark.parametrize(
    "m,x,expected",
    [
        (3, 1e100, 2e-300),  # near the bottom of the normal range
        (1, 1e300, 1e-300),
        (12, 1e30, 0.0),  # below the subnormals: -0.0
        # among the subnormals, where the estimate was 0 and missed
        (2, 1.0781075106225802e161, -8.4e-323),
        (10, 6.873199606905683e32, -1.5e-323),
    ],
)
def test_range_edges_answer(m, x, expected, mp_deriv):
    # a factor x^(-m-1) taken outside the integral gave 0.0 at
    # (3, 1e100) and overflowed at (12, 1e30); the estimate charges one
    # 2^-1074 a node for values that underflow
    r = delta_deriv(m, x, Route.HURWITZ)
    assert r.converged
    assert abs(r.value - mp_deriv(m, x)) <= r.abs_err_est
    assert abs(r.value - expected) <= r.abs_err_est


@pytest.mark.parametrize("m", [1, 3, 12])
@pytest.mark.parametrize("x", [10.0, 1e6, 1e100, 1e300])
def test_one_panel_per_piece(m, x):
    # for x > 1 the pieces of width at most 2 in v, ceil(ln(1 + x)/2) of
    # them, meet the tolerance unsplit: ln(1e100) = 230.3 gives 116 (the
    # doubling mesh in u seeded 332 there)
    r = delta_deriv(m, x, Route.HURWITZ)
    assert r.n_evals == 21 * math.ceil(abs(math.log1p(x)) / 2.0)
