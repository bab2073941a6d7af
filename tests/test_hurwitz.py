"""HURWITZ against a high-precision oracle on both sides of x = -1/2 and
x = 1, where its integral moves from one piece in u to
pieces of width 2 in the log variable v, and from x = A_m - 1 on, where
it is one sum with no quadrature; the range edges at huge x, where no
factor |x|^(-m-1) may be formed outside the sum; and its work, one K21
panel a piece below the seam and a fixed term count past it."""

import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlgamma import quad
from nlgamma._backend import kernels
from nlgamma.delta import Route, delta_deriv

delta_module = sys.modules["nlgamma.delta"]  # the package exports a function `delta`

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


# A_m, from where the integrand is a sum of powers of a: 8.03 at m = 1,
# 24 at m = 12
SEAMS = {m: delta_module._hurwitz_seam(m) for m in range(1, 13)}


@st.composite
def _past_the_seam(draw):
    """m uniform on 1..12 and x log-uniform from A_m - 1 to 1e300."""
    m = draw(st.integers(min_value=1, max_value=12))
    low = math.log10(SEAMS[m] - 1.0)
    return m, 10.0 ** draw(st.floats(min_value=low, max_value=300.0))


def _seam_examples(test):
    """A_m - 1, the doubles on either side of it and 1.05 (A_m - 1) for
    m = 1, 6, 12, and x = 1e9, 1e12, 1e100, 1e300."""
    for m in (1, 6, 12):
        seam = SEAMS[m] - 1.0
        for x in (seam, math.nextafter(seam, 0.0), math.nextafter(seam, math.inf), 1.05 * seam):
            test = example(point=(m, x))(test)
        for x in (1e9, 1e12, 1e100, 1e300):
            test = example(point=(m, x))(test)
    return test


@given(point=_past_the_seam())
@settings(max_examples=150, deadline=None)
@_seam_examples
def test_closed_path_within_estimate(point, mp_deriv):
    m, x = point
    r = delta_deriv(m, x, Route.HURWITZ)
    assert r.converged, (m, x)
    exact = mp_deriv(m, x)
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
@pytest.mark.parametrize("x", [7.0, 10.0, 1e6, 1e100, 1e300])
def test_one_panel_per_piece(m, x):
    # for 1 < x < A_m - 1 the pieces of width at most 2 in v,
    # ceil(ln(1 + x)/2) of them, meet the tolerance unsplit; from the
    # seam on no mesh is built, and n_evals counts the terms summed
    r = delta_deriv(m, x, Route.HURWITZ)
    if x < SEAMS[m] - 1.0:
        assert r.n_evals == 21 * math.ceil(math.log1p(x) / 2.0)
    else:
        assert r.n_evals == CLOSED_TERMS[m]


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("x", [-0.9, -0.999, -1.0 + 1e-12])
def test_one_panel_per_piece_below_minus_half(m, x):
    # the same in a = (1 + x) e^v (at m = 12 the factor u^12 costs splits)
    r = delta_deriv(m, x, Route.HURWITZ)
    assert r.n_evals == 21 * math.ceil(-math.log1p(x) / 2.0)


# the terms of the closed path, m + 2M + 2 for the M Euler-Maclaurin
# corrections of the zeta plan at A_m
CLOSED_TERMS = {
    1: 33, 2: 34, 3: 35, 4: 36, 5: 37, 6: 38, 7: 37, 8: 36, 9: 37, 10: 36, 11: 37, 12: 38,
}


@pytest.mark.parametrize("m", range(1, 13))
def test_closed_path_counts_its_terms(m):
    # z_top of the zeta plan through m = 6 (8.03 at m = 1), 2m from m = 7 on
    assert SEAMS[m] == (2.0 * m if m >= 7 else kernels._zeta_plan(m + 1.0)[0])
    seam = SEAMS[m] - 1.0
    _, limits, horners, _ = kernels._zeta_plan(m + 1.0)
    n_em = len(horners[sum(z <= SEAMS[m] for z in limits)])
    assert CLOSED_TERMS[m] == m + 2 * n_em + 2
    for x in (seam, 1e6, 1e300):
        assert delta_deriv(m, x, Route.HURWITZ).n_evals == CLOSED_TERMS[m], x
    # the largest double below the seam: one K21 panel a piece
    below = math.nextafter(seam, 0.0)
    n = delta_deriv(m, below, Route.HURWITZ).n_evals
    assert n == 21 * math.ceil(math.log1p(below) / 2.0), n


def test_closed_path_unconverged_row_is_not_silent(monkeypatch):
    inner = quad.integrate_finite

    def unconverged(*args, **kwargs):
        r = inner(*args, **kwargs)
        return quad.QuadResult(r.value, r.abs_err_est, r.n_evals, False)

    delta_module._hurwitz_row.cache_clear()
    monkeypatch.setattr(quad, "integrate_finite", unconverged)
    try:
        assert not delta_deriv(2, 1e3, Route.HURWITZ).converged
    finally:
        delta_module._hurwitz_row.cache_clear()
