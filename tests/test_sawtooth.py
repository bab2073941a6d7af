"""The sawtooth integral p1_integral and the HYP route built on it:
values against an mpmath oracle, evaluation-count pins, and the
x -> -1 edge where the integrand peaks inside the first panel."""

import math
from fractions import Fraction

import pytest

from nlgamma import quad
from nlgamma.delta import Route, delta_deriv
from nlgamma.quad import p1_integral

# x + 1 down to 1e-12; -0.9999 is -1 + 1e-4
NEAR_MINUS_ONE_XS = (
    -0.99982, -0.9999, -1.0 + 1e-6, -1.0 + 1e-8, -1.0 + 1e-12, -0.9999923236589578,
)
ORACLE_MS = (1, 2, 3, 4, 5, 6, 10, 12)
ORACLE_XS = (
    -1.0 + 1e-12, -1.0 + 1e-8, -1.0 + 1e-6, -1.0 + 1e-4,
    -0.99982, -0.9, -0.125, 0.125, 0.26, 0.5, 3.0, 50.0, 1e3, 1e6,
)
VERIFY_GRID = [(s, a) for s in (2.0, 3.0, 5.0) for a in (1.0, 1.5, 3.0)]

# n_evals pins with 10% headroom.  HYP and p1_integral were pinned when
# the Euler-Maclaurin tail went in (the march it replaced took 117k evals
# at m = 1), then tightened to the G7/K15 panel counts, 15/22 of the
# 22-eval GL15 + GL7 panel's.  HURWITZ and LAPLACE are pinned at their
# G7/K15 counts.  Tighten a pin when its count falls; never loosen one
# without saying why.
HEADROOM = 1.10
HYP_PINS = {
    (1, -0.5): 242, (1, 0.5): 182, (1, 1000.0): 152,
    (2, -0.5): 272, (2, 0.5): 182, (2, 1000.0): 152,
    (6, -0.5): 257, (6, 0.5): 242, (6, 1000.0): 152,
    (12, -0.5): 272, (12, 0.5): 227, (12, 1000.0): 152,
}
P1_PINS = {
    (2.0, 1.0): 180, (2.0, 1.5): 150, (2.0, 3.0): 120,
    (3.0, 1.0): 180, (3.0, 1.5): 150, (3.0, 3.0): 120,
    (5.0, 1.0): 240, (5.0, 1.5): 210, (5.0, 3.0): 150,
}
HURWITZ_PINS = {
    (1, -0.9): 135, (1, 0.125): 15, (1, 10.0): 135, (1, 1000.0): 315,
    (6, -0.9): 225, (6, 0.125): 15, (6, 10.0): 165, (6, 1000.0): 315,
    (12, -0.9): 255, (12, 0.125): 45, (12, 10.0): 135, (12, 1000.0): 315,
}
LAPLACE_PINS = {
    (1, 0.0): 225, (1, 0.5): 225, (1, 10.0): 375, (1, 1000.0): 615,
    (6, 0.0): 315, (6, 0.5): 315, (6, 10.0): 435, (6, 1000.0): 765,
    (12, 0.0): 345, (12, 0.5): 375, (12, 10.0): 465, (12, 1000.0): 795,
}


class TestOracle:
    @pytest.mark.parametrize("m", ORACLE_MS)
    def test_hyp_within_estimate(self, m, mp_deriv):
        for x in ORACLE_XS:
            r = delta_deriv(m, x, Route.HYP)
            ref = mp_deriv(m, x)
            assert abs(r.value - ref) <= r.abs_err_est, (m, x, r.value, ref)

    @pytest.mark.parametrize("s,a", VERIFY_GRID)
    def test_p1_integral_closed_form(self, s, a):
        # integral_0^inf p1(t) (t+a)^(-s-1) dt = (a^-s/2 + a^(1-s)/(s-1) - zeta(s,a))/s
        mpmath = pytest.importorskip("mpmath")
        r = p1_integral(((a, s + 1.0),), 0.0)
        with mpmath.workdps(40):
            sm, am = mpmath.mpf(s), mpmath.mpf(a)
            ref = float(
                (am**-sm / 2 + am ** (1 - sm) / (sm - 1) - mpmath.zeta(sm, am)) / sm
            )
        assert r.converged
        assert abs(r.value - ref) <= r.abs_err_est, (s, a, r.value, ref)

    def test_tail_weights_are_bernoulli(self):
        # B_2k/(2k)!, checked against an independent exact recurrence
        bern = [Fraction(1)]
        for n in range(1, 2 * len(quad._EM_WEIGHTS) + 1):
            bern.append(
                -sum(math.comb(n + 1, j) * bern[j] for j in range(n)) / Fraction(n + 1)
            )
        for k, w in enumerate(quad._EM_WEIGHTS, start=1):
            exact = bern[2 * k] / math.factorial(2 * k)
            assert w == float(exact), k


class TestEvalCountPins:
    @pytest.mark.parametrize("m,x", sorted(HYP_PINS))
    def test_hyp(self, m, x):
        n = delta_deriv(m, x, Route.HYP).n_evals
        assert n <= HEADROOM * HYP_PINS[m, x], n

    @pytest.mark.parametrize("s,a", VERIFY_GRID)
    def test_p1_integral_verify_grid(self, s, a):
        n = p1_integral(((a, s + 1.0),), 0.0).n_evals
        assert n <= HEADROOM * P1_PINS[s, a], n

    @pytest.mark.parametrize("m,x", sorted(HURWITZ_PINS))
    def test_hurwitz(self, m, x):
        n = delta_deriv(m, x, Route.HURWITZ).n_evals
        assert n <= HEADROOM * HURWITZ_PINS[m, x], n

    @pytest.mark.parametrize("m,x", sorted(LAPLACE_PINS))
    def test_laplace(self, m, x):
        n = delta_deriv(m, x, Route.LAPLACE).n_evals
        assert n <= HEADROOM * LAPLACE_PINS[m, x], n


class TestNearMinusOne:
    # m = 8..12: g peaks within x+1 of t = 0; a first panel that missed
    # the peak once returned about half the value with a tiny estimate.
    # m = 2..5: after the Pfaff map the 2F1 terms sit at argument
    # 1 - (x+1) with integer c - b >= 3, where the defining series once
    # stalled (ConvergenceError) or ran up to 100k terms; the last x is a
    # cross-check draw that raised at m = 2 and 3.
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 8, 10, 12])
    @pytest.mark.parametrize("x", NEAR_MINUS_ONE_XS)
    def test_hyp_matches_closed(self, m, x):
        hyp = delta_deriv(m, x, Route.HYP)
        closed = delta_deriv(m, x, Route.CLOSED)
        assert abs(hyp.value - closed.value) <= hyp.abs_err_est + closed.abs_err_est


class TestArguments:
    @pytest.mark.parametrize(
        "factors",
        [
            (),
            ((1.0, 0.0),),
            ((1.0, -2.0),),
            ((0.0, 2.0),),
            ((-0.5, 2.0),),
            ((math.nan, 2.0),),
            ((1.0, math.inf),),
            ((1.0, 1.0), (math.inf, 2.0)),
        ],
    )
    def test_rejects_factors(self, factors):
        with pytest.raises(ValueError):
            p1_integral(factors, 0.0)

    def test_more_factors_than_hyp_uses(self):
        # (t+1)^-2 (t+2)^-1 split as three factors gives the same integral
        two = p1_integral(((1.0, 2.0), (2.0, 1.0)), 0.0)
        three = p1_integral(((1.0, 1.0), (2.0, 1.0), (1.0, 1.0)), 0.0)
        assert abs(two.value - three.value) <= two.abs_err_est + three.abs_err_est
