"""The sawtooth integral p1_integral and the HYP route built on it:
values against an mpmath oracle, evaluation-count pins, and the
x -> -1 edge where the integrand peaks inside the first panel."""

import math
from fractions import Fraction

import pytest

from nlgamma import quad
from nlgamma.delta import Route, delta_deriv
from nlgamma.quad import p1_integral

ORACLE_MS = (1, 2, 3, 6, 10, 12)
ORACLE_XS = (-0.99982, -0.9, -0.125, 0.125, 0.26, 0.5, 3.0, 50.0, 1e3, 1e6)
VERIFY_GRID = [(s, a) for s in (2.0, 3.0, 5.0) for a in (1.0, 1.5, 3.0)]

# n_evals pins: the counts reached when the Euler-Maclaurin tail went in,
# with 10% headroom.  The march they replace took 117k evals at m = 1, so
# a silent return to it fails here.  Tighten a pin when its count falls;
# never loosen one without saying why.
HEADROOM = 1.10
HYP_PINS = {
    (1, -0.5): 354, (1, 0.5): 266, (1, 1000.0): 222,
    (2, -0.5): 398, (2, 0.5): 266, (2, 1000.0): 222,
    (6, -0.5): 376, (6, 0.5): 354, (6, 1000.0): 222,
    (12, -0.5): 398, (12, 0.5): 332, (12, 1000.0): 222,
}
P1_PINS = {
    (2.0, 1.0): 264, (2.0, 1.5): 220, (2.0, 3.0): 176,
    (3.0, 1.0): 264, (3.0, 1.5): 220, (3.0, 3.0): 176,
    (5.0, 1.0): 352, (5.0, 1.5): 308, (5.0, 3.0): 220,
}


def _mp_deriv(mpmath, m, x):
    """D^(m)(x) = sum_j C(m,j) psi^(m-j-1)(x+1) (-1)^j j! / x^(j+1),
    with psi^(-1) = ln Gamma, at 60 digits (the grid avoids small |x|)."""
    with mpmath.workdps(60):
        xm = mpmath.mpf(x)
        total = mpmath.mpf(0)
        for j in range(m + 1):
            order = m - j - 1
            psi = mpmath.loggamma(xm + 1) if order < 0 else mpmath.psi(order, xm + 1)
            term = mpmath.binomial(m, j) * mpmath.factorial(j) * psi / xm ** (j + 1)
            total += -term if j % 2 else term
        return float(total)


class TestOracle:
    @pytest.mark.parametrize("m", ORACLE_MS)
    def test_hyp_within_estimate(self, m):
        mpmath = pytest.importorskip("mpmath")
        for x in ORACLE_XS:
            r = delta_deriv(m, x, Route.HYP)
            ref = _mp_deriv(mpmath, m, x)
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


class TestNearMinusOne:
    @pytest.mark.parametrize("m", [8, 10, 12])
    @pytest.mark.parametrize("x", [-0.99982, -0.9999])
    def test_hyp_matches_closed(self, m, x):
        # g peaks within x+1 of t = 0; a first panel that misses the peak
        # once returned about half the value with a tiny estimate
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
