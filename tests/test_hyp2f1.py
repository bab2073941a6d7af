"""Gauss 2F1 families, transformations, and the appendix-style identities."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlgamma.hyp2f1 import (
    D25_TRIPLES,
    gauss_2f1,
    hyp_identity_residual,
    hyp_recurrence_descent,
    pochhammer,
    _log_branch,
    _series,
)
from nlgamma.quad import integrate_finite, pointwise

# the tolerances of hyp2f1's identity quadratures
_TOLS = {"rel_tol": 1e-12, "abs_tol": 5e-300}


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(3.7, 0) == 1.0

    def test_of_one_is_factorial(self):
        for j in range(8):
            assert pochhammer(1.0, j) == float(math.factorial(j))

    def test_3_raised_4(self):
        assert pochhammer(3.0, 4) == 360.0

    @given(
        a=st.floats(min_value=-5.0, max_value=5.0),
        j=st.integers(min_value=0, max_value=12),
    )
    @settings(max_examples=50, deadline=None)
    def test_recurrence(self, a, j):
        assert pochhammer(a, j + 1) == pytest.approx(
            pochhammer(a, j) * (a + j), rel=1e-13, abs=1e-300
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            pochhammer(1.0, -1)


class TestGauss2F1Values:
    def test_at_zero_is_one(self):
        assert gauss_2f1(2.5, -3.3, 7.1, 0.0) == 1.0
        # the series length is found in logs, where a subnormal z or
        # parameter is finite
        assert gauss_2f1(1.0, 1.0, 3.0, 5e-324) == 1.0
        assert gauss_2f1(1e-200, 1e-200, 1.0, 0.5) == 1.0

    @pytest.mark.parametrize("n", range(0, 7))
    def test_unit_argument_summation(self, n):
        # F(1, n+1; n+3; 1) = n+2 by the Gauss summation theorem
        assert rel(gauss_2f1(1.0, n + 1.0, n + 3.0, 1.0), n + 2.0) < 1e-13

    def test_diagonal_at_minus_one(self):
        # (1/2) F(2,2;3;-1) equals the moment integral ln 2 - 1/2
        assert rel(gauss_2f1(2.0, 2.0, 3.0, -1.0), 2.0 * (math.log(2.0) - 0.5)) < 1e-13

    @pytest.mark.parametrize("p", range(2, 13))
    def test_diagonal_family_against_mpmath(self, p):
        # the alternating series was off by up to 8.6e-4 relative here
        # (p = 12, z = -0.9) and by 1.1e-12 at z = -0.5
        mpmath = pytest.importorskip("mpmath")
        zs = [-0.5 - 0.01 * i for i in range(41)] + [-0.3, -0.1, -1e-3, -1e-12]
        with mpmath.workdps(40):
            for z in zs:
                exact = float(mpmath.hyp2f1(p, p, p + 1, z))
                assert rel(gauss_2f1(float(p), float(p), p + 1.0, z), exact) < 2e-15, z

    def test_elementary_log_case(self):
        # F(1,1;2;z) = -ln(1-z)/z
        for z in (-5.0, -0.3, 0.4, 0.93):
            assert rel(gauss_2f1(1.0, 1.0, 2.0, z), -math.log1p(-z) / z) < 1e-12

    def test_elementary_122_case(self):
        # F(1,2;3;z) = 2 (-ln(1-z) - z)/z^2
        for z in (-8.0, -1.0, 0.5, 0.95):
            exact = 2.0 * (-math.log1p(-z) - z) / (z * z)
            assert rel(gauss_2f1(1.0, 2.0, 3.0, z), exact) < 1e-12

    def test_binomial_case(self):
        # F(a, b; b; z) = (1-z)^(-a) for any b (series telescopes)
        for z in (0.3, -0.7):
            assert rel(gauss_2f1(2.0, 4.0, 4.0, z), (1.0 - z) ** -2.0) < 1e-13
        # for z < 0 Pfaff leaves F(2, 0; 4; w) = 1 times the power itself
        assert gauss_2f1(2.0, 4.0, 4.0, -0.7) == 1.7**-2.0

    def test_moment_integral_representation(self):
        # F(n+2, n+2; n+3; -x) = (n+2) int_0^1 u^(n+1) (xu+1)^(-(n+2)) du
        for n in (0, 3, 8):
            for x in (0.3, 1.0, 7.0, 50.0):
                q = integrate_finite(
                    pointwise(lambda u: u ** (n + 1) / (x * u + 1.0) ** (n + 2)),
                    0.0,
                    1.0,
                    **_TOLS,
                )
                assert rel(gauss_2f1(n + 2.0, n + 2.0, n + 3.0, -x), (n + 2) * q.value) < 1e-11

    def test_euler_integral_representation(self):
        # F(1, b; c; z) = (c-1) B(b, c-b)^-1 ... reduces for b=1 to
        # (c-1) int_0^1 (1-t)^(c-2) (1-z t)^(-1) dt
        for c in (3.0, 6.5):
            for z in (-20.0, -0.5, 0.6, 0.97):
                q = integrate_finite(
                    pointwise(lambda t: (1.0 - t) ** (c - 2.0) / (1.0 - z * t)),
                    0.0,
                    1.0,
                    **_TOLS,
                )
                assert rel(gauss_2f1(1.0, 1.0, c, z), (c - 1.0) * q.value) < 1e-10

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gauss_2f1(1.0, 2.0, 0.0, 0.5)  # c non-positive integer
        with pytest.raises(ValueError):
            gauss_2f1(1.0, 2.0, 3.0, 1.5)  # argument beyond 1
        with pytest.raises(ValueError):
            gauss_2f1(1.0, 3.0, 3.5, 1.0)  # zero parameter excess at z = 1
        with pytest.raises(ValueError):
            gauss_2f1(1.0, 5.0, 3.0, -0.5)  # Pfaff image has c - b = -2
        with pytest.raises(ValueError):
            gauss_2f1(-0.5, 1.0, 2.0, 0.3)  # negative a
        with pytest.raises(ValueError):
            gauss_2f1(1.0, 2.0, -2.5, 0.3)  # negative c

    @pytest.mark.parametrize(
        "call,name",
        [
            pytest.param(lambda: gauss_2f1(1.0, math.nan, 3.0, 0.5), "b", id="b=nan"),
            pytest.param(lambda: gauss_2f1(1.0, 2.0, math.inf, 0.5), "c", id="c=inf"),
            pytest.param(lambda: gauss_2f1(1.0, 2.0, 3.0, -math.inf), "z", id="z=-inf"),
            pytest.param(lambda: gauss_2f1(math.nan, 2.0, 3.0, 0.5), "a", id="a=nan"),
            pytest.param(lambda: gauss_2f1(-math.inf, 2.0, 3.0, -0.5), "a", id="a=-inf"),
            pytest.param(lambda: gauss_2f1(1.0, 2.0, math.nan, 0.5), "c", id="c=nan"),
            pytest.param(lambda: gauss_2f1(1.0, 2.0, 3.0, math.nan), "z", id="z=nan"),
        ],
    )
    def test_non_finite_argument_refused(self, call, name):
        # nan once came back as nan, c = inf raised OverflowError and a
        # nan or -inf z "cannot convert float NaN to integer"
        with pytest.raises(ValueError, match=f"gauss_2f1: {name} must be finite"):
            call()

    def test_series_stall_flagged(self):
        from nlgamma.hyp2f1 import ConvergenceError

        with pytest.raises(ConvergenceError):
            # zero excess and z overwhelmingly close to 1: the series
            # cannot reach tolerance within its term budget
            _series(1.0, 5.0, 6.0, 1.0 - 1e-12)

    @given(
        b=st.floats(min_value=0.5, max_value=9.0),
        c_excess=st.floats(min_value=0.5, max_value=4.0),
        z=st.floats(min_value=-30.0, max_value=0.89),
    )
    @settings(max_examples=40, deadline=None)
    def test_gauss_contiguous_property(self, b, c_excess, z):
        # c F(a, b; c; z) - c F(a, b+1; c; z) + a z F(a+1, b+1; c+1; z) = 0
        a = 1.0
        c = b + 1.0 + c_excess
        lhs = c * gauss_2f1(a, b, c, z) - c * gauss_2f1(a, b + 1.0, c, z)
        rhs = -a * z * gauss_2f1(a + 1.0, b + 1.0, c + 1.0, z)
        scale = max(abs(lhs), abs(rhs), 1.0)
        # the (2,*) family rides through Pfaff + series; allow headroom
        assert abs(lhs - rhs) <= 2e-10 * scale


class TestAgainstMpmath:
    """gauss_2f1 on the parameter families the package reaches, within the
    4e-15 the log-branch test allows."""

    @staticmethod
    def check(a, b, c, z, tol=4e-15):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            ref = float(mpmath.hyp2f1(a, b, c, z))
        assert rel(gauss_2f1(a, b, c, z), ref) < tol, (a, b, c, z)

    @given(
        b=st.integers(min_value=1, max_value=13),
        c_minus_b=st.integers(min_value=1, max_value=14),
        z=st.floats(min_value=-30.0, max_value=0.9),
    )
    # the log branch at w = 1 - z/(z-1) = 0.099 was 4.1e-15 off here: its
    # bracket ln w - psi(1) + psi(11) and its two parts cancel
    @example(b=2, c_minus_b=10, z=-9.09375)
    @settings(max_examples=150, deadline=None)
    def test_a1_family(self, b, c_minus_b, z):
        # integer b and c, as HYP, A1, A4, T26 and D25 pass them
        self.check(1.0, float(b), float(b + c_minus_b), z)

    @given(
        b=st.floats(min_value=0.5, max_value=13.0),
        c_minus_b=st.floats(min_value=0.5, max_value=14.0),
        z=st.floats(min_value=-30.0, max_value=0.9),
    )
    @example(b=1.0000000000009095, c_minus_b=1.0, z=-10.0)
    @settings(max_examples=150, deadline=None)
    def test_a1_family_real_parameters(self, b, c_minus_b, z):
        # for z < 0 the Pfaff map rounds c - b to a double, which F can
        # amplify: up to 9.4e-15 on 44,000 draws near integer b
        self.check(1.0, b, b + c_minus_b, z, tol=2e-14)

    @given(
        p=st.integers(min_value=2, max_value=12),
        z=st.floats(min_value=-30.0, max_value=0.9),
    )
    @settings(max_examples=100, deadline=None)
    def test_diagonal_family(self, p, z):
        # for z < 0 Pfaff gives (1-z)^(-p) F(1, p; p+1; z/(z-1)): the
        # roundings of z/(z-1) and of the power add to the evaluator's,
        # 4.08e-15 at p = 12, z = -15.09, the worst of 33,000 points
        self.check(float(p), float(p), p + 1.0, z, tol=5e-15)

    @pytest.mark.parametrize("z", [0.95, 0.99, 0.999, 0.9999, 1.0 - 1e-8])
    @pytest.mark.parametrize("p", [2, 12])
    def test_diagonal_family_near_one(self, p, z):
        # past z = 0.9 Euler's (1-z)^(1-p) F(1, 1; p+1; z): within 3.0e-16
        # on 3,000 draws (p = 2..12, z to 1 - 1e-15); the plain series it
        # replaced was 6.1e-15 off at p = 12, z = 0.99 (7,816 terms), 1.2e-14
        # by z = 0.999, and raised ConvergenceError at z = 0.9999
        self.check(float(p), float(p), p + 1.0, z, tol=1e-15)

    @given(
        i=st.integers(min_value=0, max_value=len(D25_TRIPLES) - 1),
        shift=st.sampled_from([0.0, 1.0]),
        z=st.floats(min_value=-30.0, max_value=0.9),
    )
    @settings(max_examples=100, deadline=None)
    def test_d25_triples(self, i, shift, z):
        a, b, c = D25_TRIPLES[i]
        self.check(a + shift, b + shift, c + shift, z)


class TestLogBranches:
    @pytest.mark.parametrize("n", range(0, 7))
    def test_branch_continuity_at_switch(self, n):
        # the two evaluators at z = 0.9, where both apply; gauss_2f1
        # switches between them by the series' length
        y = n + 1.0
        for c_minus_b in (1.0, 2.0, 3.0):
            c = y + c_minus_b
            assert rel(_series(1.0, y, c, 0.9), _log_branch(y, c, 0.9)) < 1e-10

    @pytest.mark.parametrize("c_minus_b", range(1, 15))
    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0, 3.7, 13.0])
    def test_log_branch_against_mpmath(self, b, c_minus_b):
        # c - b up to 14 covers the Pfaff images HYP reaches at m <= 12
        mpmath = pytest.importorskip("mpmath")
        c = b + c_minus_b
        for z in (0.9, 0.99, 0.9999, 1.0 - 1e-8, 1.0 - 1e-12):
            with mpmath.workdps(30):
                ref = float(mpmath.hyp2f1(1, b, c, z))
            assert rel(_log_branch(b, c, z), ref) < 4e-15, z
            assert rel(gauss_2f1(1.0, b, c, z), ref) < 4e-15, z

    def test_series_stop_counts_the_rest(self):
        # the terms of (1, 1; 4; z) fall like 6 z^k/k^3, so near z = 1 the
        # rest after a small term is far larger than the term: the series
        # must run on (here past its budget), not stop early
        from nlgamma.hyp2f1 import ConvergenceError

        with pytest.raises(ConvergenceError):
            _series(1.0, 1.0, 4.0, 0.9999)

    @pytest.mark.parametrize(
        "b,c,z", [(1.0, 14.0, 0.999999), (5.0, 18.0, 1.0 - 1e-9)]
    )
    def test_series_stops_near_one(self, b, c, z):
        # c - b = 13 makes the terms fall like k^-13 as well as z^k; a
        # length bound from z^k alone would pass the term budget here
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            ref = float(mpmath.hyp2f1(1, b, c, z))
        assert rel(_series(1.0, b, c, z), ref) < 4e-15

    def test_deep_near_one(self):
        # against elementary closed forms at z = 0.999:
        # F(1,1;2;z) = -ln(1-z)/z,  F(1,1;3;z) = 2[(z-1)(-ln(1-z)) + z]/z^2
        z = 0.999
        assert rel(gauss_2f1(1.0, 1.0, 2.0, z), -math.log1p(-z) / z) < 1e-12
        exact = 2.0 * ((z - 1.0) * -math.log1p(-z) + z) / (z * z)
        assert rel(gauss_2f1(1.0, 1.0, 3.0, z), exact) < 1e-12


class TestDescent:
    @pytest.mark.parametrize("n", range(0, 9))
    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.0, 10.0])
    def test_descent_reproduces_direct(self, n, x):
        assert rel(
            hyp_recurrence_descent(n, x), gauss_2f1(1.0, n + 2.0, n + 3.0, -x)
        ) < 1e-9


class TestIdentityResiduals:
    XS = (0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 15.0, 20.0)

    @pytest.mark.parametrize("tag", ["A1", "A2", "A4", "T26"])
    def test_identities_across_grid(self, tag):
        for n in range(0, 9):
            for x in self.XS:
                r = hyp_identity_residual(tag, n, x)
                assert r.passed, (tag, n, x, r.residual, r.tolerance)

    def test_a5_identity(self):
        for n in range(0, 9):
            for x in (0.0, 0.5, 1.0, 2.5, 5.0, 7.5, 10.0, 15.0, 20.0):
                r = hyp_identity_residual("A5", n, x)
                assert r.passed, (n, x, r.residual)

    def test_a2_example_value(self):
        # n=0, x=1: both sides equal ln 2 - 1/2
        r = hyp_identity_residual("A2", 0, 1.0)
        assert abs(r.lhs - (math.log(2.0) - 0.5)) < 1e-12
        assert abs(r.residual) < 1e-10

    def test_t26_trivial_point(self):
        r = hyp_identity_residual("T26", 3, 0.0)
        assert r.lhs == 1.0 and abs(r.rhs - 1.0) < 1e-12

    def test_a6_slack_chain(self):
        # n=2, x=1: inner integral 1/2 <= 2/3 <= 1
        r = hyp_identity_residual("A6", 2, 1.0)
        assert abs(r.lhs - 0.5) < 1e-12
        assert abs(r.rhs - 2.0 / 3.0) < 1e-14
        assert r.passed and r.residual > 0.0

    def test_a6_grid_nonnegative(self):
        for n in range(0, 7):
            for i in range(11):
                assert hyp_identity_residual("A6", n, i / 10.0).passed

    def test_a6_domain(self):
        with pytest.raises(ValueError):
            hyp_identity_residual("A6", 1, 1.5)

    @pytest.mark.parametrize("abc", D25_TRIPLES)
    @pytest.mark.parametrize("x", [0.5, 2.0])
    def test_derivative_rule(self, abc, x):
        r = hyp_identity_residual("D25", 0, x, abc=abc)
        assert r.passed
        scale = max(abs(r.lhs), abs(r.rhs))
        assert abs(r.residual) <= 1e-6 * scale

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            hyp_identity_residual("A3", 0, 1.0)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            hyp_identity_residual("A1", -1, 1.0)
        with pytest.raises(ValueError):
            hyp_identity_residual("A1", 0, -0.5)

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    @pytest.mark.parametrize("tag", ["A1", "A2", "A4", "A5", "A6", "T26"])
    def test_non_finite_x_refused(self, tag, x):
        # refused by name: a nan x once reached gauss_2f1 ("z must be
        # finite") or integrate_finite ("needs finite ends") first
        with pytest.raises(ValueError, match=r"hyp_identity_residual: need 0 <= x < inf"):
            hyp_identity_residual(tag, 0, x)
