"""Special-function primitives against independent oracles."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlgamma import specfun
from nlgamma._backend import kernels
from nlgamma._backend.kernels import (
    laplace_tail_weight,
    trunc_exp_factor,
)
from nlgamma.quad import p1_integral
from nlgamma.specfun import (
    CONSTANTS,
    hurwitz_zeta,
    ln_gamma,
    polygamma,
    riemann_zeta,
    upper_incomplete_gamma_int,
)

EULER_GAMMA = 0.5772156649015328606

# Brute-force series oracles, frozen (generation formulas in comments):
#   sum_{k<=1e7} k^-2 plus the tail 1/N - 1/(2N^2) + 1/(6N^3)
ZETA2_ORACLE = 1.6449340668482264
#   sum_{k<=1e6} k^-4 plus the tail 1/(3N^3) - 1/(2N^4) + 2/(3N^5)
ZETA4_ORACLE = 1.0823232337111381
#   alternating sum_{k<=1e6} (-1)^(k+1) k^-3, divided by (1 - 2^-2)
ZETA3_ORACLE = 1.2020569031595942
#   the defining alternating series of Gamma(0, x) summed to convergence
GAMMA0_AT_1_ORACLE = 0.2193839343955205
#   composite Simpson (n = 4e4 on [0, 80]) of e^-x int_0^inf e^-u/(x+u) du
GAMMA0_AT_10_ORACLE = 4.1569689296857515e-06


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


class TestLnGamma:
    def test_at_one(self):
        assert ln_gamma(1.0) == 0.0

    def test_at_half_is_log_sqrt_pi(self):
        assert rel(ln_gamma(0.5), 0.5 * math.log(math.pi)) < 1e-14

    def test_at_five_is_log_24(self):
        assert rel(ln_gamma(5.0), math.log(24.0)) < 1e-14

    @pytest.mark.parametrize("x", [1e-3, 0.02, 0.7, 1.3, 1.9, 2.4, 3.7, 8.0, 1e3, 1e6])
    def test_against_libm(self, x):
        assert rel(ln_gamma(x), math.lgamma(x)) < 1e-13

    @pytest.mark.parametrize("t", [-1e-6, 1e-6, 3e-7, -4e-8])
    def test_relative_accuracy_near_zeros(self, t):
        # lgamma crosses zero at 1 and 2, where libm itself loses relative
        # accuracy; oracle is the locally exact cubic Taylor polynomial,
        # evaluated at the representable offset the sum actually lands on
        z2, z3 = math.pi**2 / 6.0, ZETA3_ORACLE
        t1 = (1.0 + t) - 1.0
        near_one = -EULER_GAMMA * t1 + z2 * t1 * t1 / 2.0 - z3 * t1**3 / 3.0
        assert rel(ln_gamma(1.0 + t), near_one) < 1e-13
        t2 = (2.0 + t) - 2.0
        near_two = (1.0 - EULER_GAMMA) * t2 + (z2 - 1.0) * t2 * t2 / 2.0 - (
            z3 - 1.0
        ) * t2**3 / 3.0
        assert rel(ln_gamma(2.0 + t), near_two) < 1e-13

    def test_recurrence(self):
        for x in (0.25, 1.7, 6.1, 40.0):
            assert rel(ln_gamma(x + 1.0), ln_gamma(x) + math.log(x)) < 5e-14

    def test_domain_error(self):
        with pytest.raises(ValueError):
            ln_gamma(0.0)
        with pytest.raises(ValueError):
            ln_gamma(-3.2)


class TestPolygamma:
    def test_digamma_at_one(self):
        assert rel(polygamma(0, 1.0), -EULER_GAMMA) < 1e-14

    def test_digamma_at_half(self):
        assert rel(polygamma(0, 0.5), -EULER_GAMMA - 2.0 * math.log(2.0)) < 1e-14

    def test_trigamma_at_half(self):
        assert rel(polygamma(1, 0.5), math.pi**2 / 2.0) < 1e-14

    def test_order_minus_one_is_ln_gamma(self):
        assert polygamma(-1, 3.3) == ln_gamma(3.3)

    @pytest.mark.parametrize("j", range(0, 7))
    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 3.0, 10.0])
    def test_shift_equation(self, j, x):
        lhs = polygamma(j, x + 1.0) - polygamma(j, x)
        rhs = (-1.0) ** j * math.factorial(j) / x ** (j + 1)
        scale = max(abs(polygamma(j, x + 1.0)), abs(polygamma(j, x)), abs(rhs))
        assert abs(lhs - rhs) <= 1e-12 * scale

    @pytest.mark.parametrize("n", range(1, 9))
    def test_half_argument_values(self, n):
        expected = (
            (-1.0) ** (n + 1)
            * math.factorial(n)
            * (2.0 ** (n + 1) - 1.0)
            * riemann_zeta(n + 1.0)
        )
        assert rel(polygamma(n, 0.5), expected) < 1e-12

    @pytest.mark.parametrize("j", range(0, 5))
    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
    def test_finite_difference_consistency(self, j, x):
        h = 1e-5
        fd = (polygamma(j, x + h) - polygamma(j, x - h)) / (2.0 * h)
        assert rel(fd, polygamma(j + 1, x)) < 1e-6

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            polygamma(0, -1.0)
        with pytest.raises(ValueError):
            polygamma(-2, 1.0)


class TestHurwitzZeta:
    def test_basel_value(self):
        assert rel(hurwitz_zeta(2.0, 1.0), ZETA2_ORACLE) < 1e-13

    def test_half_argument(self):
        # psi'(1/2) = 1! * zeta(2, 1/2) and psi'(1/2) = pi^2/2
        assert rel(hurwitz_zeta(2.0, 0.5), math.pi**2 / 2.0) < 1e-13

    @pytest.mark.parametrize("s", [1.5, 2.0, 3.25, 10.0])
    @pytest.mark.parametrize("a", [0.1, 0.5, 1.0, 2.5, 7.0])
    def test_telescoping(self, s, a):
        lhs = hurwitz_zeta(s, a) - hurwitz_zeta(s, a + 1.0)
        assert abs(lhs - a**-s) <= 1e-13 * max(abs(hurwitz_zeta(s, a)), a**-s)

    @given(
        s=st.floats(min_value=1.5, max_value=30.0),
        a=st.floats(min_value=0.05, max_value=50.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_telescoping_property(self, s, a):
        lhs = hurwitz_zeta(s, a) - hurwitz_zeta(s, a + 1.0)
        assert abs(lhs - a**-s) <= 1e-12 * max(hurwitz_zeta(s, a), a**-s)

    def test_brute_force_extreme_parameters(self):
        # 4000 exactly-representable positive terms, monotone decreasing
        brute = math.fsum((1000.0 + k) ** -60.0 for k in range(4000))
        assert rel(hurwitz_zeta(60.0, 1000.0), brute) < 1e-14

    @pytest.mark.parametrize("s", [13.0, 30.0])
    @pytest.mark.parametrize("a", [24.0, 45.0, 100.0, 1000.0])
    def test_large_a_skips_direct_sum(self, s, a):
        # a >= 10 + s: Euler-Maclaurin starts at a itself.  1e5 terms leave
        # a tail below 1e-24 relative.
        brute = math.fsum((a + k) ** -s for k in range(100_000))
        assert rel(hurwitz_zeta(s, a), brute) <= 4e-16

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            hurwitz_zeta(1.0, 1.0)
        with pytest.raises(ValueError):
            hurwitz_zeta(2.0, 0.0)


class TestRiemannZeta:
    def test_frozen_oracles(self):
        assert rel(riemann_zeta(2.0), ZETA2_ORACLE) < 1e-13
        assert rel(riemann_zeta(3.0), ZETA3_ORACLE) < 1e-12
        assert rel(riemann_zeta(4.0), ZETA4_ORACLE) < 1e-13

    def test_even_closed_forms(self):
        assert rel(riemann_zeta(2.0), math.pi**2 / 6.0) < 1e-14
        assert rel(riemann_zeta(4.0), math.pi**4 / 90.0) < 1e-14
        assert rel(riemann_zeta(6.0), math.pi**6 / 945.0) < 1e-14

    def test_bitwise_same_as_hurwitz_at_one(self):
        for s in (1.5, 2.0, 7.3, 41.0):
            assert riemann_zeta(s) == hurwitz_zeta(s, 1.0)

    def test_sawtooth_integral_form(self):
        # zeta(3) = 1/2 + 1/2 + 3 * integral_1^inf p1(x)/x^4 dx residual
        r = p1_integral(((1.0, 4.0),))
        lhs = 0.5 + 0.5 - 3.0 * r.value
        assert abs(lhs - riemann_zeta(3.0)) < 1e-10

    def test_domain_error(self):
        with pytest.raises(ValueError):
            riemann_zeta(0.99)


class TestUpperIncompleteGamma:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 12])
    def test_at_zero_is_factorial(self, n):
        assert upper_incomplete_gamma_int(n, 0.0) == float(math.factorial(n))

    @pytest.mark.parametrize("x", [0.0, 0.3, 2.0, 40.0])
    def test_order_zero_is_exp(self, x):
        assert rel(upper_incomplete_gamma_int(0, x), math.exp(-x)) < 1e-15

    def test_n2_x1_closed_form(self):
        # Gamma(3, 1) = 2! e^-1 (1 + 1 + 1/2) = 5/e
        assert rel(upper_incomplete_gamma_int(2, 1.0), 5.0 / math.e) < 1e-15

    def test_recurrence_in_n(self):
        # Gamma(n+1, x) = n Gamma(n, x) + x^n e^-x
        for n in (1, 2, 7):
            for x in (0.5, 3.0, 20.0):
                lhs = upper_incomplete_gamma_int(n, x)
                rhs = n * upper_incomplete_gamma_int(n - 1, x) + x**n * math.exp(-x)
                assert rel(lhs, rhs) < 1e-14

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            upper_incomplete_gamma_int(-1, 1.0)
        with pytest.raises(ValueError):
            upper_incomplete_gamma_int(2, -1.0)


class TestOneDomainCheck:
    """ln_gamma, hurwitz_zeta and upper_incomplete_gamma_int are the
    kernels themselves, whose checks name the argument and its value."""

    @pytest.mark.parametrize(
        "name", ["ln_gamma", "hurwitz_zeta", "upper_incomplete_gamma_int"]
    )
    def test_reexported_kernel(self, name):
        assert getattr(specfun, name) is getattr(kernels, name)

    @pytest.mark.parametrize(
        "fn,args,message",
        [
            (ln_gamma, (-3.2,), "ln_gamma: need x > 0, got -3.2"),
            (hurwitz_zeta, (1.0, 1.0), "hurwitz_zeta: need s > 1, got 1.0"),
            (hurwitz_zeta, (2.0, 0.0), "hurwitz_zeta: need a > 0, got 0.0"),
            (
                upper_incomplete_gamma_int,
                (-1, 1.0),
                "upper_incomplete_gamma_int: need n >= 0, got -1",
            ),
            (
                upper_incomplete_gamma_int,
                (2, -1.0),
                "upper_incomplete_gamma_int: need 0 <= x < inf, got -1.0",
            ),
        ],
    )
    def test_messages(self, fn, args, message):
        with pytest.raises(ValueError) as info:
            fn(*args)
        assert str(info.value) == message


class TestRouteIntegrands:
    @pytest.mark.parametrize("m", [1, 4, 12])
    def test_trunc_exp_factor_against_mpmath(self, m):
        mpmath = pytest.importorskip("mpmath")
        switch = m + 1 + 2.0 * math.sqrt(m + 1)
        ys = (1e-3, 0.5, 0.9 * switch, switch, 1.001 * switch, m + 30.0, 100.0)
        ys += (745.0, 745.3, 1e4, 1e8)
        for y in ys:
            with mpmath.workdps(40):
                ref = mpmath.gammainc(m + 1, 0, y) / mpmath.mpf(y) ** (m + 1)
            assert rel(trunc_exp_factor(m, y), float(ref)) <= 1.5e-15, y

    @pytest.mark.parametrize("m", [1, 6, 12])
    @pytest.mark.parametrize("x", [0.0, 0.5, 100.0, 1e4])
    def test_laplace_tail_weight_bounds_the_tail(self, m, x):
        mpmath = pytest.importorskip("mpmath")
        big_t = 50.0 + m * math.log(50.0)
        with mpmath.workdps(30):

            def f(t):
                y = x * t
                if not y:
                    return t**m / mpmath.expm1(t) / (m + 1)
                em = mpmath.gammainc(m + 1, 0, y) / y ** (m + 1)
                return t**m / mpmath.expm1(t) * em

            tail = float(mpmath.quad(f, [big_t, 2 * big_t, mpmath.inf]))
        weight = laplace_tail_weight(m, x, big_t)
        # tight to about e^-T relative: only rounding may put it below
        assert tail <= (1.0 + 4e-15) * weight, (tail, weight)
        assert weight <= 1.1 * tail, (tail, weight)


def gamma_zero(x):
    """Gamma(0, x) from the one kernel that carries it: kernels.ei_defect(x)
    is gamma - x + Gamma(0, x) + ln x."""
    return kernels.ei_defect(x) - EULER_GAMMA + x - math.log(x)


class TestGammaZero:
    def test_at_one(self):
        assert rel(gamma_zero(1.0), GAMMA0_AT_1_ORACLE) < 1e-12

    def test_at_ten(self):
        # Gamma(0, 10) is 6e-7 of ei_defect(10): only the kernel's own
        # relative error can be checked there
        expected = EULER_GAMMA - 10.0 + GAMMA0_AT_10_ORACLE + math.log(10.0)
        assert rel(kernels.ei_defect(10.0), expected) < 1e-13

    @pytest.mark.parametrize(
        "t", [1.0, 5.0, 10.0, 13.9, 14.1, 20.0, 29.999, 30.001, 40.0]
    )
    def test_ei_defect_against_mpmath(self, t):
        # the alternating series once used up to t = 30 lost 6.2e-12
        # relative at t = 20 and 1.1e-7 at t = 29.999
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            ref = float(mpmath.euler + mpmath.log(t) - t + mpmath.e1(t))
        assert rel(kernels.ei_defect(t), ref) < 2e-15

    def test_small_x_log_limit(self):
        # Gamma(0, x) + ln x + gamma -> 0 as x -> 0+
        x = 1e-8
        assert abs(gamma_zero(x) + math.log(x) + EULER_GAMMA) < 2e-8

    def test_derivative_identity(self):
        # d/dx Gamma(0, x) = -e^-x / x, so ei_defect' = (1 - e^-x)/x - 1;
        # taken on ei_defect, as Gamma(0, 8) is 5e-6 of ei_defect(8)
        h = 1e-6
        for x in (0.5, 2.0, 8.0):
            fd = (kernels.ei_defect(x + h) - kernels.ei_defect(x - h)) / (2.0 * h)
            assert rel(fd, -math.expm1(-x) / x - 1.0) < 1e-8

    def test_domain_error(self):
        with pytest.raises(ValueError):
            gamma_zero(0.0)


class TestConstants:
    def test_euler_gamma_vs_digamma(self):
        assert abs(CONSTANTS.euler_gamma + polygamma(0, 1.0)) <= 1e-14

    def test_zeta_table_matches_riemann(self):
        for k in range(2, specfun.K_MAX + 1):
            assert rel(CONSTANTS.zeta_values[k], riemann_zeta(float(k))) <= 1e-14

    def test_zeta_minus_one_consistency(self):
        for k in (2, 3, 10, 30):
            assert (
                abs(CONSTANTS.zeta_minus_one_values[k] - (CONSTANTS.zeta_values[k] - 1.0))
                <= 1e-15 * CONSTANTS.zeta_values[k]
            )

    def test_sawtooth_zeta_representation_grid(self):
        for s in (2.0, 3.0, 5.0):
            for a in (1.0, 1.5, 3.0):
                r = p1_integral(((a, s + 1.0),))
                lhs = a**-s / 2.0 + a ** (1.0 - s) / (s - 1.0) - s * r.value
                assert abs(lhs - hurwitz_zeta(s, a)) < 1e-9
