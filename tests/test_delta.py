"""The normalized log-gamma function: routes, special values, moment
integrals, asymptotics, and the sign-pattern certificate."""

import importlib
import math

import pytest

from nlgamma import quad, specfun, verify
from nlgamma._backend import kernels
from nlgamma._ddarith import X_MAX
from nlgamma.delta import (
    MAX_DERIV_ORDER,
    EvalResult,
    _ROUTE_IMPL,
    Route,
    _prop2_rhs,
    asymptotic_leading,
    check_complete_monotonicity,
    delta,
    delta_deriv,
    delta_deriv_at_one,
    delta_deriv_half_integer,
    frac_rep_prop2,
    integral_delta,
    integral_delta_squared,
    recurrence_residual,
)
from nlgamma.specfun import CONSTANTS

G = CONSTANTS.euler_gamma
ROUTE_GRID = (-0.9, -0.5, -0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0)


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


class TestDeltaValue:
    def test_at_zero(self):
        assert delta(0.0) == -G

    def test_at_one(self):
        assert delta(1.0) == 0.0

    def test_at_minus_half(self):
        # ln Gamma(1/2) / (-1/2) = -ln pi
        assert rel(delta(-0.5), -math.log(math.pi)) < 1e-14

    @pytest.mark.parametrize("x", [0.1249, -0.1249, 0.0031, -0.0625])
    def test_series_matches_direct_form(self, x):
        direct = kernels.ln_gamma(x + 1.0) / x
        assert abs(delta(x) - direct) < 1e-13 * max(1.0, abs(direct))

    def test_domain(self):
        with pytest.raises(ValueError):
            delta(-1.0)

    @pytest.mark.parametrize("x", [math.inf, math.nan])
    def test_non_finite_x_rejected(self, x):
        with pytest.raises(ValueError, match="domain"):
            delta(x)


class TestRouteAgreement:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_pairwise_grid(self, m):
        for x in ROUTE_GRID:
            routes = [Route.CLOSED, Route.HURWITZ, Route.HYP]
            if x >= 0.0:
                routes.append(Route.LAPLACE)
            vals = [delta_deriv(m, x, r) for r in routes]
            for i in range(len(vals)):
                for j in range(i + 1, len(vals)):
                    a, b = vals[i], vals[j]
                    tol = max(1e-8 * max(abs(a.value), abs(b.value)), 1e-10)
                    assert abs(a.value - b.value) <= tol, (m, x, a.route, b.route)

    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    def test_error_estimates_honest(self, m):
        # cross-route gaps must not exceed ten times the summed estimates,
        # for every applicable pair
        for x in ROUTE_GRID:
            routes = [Route.CLOSED, Route.HURWITZ, Route.HYP]
            if x >= 0.0:
                routes.append(Route.LAPLACE)
            vals = [delta_deriv(m, x, r) for r in routes]
            for i in range(len(vals)):
                for j in range(i + 1, len(vals)):
                    a, b = vals[i], vals[j]
                    assert abs(a.value - b.value) <= 10.0 * (
                        a.abs_err_est + b.abs_err_est
                    ), (m, x, a.route, b.route)

    @pytest.mark.parametrize("m", range(1, 13))
    def test_pair_budget(self, m):
        # every pair of applicable routes within the sum of their
        # estimates, on the routes suite's grid and out to 1e6 and -0.99
        for x in (*verify.ROUTE_GRID_X, 1e3, 1e6, -0.99):
            routes = [Route.CLOSED, Route.HURWITZ, Route.HYP]
            if x >= 0.0:
                routes.append(Route.LAPLACE)
            if abs(x) <= X_MAX:
                routes.append(Route.SERIES)
            vals = [delta_deriv(m, x, r) for r in routes]
            for i, a in enumerate(vals):
                for b in vals[i + 1 :]:
                    gap = abs(a.value - b.value)
                    assert gap <= a.abs_err_est + b.abs_err_est, (m, x, a, b)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_taylor_consistency_small_x(self, m):
        for x in (-0.12, -0.06, 0.01, 0.05, 0.12):
            s = delta_deriv(m, x, Route.SERIES)
            c = delta_deriv(m, x, Route.CLOSED)
            assert abs(s.value - c.value) <= 1e-10 * max(1.0, abs(c.value)), (m, x)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("x", [0.5, 1.0, 3.0])
    def test_derivative_chaining(self, m, x):
        h = 1e-5
        fd = (
            delta_deriv(m, x + h, Route.CLOSED).value
            - delta_deriv(m, x - h, Route.CLOSED).value
        ) / (2.0 * h)
        nxt = delta_deriv(m + 1, x, Route.CLOSED).value
        assert rel(fd, nxt) < 1e-5

    @pytest.mark.parametrize("x", [2.0**53, 1e16, 1e300])
    def test_hyp_refuses_z_rounding_to_one(self, x):
        with pytest.raises(ValueError, match=r"domain error: HYP route needs x/\(x \+ 1\) < 1"):
            delta_deriv(1, x, Route.HYP)
        assert delta_deriv(2, 2.0**53 - 1.0, Route.HYP).converged

    @pytest.mark.parametrize(
        "m,x,expected",
        [(2, 1.0781075106225802e161, -8.4e-323), (10, 6.873199606905683e32, -1.5e-323)],
    )
    def test_laplace_range_edges_answer(self, m, x, expected, mp_deriv):
        # among the subnormals each rounding is absolute: the estimate was
        # 0.0 here, and -1e-323 at m = 10 missed; it now charges
        # (n_evals + 9 T) 2^-1074
        r = delta_deriv(m, x, Route.LAPLACE)
        assert r.converged
        assert abs(r.value - mp_deriv(m, x)) <= r.abs_err_est
        assert abs(r.value - expected) <= r.abs_err_est

    def test_route_preconditions(self):
        # CLOSED answers at the removable point x = 0
        assert delta_deriv(1, 0.0, Route.CLOSED).route is Route.CLOSED
        with pytest.raises(ValueError):
            delta_deriv(1, -0.5, Route.LAPLACE)
        with pytest.raises(ValueError):
            delta_deriv(1, 0.5, Route.RECURRENCE)  # needs m >= 2
        with pytest.raises(ValueError):
            delta_deriv(2, 0.0, Route.RECURRENCE)
        with pytest.raises(ValueError):
            delta_deriv(1, 0.6, Route.SERIES)  # beyond the series domain cap
        with pytest.raises(ValueError):
            delta_deriv(0, 1.0)
        with pytest.raises(ValueError):
            delta_deriv(MAX_DERIV_ORDER + 1, 1.0)
        with pytest.raises(ValueError):
            delta_deriv(1, -1.5)

    @pytest.mark.parametrize("route", [None] + list(Route))
    def test_infinite_x_rejected(self, route):
        with pytest.raises(ValueError, match="domain"):
            delta_deriv(1, math.inf, route)

    @pytest.mark.parametrize("route", [None] + list(Route))
    @pytest.mark.parametrize("m", [2.5, 2.0])
    def test_non_integer_m_rejected(self, route, m):
        with pytest.raises(ValueError, match="domain error: need an integer"):
            delta_deriv(m, 0.5, route)

    def test_one_table_entry_per_route(self):
        assert set(_ROUTE_IMPL) == set(Route)
        with pytest.raises(ValueError, match="unsupported route"):
            delta_deriv(1, 0.5, "CLOSED")

    def test_default_route_selection(self):
        for x in (0.0, 0.1, 0.2, 5.0):
            assert delta_deriv(1, x).route is Route.CLOSED, x

    def test_recurrence_route_value(self):
        r = delta_deriv(2, 1.0, Route.RECURRENCE)
        assert rel(r.value, math.pi**2 / 6.0 - 3.0 + 2.0 * G) < 1e-12


class TestSpecialValues:
    def test_first_derivative_at_zero(self):
        # pi^2/12, via the value of the expansion at the origin
        assert rel(delta_deriv(1, 0.0).value, math.pi**2 / 12.0) < 1e-14

    @pytest.mark.parametrize("m", range(1, 9))
    def test_derivatives_at_zero_all_routes(self, m):
        exact = (
            (-1.0) ** (m - 1)
            * math.factorial(m)
            * CONSTANTS.zeta_values[m + 1]
            / (m + 1.0)
        )
        routes = (Route.CLOSED, Route.SERIES, Route.HURWITZ, Route.HYP, Route.LAPLACE)
        for route in routes:
            assert rel(delta_deriv(m, 0.0, route).value, exact) < 1e-11, route

    def test_first_derivative_at_one(self):
        assert rel(delta_deriv(1, 1.0).value, 1.0 - G) < 1e-13

    def test_second_derivative_at_one(self):
        assert rel(delta_deriv(2, 1.0).value, math.pi**2 / 6.0 - 3.0 + 2.0 * G) < 1e-12

    def test_first_derivative_at_minus_half(self):
        exact = 2.0 * G + 4.0 * math.log(2.0) - 2.0 * math.log(math.pi)
        assert rel(delta_deriv(1, -0.5).value, exact) < 1e-13


class TestClosedForms:
    def test_at_one_first_values(self):
        assert rel(delta_deriv_at_one(1), 1.0 - G) < 1e-15
        assert rel(delta_deriv_at_one(2), math.pi**2 / 6.0 - 3.0 + 2.0 * G) < 1e-13
        # m = 3: 6 [1 - g - (z2-1)/2 - (z3-1)/3]
        z2, z3 = CONSTANTS.zeta_values[2], CONSTANTS.zeta_values[3]
        exact = 6.0 * (1.0 - G - (z2 - 1.0) / 2.0 - (z3 - 1.0) / 3.0)
        assert rel(delta_deriv_at_one(3), exact) < 1e-14

    @pytest.mark.parametrize("m", range(1, 9))
    def test_at_one_vs_closed_route(self, m):
        assert rel(delta_deriv_at_one(m), delta_deriv(m, 1.0, Route.CLOSED).value) < 1e-11

    def test_half_integer_first_order(self):
        exact = 2.0 * G + 4.0 * math.log(2.0) - 2.0 * math.log(math.pi)
        assert rel(delta_deriv_half_integer(1), exact) < 1e-15

    def test_half_integer_regression_values(self):
        # frozen from the CLOSED route (exact polygamma combinations);
        # m = 2 also equals -pi^2 + 8 gamma + 16 ln 2 - 8 ln pi
        assert rel(delta_deriv_half_integer(2), -3.3193632797131745) < 1e-13
        assert rel(delta_deriv_half_integer(3), 13.741413610189582) < 1e-13
        exact2 = -math.pi**2 + 8.0 * G + 16.0 * math.log(2.0) - 8.0 * math.log(math.pi)
        assert rel(delta_deriv_half_integer(2), exact2) < 1e-13

    @pytest.mark.parametrize("m", range(1, 11))
    def test_half_integer_vs_closed_route(self, m):
        assert (
            rel(delta_deriv_half_integer(m), delta_deriv(m, -0.5, Route.CLOSED).value)
            < 1e-10
        )

    def test_order_caps(self):
        with pytest.raises(ValueError):
            delta_deriv_at_one(0)
        with pytest.raises(ValueError):
            delta_deriv_half_integer(11)


class TestFracRep:
    def test_k1_m1_is_one_minus_gamma(self):
        lhs, rhs = frac_rep_prop2(1, 1)
        assert abs(lhs.value - (1.0 - G)) < 1e-10
        assert abs(rhs.value - (1.0 - G)) < 1e-15

    def test_k1_m2_matches_second_moment(self):
        exact = (3.0 - math.pi**2 / 6.0 - 2.0 * G) / 2.0  # = -D''(1)/2
        lhs, rhs = frac_rep_prop2(2, 1)
        assert abs(lhs.value - exact) < 1e-10
        assert abs(rhs.value - exact) < 1e-15

    @pytest.mark.parametrize("m", range(1, 5))
    @pytest.mark.parametrize("k", range(1, 6))
    def test_equality_grid(self, m, k):
        lhs, rhs = frac_rep_prop2(m, k)
        gap = abs(lhs.value - rhs.value)
        assert gap <= 1e-14
        assert gap <= lhs.abs_err_est + rhs.abs_err_est

    @pytest.mark.parametrize("m,k", [(1, 1), (3, 4), (8, 2)])
    def test_right_side_is_independent_of_the_zeta_kernel(self, m, k, monkeypatch):
        # the left side is the HURWITZ integrand; the right side must not
        # reach the Hurwitz-zeta kernel or its Bernoulli constants
        _, expected = frac_rep_prop2(m, k)

        def refuse(*args):
            raise AssertionError("hurwitz_zeta called")

        for module in (kernels, quad, specfun):
            monkeypatch.setattr(module, "hurwitz_zeta", refuse)
        for name in ("_BERNOULLI", "_B2I_OVER_FACT", "_B2I_STIRLING", "_B2I_DIGAMMA"):
            monkeypatch.setattr(kernels, name, None)
        rhs = _prop2_rhs(m, k)
        assert (rhs.value, rhs.abs_err_est, rhs.n_evals) == (
            expected.value,
            expected.abs_err_est,
            expected.n_evals,
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            frac_rep_prop2(0, 1)
        with pytest.raises(ValueError):
            frac_rep_prop2(1, 0)


class TestConverged:
    # starved_quad allows each integrate_finite call one split; the flag
    # tests below also patch quad._TAIL_INTERVALS_MAX to 1

    def test_laplace_out_of_budget(self, starved_quad):
        # one split leaves the estimate at 3.7e-12 of the value against
        # an allowance of 1e-12
        r = delta_deriv(11, 0.3, Route.LAPLACE)
        assert not r.converged

    @pytest.mark.parametrize("route,m,x", [(Route.HURWITZ, 1, -1.0 + 1e-15)])
    def test_layer_far_below_the_interval_width(self, route, m, x):
        # the layer sits ~1e-16 of the interval from an end; an absolute
        # width floor froze it and spent all 2,000 splits (about 61k evals)
        r = delta_deriv(m, x, route)
        closed = delta_deriv(m, x, Route.CLOSED)
        assert r.converged
        assert r.n_evals <= 1500, r.n_evals
        assert abs(r.value - closed.value) <= r.abs_err_est + closed.abs_err_est

    def test_laplace_integrand_layer_far_below_the_interval_width(self):
        # LAPLACE at x = 1e16 sums two series past cut_1 = 43.3 and no
        # longer integrates, so the layer at t = m/x ~ 1e-16 is integrated
        # here as its quadrature did, over the mesh graded from m/x
        m, x = 1, 1e16
        big_t = 50.0 + m * math.log(50.0)
        r = quad.integrate_finite(
            lambda ts: kernels.laplace_panel(m, x, ts),
            0.0,
            big_t,
            quad.graded_breaks(0.0, m / x, big_t),
            rel_tol=1e-12,
            abs_tol=5e-300,
        )
        closed = delta_deriv(m, x, Route.CLOSED)
        assert r.converged
        assert r.n_evals <= 1500, r.n_evals
        assert abs(r.value - closed.value) <= r.abs_err_est + closed.abs_err_est

    # one split meets the default tolerances on these inputs, so the
    # starved call also asks for rel_tol 1e-15, which the default budget
    # still meets
    STRICT = {(Route.HURWITZ, 12, -0.9), (Route.LAPLACE, 3, 50.0)}

    @pytest.mark.parametrize(
        "route,m,x",
        [
            (Route.HURWITZ, 12, -0.5),
            (Route.LAPLACE, 11, 0.3),
            (Route.HYP, 1, 0.5),
            (Route.HURWITZ, 12, -0.9),
            (Route.LAPLACE, 3, 50.0),
        ],
    )
    def test_quadrature_routes_carry_the_flag(self, route, m, x, request, monkeypatch):
        rel_tol = None
        if (route, m, x) in self.STRICT:
            rel_tol = 1e-15
            assert delta_deriv(m, x, route, rel_tol).converged
        assert delta_deriv(m, x, route).converged
        request.getfixturevalue("starved_quad")
        monkeypatch.setattr(quad, "_TAIL_INTERVALS_MAX", 1)
        assert not delta_deriv(m, x, route, rel_tol).converged

    @pytest.mark.parametrize("route", [Route.CLOSED, Route.SERIES, Route.RECURRENCE])
    def test_direct_routes_converge(self, route):
        assert delta_deriv(3, 0.1, route).converged


class TestRelTol:
    def test_hyp_ignores_it(self):
        # the sawtooth takes no tolerance, so a tight rel_tol neither moves
        # HYP nor bars its flag (1.3e-14 of the value here, against 1e-15)
        tight = delta_deriv(12, -0.9, Route.HYP, rel_tol=1e-15)
        assert tight.converged
        assert tight == delta_deriv(12, -0.9, Route.HYP)

    @pytest.mark.parametrize("route,m,x", [(Route.HURWITZ, 12, -0.9), (Route.LAPLACE, 11, 0.3)])
    def test_tightens_the_quadrature_routes(self, route, m, x):
        loose = delta_deriv(m, x, route)
        tight = delta_deriv(m, x, route, rel_tol=1e-15)
        assert tight.converged
        assert tight.n_evals > loose.n_evals
        assert tight.abs_err_est < 0.2 * loose.abs_err_est
        assert abs(tight.value - loose.value) <= tight.abs_err_est + loose.abs_err_est

    @pytest.mark.parametrize("rel_tol", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize(
        "route,x",
        [(route, 0.1) for route in Route] + [(Route.LAPLACE, 1e3)],  # 1e3: past cut_2
    )
    def test_refused_on_every_route(self, route, x, rel_tol):
        with pytest.raises(ValueError, match="rel_tol"):
            delta_deriv(2, x, route, rel_tol)


class TestMomentIntegrals:
    def test_three_forms_agree(self):
        q, s, e = integral_delta()
        assert abs(q.value - s) <= 1e-8
        assert abs(q.value - e.value) <= 1e-8
        assert abs(s - e.value) <= 1e-8

    def test_four_digit_value(self):
        q, _, _ = integral_delta()
        assert round(q.value, 4) == -0.2569

    def test_series_partial_sums_bracket(self):
        # even/odd truncations of sum (-1)^k zeta(k)/k^2 bracket the limit
        zs = CONSTANTS.zeta_values
        partials = []
        acc = 0.0
        for k in range(2, 40):
            acc += (-1.0) ** k * zs[k] / (k * k)
            partials.append(acc)
        full = sum((-1.0) ** k * zs[k] / (k * k) for k in range(2, 64))
        for i, p in enumerate(partials[:-1]):
            k = i + 2
            if k % 2 == 0:
                assert p >= full - 1e-15
            else:
                assert p <= full + 1e-15

    def test_squared_forms_agree(self):
        q2, s2 = integral_delta_squared()
        assert abs(q2.value - s2) <= 1e-8

    def test_squared_positivity_and_cauchy_schwarz(self):
        q, _, _ = integral_delta()
        q2, _ = integral_delta_squared()
        assert q2.value > 0.0
        assert q2.value >= q.value**2


class TestAutoRoute:
    """route=None is CLOSED below x = 2^(1023 // (m + 1)), where CLOSED's
    x^(m+1) still fits a double, and LAPLACE's closed path from there on,
    up to the largest double."""

    @pytest.mark.parametrize("m", range(1, MAX_DERIV_ORDER + 1))
    def test_switch_and_large_x_against_mpmath(self, m, mp_deriv):
        switch = 2.0 ** (1023 // (m + 1))
        below = math.nextafter(switch, 0.0)
        assert delta_deriv(m, below) == delta_deriv(m, below, Route.CLOSED)
        with pytest.raises(ValueError, match="CLOSED needs x"):
            delta_deriv(m, 2.0 * switch, Route.CLOSED)
        for x in (below, switch, 1e100, 1e300, 1.7e308):
            r = delta_deriv(m, x)
            assert r.route is (Route.CLOSED if x < switch else Route.LAPLACE), x
            assert r.converged
            assert abs(r.value - mp_deriv(m, x)) <= r.abs_err_est, x


class TestAsymptotic:
    @pytest.mark.parametrize("m", range(1, 5))
    def test_ratio_converges_monotonically(self, m):
        gaps = []
        for x in (1e2, 1e3, 1e4):
            v = delta_deriv(m, x, Route.CLOSED).value
            gaps.append(abs(v / asymptotic_leading(m, x) - 1.0))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 5e-3

    def test_refinement_improves(self):
        for m in (1, 3):
            for x in (1e2, 1e4):
                v = delta_deriv(m, x, Route.CLOSED).value
                lead = asymptotic_leading(m, x)
                refined = asymptotic_leading(m, x, refine=True)
                assert abs(v - refined) < abs(v - lead)

    def test_not_applicable_at_small_x(self):
        # documents that the formula is asymptotic only: at x -> 0 the
        # leading term is 1 while the true value is pi^2/12
        assert asymptotic_leading(1, 1e-12) == pytest.approx(1.0, rel=1e-9)
        assert rel(delta_deriv(1, 0.0).value, math.pi**2 / 12.0) < 1e-13

    def test_route_wrapper(self):
        # the leading form is no route: its distance to the refined form
        # is not a bound on its error
        assert rel(asymptotic_leading(1, 1e4), 1.0 / (1e4 + 1.0)) < 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            asymptotic_leading(1, 0.0)


class TestRecurrenceResidual:
    def test_exact_point(self):
        r = recurrence_residual(2, 1.0)
        assert abs(r.residual) < 1e-11 * max(abs(r.lhs), abs(r.rhs))

    def test_half_point(self):
        r = recurrence_residual(2, -0.5)
        assert abs(r.residual) < 1e-10 * max(abs(r.lhs), abs(r.rhs))

    def test_hurwitz_base(self):
        # the identity on another route's values than the residual's CLOSED
        hi, lo = (delta_deriv(k, 3.0, Route.HURWITZ).value for k in (5, 4))
        lhs = hi / math.factorial(5)
        rhs = -lo / (math.factorial(4) * 3.0) - kernels.hurwitz_zeta(5.0, 4.0) / 15.0
        assert abs(lhs - rhs) <= 1e-9 * abs(rhs)

    @pytest.mark.parametrize("m", range(2, 11))
    def test_grid(self, m):
        for x in ROUTE_GRID:
            r = recurrence_residual(m, x)
            assert r.passed, (m, x, r.residual, r.tolerance)

    def test_domain(self):
        with pytest.raises(ValueError):
            recurrence_residual(1, 1.0)
        with pytest.raises(ValueError):
            recurrence_residual(2, 0.0)


class TestMonotonicity:
    def test_reference_grid(self):
        grid = (-0.9, -0.5, 0.0, 0.5, 1.0, 2.0, 10.0, 100.0)
        rep = check_complete_monotonicity(8, grid)
        assert rep.n_fail == 0
        assert len(rep.checks) == 64

    def test_single_point_value(self):
        rep = check_complete_monotonicity(1, [0.0])
        assert rep.checks[0].lhs == pytest.approx(math.pi**2 / 12.0, rel=1e-13)

    def test_far_field_value(self):
        rep = check_complete_monotonicity(1, [1e6])
        assert rep.checks[0].lhs == pytest.approx(1.0 / (1e6 + 1.0), rel=1e-3)
        assert rep.n_fail == 0

    def test_order_cap(self):
        with pytest.raises(ValueError):
            check_complete_monotonicity(13, [1.0])

    @pytest.mark.parametrize("signed", [0.5e-15, 1e-15, -0.5e-15])
    def test_value_within_its_estimate_fails(self, monkeypatch, signed):
        # the sign is certified only when the signed value exceeds its
        # estimate; at or inside it, either sign fits the error
        def fake(m, x, route=None, rel_tol=None):
            sign = 1.0 if m % 2 else -1.0
            return EvalResult(sign * signed, 1e-15, Route.CLOSED, 1)

        # the module, not the function nlgamma.delta that shadows its name
        monkeypatch.setattr(importlib.import_module("nlgamma.delta"), "delta_deriv", fake)
        rep = check_complete_monotonicity(2, [1.0])
        assert rep.n_fail == 2
        assert not any(c.passed for c in rep.checks)


@pytest.mark.parametrize(
    "fn,args",
    [
        (recurrence_residual, (2.0, 0.5)),
        (delta_deriv_half_integer, (2.0,)),
        (frac_rep_prop2, (2.0, 1)),
        (frac_rep_prop2, (2, 1.0)),
        (check_complete_monotonicity, (2.0, (0.5,))),
        (delta_deriv_at_one, (2.5,)),
        (asymptotic_leading, (2.0, 10.0)),
    ],
)
def test_non_integer_order_rejected(fn, args):
    with pytest.raises(ValueError, match="need an integer"):
        fn(*args)
