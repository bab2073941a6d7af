"""Quadrature engines: finite adaptive, the sawtooth integrator with
periodic-Bernoulli tails, and the periodization transform."""

import math
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nlgamma import quad
from nlgamma._backend.kernels import laplace_integrand, p1
from nlgamma.delta import integral_delta, integral_delta_squared
from nlgamma.quad import (
    graded_breaks,
    integrate_finite,
    integrate_unit_split,
    lemma2_transform,
    p1_integral,
    pointwise,
)
from nlgamma.specfun import hurwitz_zeta

EULER_GAMMA = 0.5772156649015328606

# 1 - gamma, correctly rounded (mpmath, 30 digits)
ONE_MINUS_GAMMA = 0.42278433509846713


def test_config_validation():
    with pytest.raises(ValueError):
        integrate_finite(pointwise(lambda u: u), 0.0, 1.0, rel_tol=0.0)
    with pytest.raises(ValueError):
        integrate_finite(pointwise(lambda u: u), 0.0, 1.0, rel_tol=-1e-11)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"rel_tol": math.nan},
        {"rel_tol": math.inf},
        {"abs_tol": math.nan},
        {"abs_tol": math.inf},
        {"abs_tol": -1e-13},
    ],
)
def test_config_rejects_non_finite_tolerances(kwargs):
    with pytest.raises(ValueError):
        integrate_finite(pointwise(lambda u: u), 0.0, 1.0, **kwargs)
    # refused before the empty-interval shortcut
    with pytest.raises(ValueError):
        integrate_finite(pointwise(lambda u: u), 1.0, 1.0, **kwargs)


@pytest.mark.parametrize(
    "a,b",
    [
        (0.0, math.inf),
        (-math.inf, 0.0),
        (0.0, math.nan),
        (math.nan, 1.0),
        (math.inf, math.inf),
        (-math.inf, -math.inf),
    ],
)
def test_rejects_non_finite_ends(a, b):
    with pytest.raises(ValueError, match="finite ends"):
        integrate_finite(pointwise(lambda t: 1.0), a, b)


class TestIntegrateFinite:
    def test_linear(self):
        r = integrate_finite(pointwise(lambda u: u), 0.0, 1.0)
        assert abs(r.value - 0.5) < 1e-15
        assert r.converged and r.n_evals > 0

    def test_rational_with_antiderivative(self):
        # int_0^1 u/(u+1)^2 du = ln(u+1) + 1/(u+1) evaluated at the ends
        r = integrate_finite(pointwise(lambda u: u / (u + 1.0) ** 2), 0.0, 1.0)
        assert abs(r.value - (math.log(2.0) - 0.5)) < 1e-14

    def test_hurwitz_moment(self):
        # int_0^1 u zeta(2, u+1) du = 1 - gamma
        r = integrate_finite(
            pointwise(lambda u: u * hurwitz_zeta(2.0, u + 1.0)), 0.0, 1.0
        )
        assert abs(r.value - (1.0 - EULER_GAMMA)) < 1e-12

    def test_empty_interval(self):
        r = integrate_finite(pointwise(lambda u: u), 2.0, 2.0)
        assert r.value == 0.0 and r.converged

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            integrate_finite(pointwise(lambda u: u), 1.0, 0.0)

    def test_error_estimate_honest(self):
        for f, a, b, exact in [
            (lambda u: math.exp(-u * u), 0.0, 3.0, 0.8862073482595214),  # erf form
            (lambda u: 1.0 / (1.0 + u * u), 0.0, 1.0, math.pi / 4.0),
            (lambda u: u ** 7.5, 0.0, 1.0, 1.0 / 8.5),
        ]:
            r = integrate_finite(pointwise(f), a, b)
            assert abs(r.value - exact) <= 10.0 * max(r.abs_err_est, 1e-16)

    def test_converged_flag_respects_tolerance(self):
        rel_tol, abs_tol = 1e-11, 1e-13
        r = integrate_finite(
            pointwise(lambda u: math.sin(3.0 * u) ** 2 + u),
            0.0,
            4.0,
            rel_tol=rel_tol,
            abs_tol=abs_tol,
        )
        assert r.converged
        assert r.abs_err_est <= max(abs_tol, rel_tol * abs(r.value))

    def test_rounding_term_counts_before_the_stop(self):
        # the LAPLACE integrand at a point whose summed panel estimates
        # alone land just inside the allowance: once the rounding term
        # 2e-16 * sum|panel| is added the loop must keep splitting, not
        # stop and then report converged=False
        m, x = 4, 0.20709585262878225
        rel_tol, abs_tol = 1e-12, 5e-300
        r = integrate_finite(
            pointwise(lambda t: laplace_integrand(m, x, t)),
            0.0,
            50.0 + m * math.log(50.0),
            rel_tol=rel_tol,
            abs_tol=abs_tol,
        )
        assert r.converged
        assert r.abs_err_est <= max(abs_tol, rel_tol * abs(r.value))

    def test_nonconvergence_flagged(self, monkeypatch):
        monkeypatch.setattr(quad, "_MAX_SPLITS", 3)
        r = integrate_finite(
            pointwise(lambda u: abs(u - 1 / 3.0) ** 0.5),
            0.0,
            1.0,
            rel_tol=1e-14,
            abs_tol=1e-300,
        )
        assert not r.converged

    @given(c=st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=25, deadline=None)
    def test_additivity(self, c):
        f = lambda u: math.exp(-u) * (1.0 + u * u)  # noqa: E731
        whole = integrate_finite(pointwise(f), 0.0, 1.0)
        parts = integrate_finite(pointwise(f), 0.0, c) + integrate_finite(
            pointwise(f), c, 1.0
        )
        assert abs(whole.value - parts.value) <= (
            whole.abs_err_est + parts.abs_err_est + 1e-14
        )


class TestBreakpoints:
    def test_graded_breaks_double_the_distance(self):
        assert graded_breaks(0.0, 0.125, 1.0) == [0.125, 0.25, 0.5]
        assert graded_breaks(-1.0, 0.0, 10.0) == [0.0, 1.0, 3.0, 7.0]
        # toward a pole above: ascending, nearest the pole last
        assert graded_breaks(1.25, 1.0, 0.0) == [0.25, 0.75, 1.0]

    def test_graded_breaks_empty_past_the_end(self):
        assert graded_breaks(-2.0, 2.0, 1.0) == []
        assert graded_breaks(3.0, -1.0, 0.0) == []
        assert graded_breaks(-math.inf, math.inf, 1.0) == []

    def test_seeded_pieces_give_the_same_integral(self):
        f = lambda u: 1.0 / (1e-3 + u)  # noqa: E731
        plain = integrate_finite(pointwise(f), 0.0, 1.0)
        breaks = graded_breaks(-1e-3, 1e-3, 1.0)
        seeded = integrate_finite(pointwise(f), 0.0, 1.0, breakpoints=breaks)
        exact = math.log1p(1e3)
        for r in (plain, seeded):
            assert r.converged
            assert abs(r.value - exact) <= r.abs_err_est
        assert seeded.n_evals < plain.n_evals

    @pytest.mark.parametrize(
        "breaks", [(0.5, 0.5), (0.7, 0.3), (0.0,), (1.0,), (-0.5,), (math.nan,)]
    )
    def test_rejects_breakpoints(self, breaks):
        with pytest.raises(ValueError):
            integrate_finite(pointwise(lambda u: u), 0.0, 1.0, breakpoints=breaks)


class TestExactReplay:
    """Values, estimates and counts recorded with the exact math.fsum
    stop test.  integrate_finite takes those sums on every pass, as it
    did when these were recorded, so no split decision may move and every
    result must match to the last bit.  The P1 rows were recorded again
    when integrate_unit_split began to integrate [0, X0] in one call,
    every row when the panel became the G10/K21 pair, and the P1 rows when
    the first call became [0, 6] (X0 was 5 at a = 3, whose
    values and counts moved) and the estimate began to charge the
    integrand's rounding (every estimate rose; each row is within 0.04 of
    its estimate of mpmath's value); the budget row
    then needed 15 splits, not 25, to stay short of its tolerance.  The
    integral of D^2 was recorded again when ln Gamma's Taylor form became
    a Horner sum; it is 9.5e-18 from mpmath's value."""

    P1 = {
        (2.0, 1.0): (-0.07246703342411322, 4.1420343009042015e-16, 147),
        (2.0, 1.5): (-0.022956655827895214, 1.7898471590272274e-16, 147),
        (2.0, 3.0): (-0.003022588979668775, 4.259715624732454e-17, 147),
        (3.0, 1.0): (-0.0673523010531981, 3.074710973943539e-16, 147),
        (3.0, 1.5): (-0.014675983915596545, 9.21525968189079e-17, 147),
        (3.0, 3.0): (-0.0009942763618400708, 1.1217731863475422e-17, 147),
        (5.0, 1.0): (-0.057385551028674, 4.423818079221371e-16, 147),
        (5.0, 1.5): (-0.005906814399181609, 2.968007586316043e-17, 147),
        (5.0, 3.0): (-0.00010674444431184535, 9.099120958274021e-19, 147),
    }
    # (integrand, split budget, row)
    FINITE = {
        "peak": (
            lambda u: 1.0 / (1e-6 + (u - 0.3) ** 2),
            quad._MAX_SPLITS,
            (3136.8307621453027, 2.387307494044373e-08, 693, True),
        ),
        "cusp": (
            lambda u: abs(u - 1 / 3.0) ** 0.5,
            quad._MAX_SPLITS,
            (0.49118742912210783, 4.6432346636113265e-12, 861, True),
        ),
        "budget": (
            lambda u: abs(u - 1 / 3.0) ** 0.5,
            15,
            (0.49118742929840936, 7.378316307833643e-10, 651, False),
        ),
    }

    @staticmethod
    def _row(r):
        return (r.value, r.abs_err_est, r.n_evals, r.converged)

    @pytest.mark.parametrize("s,a", sorted(P1))
    def test_p1_integral(self, s, a):
        r = p1_integral(((a, s + 1.0),))
        assert self._row(r) == (*self.P1[s, a], True)

    def test_integral_delta_quadratures(self):
        quadrature, _, ei_form = integral_delta()
        squared, _ = integral_delta_squared()
        assert self._row(quadrature) == (
            -0.25687452238873903, 6.580780379787484e-17, 42, True
        )
        assert self._row(ei_form) == (
            -0.25687452238873903, 2.091067890283914e-15, 147, True
        )
        assert self._row(squared) == (
            0.09311399418229539, 1.8622798836459078e-17, 42, True
        )

    @pytest.mark.parametrize("name", sorted(FINITE))
    def test_many_splits(self, name, monkeypatch):
        f, splits, row = self.FINITE[name]
        monkeypatch.setattr(quad, "_MAX_SPLITS", splits)
        assert self._row(integrate_finite(pointwise(f), 0.0, 1.0)) == row

    def test_laplace_like_integrand(self):
        # t^12/(e^t - 1)/(1 + 1000 t)^13: a layer at t ~ 1e-3 on [0, 96.9]
        def f(t):
            return t**12 / math.expm1(t) / (1.0 + 1000.0 * t) ** 13 if t > 0 else 0.0

        r = integrate_finite(pointwise(f), 0.0, 96.9, rel_tol=1e-12, abs_tol=5e-300)
        assert self._row(r) == (
            8.079299887020282e-38, 6.51818037725493e-52, 735, True
        )


# QUADPACK's QK15 pair, the panel rule before G10/K21, kept here as the
# baseline that test_estimate_beats_g7_k15 holds the new rule against.
# Rows as quad._GK21: (node, K15 weight, G7 weight); the centre carries
# both weights (K15, G7).
_GK15_CENTER = (0.20948214108472782, 0.4179591836734694)
_GK15 = (
    (0.9914553711208126, 0.022935322010529224, 0.0),
    (0.9491079123427585, 0.06309209262997856, 0.1294849661688697),
    (0.8648644233597691, 0.10479001032225019, 0.0),
    (0.7415311855993945, 0.14065325971552592, 0.27970539148927664),
    (0.5860872354676911, 0.1690047266392679, 0.0),
    (0.4058451513773972, 0.19035057806478542, 0.3818300505051189),
    (0.20778495500789848, 0.20443294007529889, 0.0),
)


class TestPanelRule:
    """The frozen G10/K21 constants, and the G7/K15 baseline above: a typo
    in one node or weight breaks exactness at some degree, so every degree
    is checked."""

    @staticmethod
    def _rules(center=(quad._GK21_CENTER, 0.0), rows=quad._GK21):
        wk0, wg0 = center
        nodes = [(0.0, wk0, wg0)]
        for xi, wk, wg in rows:
            nodes += [(-xi, wk, wg), (xi, wk, wg)]
        kronrod = [(x, wk) for x, wk, _ in nodes]
        gauss = [(x, wg) for x, _, wg in nodes if wg]
        return kronrod, gauss

    @staticmethod
    def _moment_error(rule, k):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        return abs(math.fsum(w * x**k for x, w in rule) - exact)

    def test_node_counts(self):
        kronrod, gauss = self._rules()
        assert len(kronrod) == 21 and len(gauss) == 10
        assert len({x for x, _ in kronrod}) == 21
        assert len(quad._GK21_OFFSETS) == quad._PANEL_NODES == 21

    def test_weights_sum_to_two(self):
        for rule in self._rules():
            assert abs(math.fsum(w for _, w in rule) - 2.0) <= 2.3e-16

    @pytest.mark.parametrize("k", range(32))
    def test_k21_exact_through_degree_31(self, k):
        kronrod, _ = self._rules()
        assert self._moment_error(kronrod, k) <= 2.3e-16

    @pytest.mark.parametrize("k", range(20))
    def test_g10_exact_through_degree_19(self, k):
        _, gauss = self._rules()
        assert self._moment_error(gauss, k) <= 2.3e-16

    def test_g10_not_exact_at_degree_20(self):
        _, gauss = self._rules()
        assert self._moment_error(gauss, 20) > 1e-6

    @pytest.mark.parametrize("k", range(24))
    def test_k15_exact_through_degree_23(self, k):
        kronrod, _ = self._rules(_GK15_CENTER, _GK15)
        assert self._moment_error(kronrod, k) <= 2.3e-16

    @pytest.mark.parametrize("k", range(14))
    def test_g7_exact_through_degree_13(self, k):
        _, gauss = self._rules(_GK15_CENTER, _GK15)
        assert self._moment_error(gauss, k) <= 2.3e-16

    def test_g7_not_exact_at_degree_14(self):
        _, gauss = self._rules(_GK15_CENTER, _GK15)
        assert self._moment_error(gauss, 14) > 1e-5

    @pytest.mark.parametrize("m,x", [(6, 0.5), (3, 50.0), (11, 0.3)])
    def test_estimate_beats_g7_k15(self, m, x):
        # summed over ratio-2 graded pieces of a Laplace integrand, the
        # |K21 - G10| estimate is over 1000 times below |K15 - G7|
        def g(t):
            return laplace_integrand(m, x, t)

        kronrod, gauss = self._rules(_GK15_CENTER, _GK15)
        points = [0.0, *graded_breaks(0.0, 0.125, 60.0), 60.0]
        k15_est = k21_est = 0.0
        for a, b in zip(points, points[1:]):
            half, mid = 0.5 * (b - a), 0.5 * (a + b)
            k15, g7 = (
                math.fsum(w * g(mid + half * u) for u, w in rule)
                for rule in (kronrod, gauss)
            )
            k15_est += abs(half * (k15 - g7))
            k21_est += quad._panel(pointwise(g), a, b)[1]
        assert 1000.0 * k21_est < k15_est

    @pytest.mark.parametrize(
        "f,a,b",
        [
            (lambda u: u**3, 0.0, 1.0),
            (lambda u: abs(u - 1 / 3.0) ** 0.5, 0.0, 1.0),
            (lambda t: laplace_integrand(6, 0.5, t), 0.0, 60.0),
        ],
        ids=["one_panel", "cusp", "laplace"],
    )
    def test_n_evals_counts_integrand_calls(self, f, a, b):
        calls = 0

        def counted(u):
            nonlocal calls
            calls += 1
            return f(u)

        r = integrate_finite(pointwise(counted), a, b)
        assert r.n_evals == calls
        assert r.n_evals % 21 == 0


class TestFracHelpers:
    def test_values(self):
        assert p1(2.75) == 0.25
        assert p1(-0.25) == 0.25
        assert p1(3.0) == -0.5

    @given(
        x=st.floats(
            min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_periodicity_exact(self, x):
        # exact whenever x+1 is itself representable (no rounding in the shift)
        assume((x + 1.0) - 1.0 == x)
        assert p1(x + 1.0) == p1(x)


class TestUnitSplit:
    def test_sawtooth_over_square(self):
        r = integrate_unit_split((0.0, 1.0), ((1.0, 2.0),))
        assert abs(r.value - ONE_MINUS_GAMMA) < 5e-13
        assert abs(r.value - ONE_MINUS_GAMMA) <= r.abs_err_est

    def test_sawtooth_squared_over_cube(self):
        # equals (3 - pi^2/6 - 2 gamma)/2, the second closed moment at 1
        r = integrate_unit_split((0.0, 0.0, 1.0), ((1.0, 3.0),))
        exact = (3.0 - math.pi**2 / 6.0 - 2.0 * EULER_GAMMA) / 2.0
        assert abs(r.value - exact) < 1e-15

    def test_plain_inverse_square(self):
        # constant periodic factor: the closed-form mean is the whole tail
        r = integrate_unit_split((1.0,), ((1.0, 2.0),))
        assert abs(r.value - 1.0) < 1e-15
        assert r.n_evals == 0

    def test_budget_exhaustion_flagged(self, monkeypatch):
        monkeypatch.setattr(quad, "_TAIL_INTERVALS_MAX", 2)
        r = integrate_unit_split((0.0, 1.0), ((1.0, 2.0),))
        assert not r.converged

    def test_budget_caps_the_tail_start(self, monkeypatch):
        # y over (t + 1)^2 meets its tail at the first try, 6, in one
        # call; a budget of 3 unit intervals clamps that call to [0, 3],
        # the try there fails, and the march stops
        coeffs, factors = (0.0, 1.0), ((1.0, 2.0),)
        calls = self._record_calls(monkeypatch)
        assert integrate_unit_split(coeffs, factors).converged
        assert calls == [(0.0, 6.0, [0.5, 1.0, 2.0, 3.0, 4.0, 5.0])]
        calls.clear()
        monkeypatch.setattr(quad, "_TAIL_INTERVALS_MAX", 3)
        assert not integrate_unit_split(coeffs, factors).converged
        assert calls == [(0.0, 3.0, [0.5, 1.0, 2.0])]

    @staticmethod
    def _record_calls(monkeypatch):
        calls = []

        def recorded(f, a, b, breakpoints=(), **tols):
            calls.append((a, b, list(breakpoints)))
            return integrate_finite(f, a, b, breakpoints, **tols)

        monkeypatch.setattr(quad, "integrate_finite", recorded)
        return calls

    def test_long_run_is_split_into_calls(self, monkeypatch):
        # y^23 over (t + 1)^3 first meets its tail at 222: one call to the
        # first try at 6, then one unit per failed try up to the budget
        coeffs, factors = (0.0,) * 23 + (1.0,), ((1.0, 3.0),)
        calls = self._record_calls(monkeypatch)
        monkeypatch.setattr(quad, "_TAIL_INTERVALS_MAX", 200)
        assert not integrate_unit_split(coeffs, factors).converged
        spans = [(a, b) for a, b, _ in calls]
        assert spans == [(0.0, 6.0)] + [(x, x + 1.0) for x in range(6, 200)]
        assert all(breaks == [] for _, _, breaks in calls[1:])

    @pytest.mark.parametrize("deg", [25, 28, 29])
    def test_hopeless_march_stops_at_the_cap(self, monkeypatch, deg):
        # y^25 .. y^29 over (t + 1)^3 meet no tail within 1,000 units (y^28
        # would first meet it some 709,000 units out): the march stops at
        # the cap, unconverged, well under a second
        coeffs, factors = (0.0,) * deg + (1.0,), ((1.0, 3.0),)
        calls = self._record_calls(monkeypatch)
        began = time.perf_counter()
        r = integrate_unit_split(coeffs, factors)
        assert time.perf_counter() - began < 1.0
        assert not r.converged
        assert calls[0][:2] == (0.0, 6.0)
        assert calls[-1][:2] == (quad._TAIL_INTERVALS_MAX - 1.0, quad._TAIL_INTERVALS_MAX)
        assert len(calls) == quad._TAIL_INTERVALS_MAX - quad._FIRST_TRY + 1

    def test_reachable_tail_is_marched_to(self, monkeypatch):
        # y^20 over (t + 1)^3: one call to the first try at 6, then the
        # march, a unit per call, to its tail at 47
        coeffs, factors = (0.0,) * 20 + (1.0,), ((1.0, 3.0),)
        calls = self._record_calls(monkeypatch)
        assert integrate_unit_split(coeffs, factors).converged
        spans = [(a, b) for a, b, _ in calls]
        assert spans == [(0.0, 6.0)] + [(x, x + 1.0) for x in range(6, 47)]

    def test_pole_beside_a_vanishing_phi(self, mp_unit_split):
        # y over (t + 1e-6)^5: phi vanishes at the pole, where evaluating it
        # as ({t} - 1/2) + 1/2 once left rounding noise of 1e-16 g(t) and
        # returned 8.333333333418634e16 +- 2.1e5 as converged, 4x off
        coeffs, factors = (0.0, 1.0), ((1e-6, 5.0),)
        r = integrate_unit_split(coeffs, factors)
        ref = mp_unit_split(coeffs, factors)
        assert r.converged
        assert abs(r.value - ref) <= r.abs_err_est, (r.value, ref, r.abs_err_est)

    def test_converged_implies_estimate_within_allowance(self):
        # the sawtooth takes no tolerance; its estimates still meet the
        # default one, which integrate_finite's stop test enforces
        rel_tol, abs_tol = 1e-11, 1e-13
        cases = [
            integrate_unit_split((0.0, 1.0), ((1.0, 2.0),)),
            integrate_unit_split((0.0, 0.0, 0.0, 1.0), ((1.0, 4.0),)),
            p1_integral(((1.0, 4.0),)),
            integrate_finite(pointwise(lambda u: math.exp(-u)), 0.0, 3.0),
        ]
        for r in cases:
            assert r.converged
            assert r.abs_err_est <= max(abs_tol, rel_tol * abs(r.value))

    def test_lemma1_unit_split_equals_shifted_sums(self):
        # int_0^inf f({t}) g(t) dt = sum_l int_0^1 f(y) g(y+l) dy, here
        # with g(t) = (t + 2)^-p, which the loop sums from l = 1 as
        # (y + l + 1)^-p
        for mdeg in range(0, 4):
            g_pow = mdeg + 2.0
            direct = integrate_unit_split((0.0,) * mdeg + (1.0,), ((2.0, g_pow),))
            summed = 0.0
            err = 0.0
            for l in range(1, 4000):
                part = integrate_finite(
                    pointwise(lambda y, m=mdeg, l=l: y**m / (y + l + 1.0) ** (m + 2.0)),
                    0.0,
                    1.0,
                )
                summed += part.value
                err += part.abs_err_est
            # remaining shifted-sum tail, bounded by the integral envelope
            tail_bound = 4000.0 ** (-(g_pow - 1.0)) / (g_pow - 1.0)
            assert abs(direct.value - summed) <= (
                direct.abs_err_est + err + tail_bound + 1e-12
            )

    @pytest.mark.parametrize(
        "coeffs,factors",
        [
            pytest.param((0.0, 1.0), ((1.0, 0.0),), id="p_zero"),
            pytest.param((0.0, 1.0), (), id="no_factor"),
            pytest.param((), ((1.0, 3.0),), id="no_coefficient"),
            pytest.param((0.0, math.nan), ((1.0, 3.0),), id="nan_coefficient"),
            pytest.param((0.0,) * 30 + (1.0,), ((1.0, 3.0),), id="degree_30"),
            # the mean 1/2 of y over (t + 1)^-1 diverges
            pytest.param((0.0, 1.0), ((1.0, 1.0),), id="mean_with_p_one"),
            pytest.param((1.0,), ((1.0, 2.0), (2.0, 1.0)), id="mean_two_factors"),
        ],
    )
    def test_domain_errors(self, coeffs, factors):
        with pytest.raises(ValueError):
            integrate_unit_split(coeffs, factors)


def _dyadic_zero_mean(deg, seed):
    """Coefficients of degree deg with mean over [0, 1] exactly zero:
    coeffs[i]/(i + 1) are multiples of 1/8, summing to 0."""
    q = [(-1) ** i * (i + seed % 3 + 1) / 8.0 for i in range(deg + 1)]
    q[0] = -sum(q[1:])
    return tuple((i + 1) * qi for i, qi in enumerate(q))


# (degree, c, p, shift) with one factor (c + shift, p); the polynomial has
# a nonzero mean.  Shift 1 gives the integral from t = 1 of the factor
# (c, p).
ORACLE_ONE_FACTOR = [
    (deg, c, p, shift)
    for deg, c, p in [
        (0, 0.05, 3.3), (1, 0.5, 13.0), (2, 1.0, 3.0), (3, 2.5, 5.0),
        (4, 10.0, 8.0), (5, 0.3, 1.5), (6, 4.0, 13.0), (7, 0.05, 9.0),
        (8, 7.0, 2.5),
    ]
    for shift in (0.0, 1.0)
]
# (degree, (c1, p1), (c2, p2), shift), shift added to both c; the
# polynomial has zero mean
ORACLE_TWO_FACTORS = [
    (1, (1.0, 1), (0.5, 13), 0.0),
    (2, (0.25, 2), (3.0, 3), 1.0),
    (3, (1.0, 1), (10.0, 7), 0.0),
    (4, (0.05, 1), (1.5, 4), 1.0),
    (5, (6.0, 3), (2.0, 2), 0.0),
    (6, (1.0, 1), (0.75, 5), 1.0),
    (7, (9.0, 2), (0.1, 5), 0.0),
    (8, (1.0, 1), (4.0, 6), 1.0),
]


class TestUnitSplitOracle:
    """The estimate bounds the error against a 40-digit oracle for
    polynomials of degree 0-8, one or two factors, c in (0, 11], p up to
    13, each c also raised by 1."""

    @staticmethod
    def _check(coeffs, factors, shift, oracle):
        factors = tuple((c + shift, p) for c, p in factors)
        r = integrate_unit_split(coeffs, factors)
        ref = oracle(coeffs, factors)
        assert r.converged
        assert abs(r.value - ref) <= r.abs_err_est, (r.value, ref, r.abs_err_est)

    @pytest.mark.parametrize("deg,c,p,shift", ORACLE_ONE_FACTOR)
    def test_one_factor(self, deg, c, p, shift, mp_unit_split):
        coeffs = tuple((-1.0) ** i * (1.0 + i / 3.0) for i in range(deg + 1))
        self._check(coeffs, ((c, p),), shift, mp_unit_split)

    @pytest.mark.parametrize("deg,f1,f2,shift", ORACLE_TWO_FACTORS)
    def test_two_factors(self, deg, f1, f2, shift, mp_unit_split):
        self._check(_dyadic_zero_mean(deg, deg), (f1, f2), shift, mp_unit_split)

    @pytest.mark.parametrize(
        "deg,factors,x,rel",
        [
            (1, ((0.5, 3.0),), 5.0, 1e-6),
            (1, ((0.5, 3.0),), 10.0, 1e-12),
            (3, ((2.0, 5.0),), 2.0, 1e-4),
            (3, ((2.0, 5.0),), 10.0, 1e-9),
            (5, ((1.0, 1.0), (0.25, 7.0)), 10.0, 1e-6),
            (8, ((0.05, 13.0),), 10.0, 1e-4),
            (2, ((1.0, 1.0), (3.0, 2.0)), 2.0, 1e-6),
            (2, ((1.0, 1.0), (3.0, 2.0)), 10.0, 1e-12),
        ],
    )
    def test_tail_bound(self, deg, factors, x, rel, mp_unit_split):
        # the Bernoulli tail alone, stopped early enough that its
        # remainder stands far above rounding: the charged first omitted
        # terms must cover it
        coeffs = _dyadic_zero_mean(deg, deg)
        parts = quad._sawtooth_plan(coeffs)[2]
        ref = mp_unit_split(coeffs, factors, x)
        tail = quad._sawtooth_tail(parts, factors, x, rel * abs(ref))
        assert tail is not None
        value, bound = tail
        assert abs(value - ref) <= bound <= rel * abs(ref)


# one input of each shape integrate_unit_split tells apart: degree 0 and
# 1 over one factor, degree 1 over two (every HYP call), degree >= 2 over
# one and two factors, and three factors
SHAPES = {
    "deg0-one": ((1.5,), ((0.5, 2.5),)),
    "deg1-one": ((0.25, 1.0), ((0.5, 2.5),)),
    "deg1-one-zero-mean": ((-0.5, 1.0), ((1.0 + 1e-3, 4.0),)),
    "deg1-two": ((-0.5, 1.0), ((1.0, 1.0), (0.3, 7.0))),
    "deg2-one": ((0.1, -0.4, 0.9), ((2.0, 4.0),)),
    "deg3-two": (_dyadic_zero_mean(3, 1), ((2.0, 2.0), (1.5, 3.0))),
    "deg1-three": ((-0.5, 1.0), ((1.0, 1.0), (2.0, 1.0), (0.5, 2.0))),
}


class TestIntegrandShapes:
    """Each integrand shape against the oracle, and the two forms against
    each other: the one-comprehension form of degree 1 over up to two
    factors gives the general per-node loop's values, bit for bit."""

    @pytest.mark.parametrize("shape", [s for s in SHAPES if s != "deg1-three"])
    def test_against_oracle(self, shape, mp_unit_split):
        coeffs, factors = SHAPES[shape]
        r = integrate_unit_split(coeffs, factors)
        ref = mp_unit_split(coeffs, factors)
        assert r.converged
        assert abs(r.value - ref) <= r.abs_err_est, (r.value, ref, r.abs_err_est)

    def test_three_factors_against_two(self, mp_unit_split):
        # (t + 1)^-1 (t + 2)^-1 (t + 0.5)^-2 has no two-factor oracle;
        # (t + 1)^-1 (t + 2)^-1 = (t + 1)^-1 - (t + 2)^-1 splits it in two
        coeffs, factors = SHAPES["deg1-three"]
        r = integrate_unit_split(coeffs, factors)
        ref = mp_unit_split(coeffs, ((1.0, 1.0), (0.5, 2.0))) - mp_unit_split(
            coeffs, ((2.0, 1.0), (0.5, 2.0))
        )
        assert r.converged
        assert abs(r.value - ref) <= r.abs_err_est + 1e-15 * abs(ref), (r.value, ref)

    @pytest.mark.parametrize("factors", [((0.3, 2.5),), ((1.0, 1.0), (4.7, 7.0))])
    @pytest.mark.parametrize("coeffs", [(-0.5, 1.0), (0.25, -3.0)])
    def test_forms_agree_bit_for_bit(self, coeffs, factors):
        # a zero lead coefficient and a third factor (0, 0), whose power
        # is 1.0, send the same integrand through the per-node loop
        fast, g_fast = quad._sawtooth_integrand(coeffs, factors)
        padded = factors + ((0.0, 0.0),) * (3 - len(factors))
        loop, g_loop = quad._sawtooth_integrand((*coeffs, 0.0), padded)
        bits = lambda values: [v.hex() for v in values]  # noqa: E731
        for a in (0.0, 0.25, 3.0, 41.0):
            nodes = [a + 0.5 * (1.0 + o) for o in quad._GK21_OFFSETS]
            assert bits(fast(nodes)) == bits(loop(nodes))
            assert bits(g_fast(nodes)) == bits(g_loop(nodes))

    def test_constant_phi_tail_is_zero_at_once(self, monkeypatch):
        # no B_k part: (0.0, 0.0) without building a Taylor coefficient
        def refuse(*args):
            raise AssertionError("no coefficient needed")

        monkeypatch.setattr(quad, "_product_coefficient", refuse)
        assert quad._sawtooth_plan((2.0,))[2] == ()
        assert quad._sawtooth_tail((), ((0.5, 2.5),), 6.0, 1e-20) == (0.0, 0.0)


class TestP1Integral:
    def test_against_zeta_form(self):
        # integral_0^inf p1(t)/(t+a)^(s+1) dt relates to zeta(s, a)
        for s, a in [(2.0, 1.0), (3.0, 1.5), (5.0, 3.0)]:
            r = p1_integral(((a, s + 1.0),))
            expected = (a**-s / 2.0 + a ** (1.0 - s) / (s - 1.0) - hurwitz_zeta(s, a)) / s
            assert abs(r.value - expected) < 1e-10


class TestLemma2Transform:
    @pytest.mark.parametrize("b", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("c", [1.0, 2.0])
    @pytest.mark.parametrize("lam", [2.0, 3.0, 4.0])
    def test_equality_grid(self, b, c, lam):
        for name, f in (("one", (1.0,)), ("y", (0.0, 1.0)), ("y2", (0.0, 0.0, 1.0))):
            lhs, rhs = lemma2_transform(f, b, c, lam)
            assert lhs.converged and rhs.converged
            assert abs(lhs.value - rhs.value) < 1e-14, (name, b, c, lam)

    @pytest.mark.parametrize("c", [1e-7, 1e-8, 1e-9])
    def test_left_side_beside_a_pole(self, c, mp_unit_split):
        # y^2 over (x + c)^3: the left side once missed by 4.2x, 1.07x and
        # 2.8x, flagged unconverged, with phi evaluated in {x} - 1/2
        lhs, _ = lemma2_transform((0.0, 0.0, 1.0), 1.0, c, 3.0)
        ref = mp_unit_split((0.0, 0.0, 1.0), ((c, 3.0),), 0.0)
        assert lhs.converged
        assert abs(lhs.value - ref) <= lhs.abs_err_est, (lhs.value, ref)

    def test_trivial_telescoping_case(self):
        # f = 1, b = c = 1, lam = 2: both sides are exactly 1
        lhs, rhs = lemma2_transform((1.0,), 1.0, 1.0, 2.0)
        assert abs(lhs.value - 1.0) < 1e-15
        assert abs(rhs.value - 1.0) < 1e-12

    def test_moment_case(self):
        lhs, rhs = lemma2_transform((0.0, 1.0), 1.0, 1.0, 2.0)
        assert abs(lhs.value - ONE_MINUS_GAMMA) < 1e-15
        assert abs(rhs.value - ONE_MINUS_GAMMA) < 1e-11

    def test_scaling_substitution(self):
        # int_0^inf f({x/b}) g(x) dx = b int_0^inf f({v}) g(b v) dv
        b, c, lam = 3.0, 2.0, 3.0
        subst, _ = lemma2_transform((0.0, 1.0), b, c, lam)
        # direct x-integration over blocks [j b, (j+1) b] with interior
        # breakpoints only at multiples of b
        direct = 0.0
        err = 0.0
        for j in range(4000):
            part = integrate_finite(
                pointwise(lambda x: (p1(x / b) + 0.5) * (x + c) ** (-lam)),
                j * b,
                (j + 1.0) * b,
            )
            direct += part.value
            err += part.abs_err_est
        cut = 4000.0 * b
        tail_env = (cut + c) ** (1.0 - lam) / (lam - 1.0)
        assert abs(subst.value - direct) <= subst.abs_err_est + err + tail_env + 1e-10

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            lemma2_transform((0.0, 1.0), 0.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            lemma2_transform((0.0, 1.0), 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            lemma2_transform((0.0, 1.0), 1.0, -1.0, 2.0)
        # c = 0: both sides diverge at x = 0 for f(0) != 0
        with pytest.raises(ValueError):
            lemma2_transform((1.0,), 1.0, 0.0, 2.0)
        with pytest.raises(ValueError):
            lemma2_transform((0.0, 1.0), 1.0, 0.0, 2.0)
