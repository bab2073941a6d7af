"""The sawtooth integral p1_integral and the HYP route built on it:
values against an mpmath oracle, evaluation-count pins, and the
x -> -1 edge where the integrand peaks inside the first panel."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nlgamma import quad
from nlgamma.delta import Route, delta_deriv
from nlgamma.quad import integrate_finite, integrate_unit_split, p1_integral

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
# HURWITZ values that missed their estimate by 1.0-3.0x with errors of
# 2e-16 to 1.4e-15 relative, before the estimate had a rounding floor
HURWITZ_ROUNDING_POINTS = (
    (1, 1e-06), (2, -0.125), (3, 0.0), (3, 3.989473255417828e-05),
    (3, 0.004584585280914244), (5, -1e-06), (5, 0.006356400359679025),
    (8, -0.0011453620856261288), (8, -0.00014177379137758378), (8, 1e-06),
    (8, 7.472172130976575e-06), (11, -5.412307069786303e-06),
    (12, -1.2252005440454897e-06), (12, 0.0), (12, 1e-06),
)
# RECURRENCE values that missed their estimate by 1.6-2.0x before the
# rounding of the cancelling (m/x) D^(m-1) term and of x + 1 inside
# zeta(m, x + 1) was charged; CLOSED, the base, is within its own
# estimate at each of them
RECURRENCE_ROUNDING_POINTS = (
    (9, 0.06357718768094779), (10, 0.036801085520494436),
    (10, 0.061494963743918274), (10, 0.0764074781902383),
    (11, 0.047492856808340034), (11, 0.06535152139029587),
    (12, 0.06947718256517821), (12, 0.0907760994888257),
)

# n_evals pins with 10% headroom.  HYP and p1_integral were pinned when
# the Euler-Maclaurin tail went in (the march it replaced took 117k evals
# at m = 1), then tightened to the G7/K15 panel counts, 15/22 of the
# 22-eval GL15 + GL7 panel's, and again when [0, X0] became one
# integrate_finite call and the tail gained B_24..B_30.  P1 at a = 3 was
# set again (126 -> 147) when that call became [0, 6]: X0 had been 5
# there, so the call spans one unit more.  HURWITZ and
# LAPLACE are pinned at their counts on the meshes graded from x.  All
# four were set again for the 21-node G10/K21 panel: where the 15-node
# panels already met the tolerance with few or no splits, the wider
# panels cost more, so those pins rose (HYP at x = 1000, P1 at a = 3 and
# at (2, 1.5), HURWITZ at x = 0.125, 1000 and 1e6); the rest fell with the
# splits the finer estimate saves.  (3, 1.5) now takes 147 evals, inside
# its 135 pin's headroom, so that pin was kept.  The HURWITZ pins were
# set to their counts when HURWITZ from x = A_m - 1 on (7.03 at m = 1,
# 11.26 at m = 6, 23 at m = 12) became one sum of 33 to 38 terms: at
# x = 10, 1000 and 1e6 past the seam they fell from 42-147 evals, and
# the rest, which had kept the G7/K15-era pins, were set to the counts
# they already had.  Tighten a pin when its count falls; never loosen
# one without saying why.
HEADROOM = 1.10
HYP_PINS = {
    (1, -0.5): 149, (1, 0.5): 149, (1, 1000.0): 149,
    (2, -0.5): 149, (2, 0.5): 149, (2, 1000.0): 149,
    (6, -0.5): 191, (6, 0.5): 149, (6, 1000.0): 149,
    (12, -0.5): 212, (12, 0.5): 149, (12, 1000.0): 149,
}
# integrate_finite calls per HYP evaluation on the HYP_PINS grid: the one
# over [0, 6], whose tail try succeeds (the unit-by-unit march made 6 to
# 8, and the call to a proven X0 then one per failed try, up to 2)
HYP_INTEGRATE_FINITE_CALLS = 1
P1_PINS = {
    (2.0, 1.0): 147, (2.0, 1.5): 147, (2.0, 3.0): 147,
    (3.0, 1.0): 147, (3.0, 1.5): 135, (3.0, 3.0): 147,
    (5.0, 1.0): 147, (5.0, 1.5): 147, (5.0, 3.0): 147,
}
HURWITZ_PINS = {
    (1, -0.99): 63, (1, -0.9): 42, (1, 0.125): 21,
    (1, 10.0): 33, (1, 1000.0): 33, (1, 1e6): 33,
    (6, -0.99): 63, (6, -0.9): 42, (6, 0.125): 21,
    (6, 10.0): 42, (6, 1000.0): 38, (6, 1e6): 38,
    (12, -0.99): 105, (12, -0.9): 84, (12, 0.125): 21,
    (12, 10.0): 42, (12, 1000.0): 38, (12, 1e6): 38,
}
# LAPLACE at x = 1000 and 1e6, past cut_m, sums 27 terms and builds no
# mesh (357 to 567 nodes before)
LAPLACE_PINS = {
    (1, 0.0): 147, (1, 0.5): 147, (1, 10.0): 210, (1, 1000.0): 27, (1, 1e6): 27,
    (6, 0.0): 189, (6, 0.5): 147, (6, 10.0): 168, (6, 1000.0): 27, (6, 1e6): 27,
    (12, 0.0): 210, (12, 0.5): 210, (12, 10.0): 210, (12, 1000.0): 27, (12, 1e6): 27,
}
# HURWITZ + LAPLACE n_evals over m in BUDGET_MS x BUDGET_XS, three x in
# each region the benchmark draws from: |x| < 0.125, the seam band,
# (-1, -0.26] and (0.26, 1e6].  Without a mesh graded from x the total
# grows with log x (19,290 at the bisect-from-one-panel meshes; 14,040
# with G7/K15 panels; 10,962 before LAPLACE took x = 300 and 1e6 with no
# quadrature, 5,844 before HURWITZ did).
BUDGET_MS = (1, 4, 8, 12)
BUDGET_XS = (
    -3e-5, 1e-3, 0.07, -0.2, 0.15, 0.25, -0.97, -0.75, -0.4, 2.0, 300.0, 1e6,
)
BUDGET_EVALS = 5290


# HYP's range, x from -1 + 1e-15 to 1e15: log-uniform in 1 + x below 0
# and in |x| on both sides of 0, and uniform over the seam band
_HYP_X = st.one_of(
    st.floats(min_value=-0.26, max_value=0.26),
    st.builds(lambda e: 10.0**e, st.floats(min_value=-12.0, max_value=15.0)),
    st.builds(lambda e: -(10.0**e), st.floats(min_value=-12.0, max_value=-0.6)),
    st.builds(lambda e: -1.0 + 10.0**e, st.floats(min_value=-15.0, max_value=0.0)),
)


@given(m=st.integers(min_value=1, max_value=12), x=_HYP_X)
@settings(max_examples=150, deadline=None)
@example(m=1, x=0.0)
@example(m=12, x=0.0)
@example(m=1, x=-1.0 + 1e-12)
@example(m=12, x=-1.0 + 1e-12)
@example(m=1, x=1e12)
@example(m=12, x=1e12)
# either side of where gauss_2f1 takes the log branch: for x > 0 at
# F(1, m+1; m+2; x/(x+1)), for x < 0 at F(1, 2; m+2; -x) after Pfaff
@example(m=1, x=13.335898726849978)
@example(m=1, x=13.33589872684998)
@example(m=12, x=12.71546652338514)
@example(m=12, x=12.715466523385142)
@example(m=1, x=-0.9302450429475285)
@example(m=1, x=-0.9302450429475286)
@example(m=12, x=-0.9999967812811679)
@example(m=12, x=-0.999996781281168)
# 1.84x and 1.34x past the estimate before it charged the rounding of z
@example(m=12, x=189588041481594.28)
@example(m=10, x=69524776180793.72)
def test_hyp_sweep_within_estimate(m, x, mp_deriv, mp_taylor_deriv):
    r = delta_deriv(m, x, Route.HYP)
    assert r.converged, (m, x)
    exact = mp_taylor_deriv(m, x) if abs(x) <= 0.26 else mp_deriv(m, x)
    assert abs(r.value - exact) <= r.abs_err_est, (m, x, r.value, exact, r.abs_err_est)


class TestOracle:
    @pytest.mark.parametrize("m", ORACLE_MS)
    def test_hyp_within_estimate(self, m, mp_deriv):
        for x in ORACLE_XS:
            r = delta_deriv(m, x, Route.HYP)
            ref = mp_deriv(m, x)
            assert abs(r.value - ref) <= r.abs_err_est, (m, x, r.value, ref)
            # m! is counted once: the estimate once reached 4e-16 m! |value|
            assert r.abs_err_est <= 1e-12 * abs(r.value), (m, x, r.abs_err_est)

    @pytest.mark.parametrize("m", ORACLE_MS)
    def test_hurwitz_within_estimate(self, m, mp_deriv):
        # x -> -1 included: the integral runs in 1 - u there, and once
        # missed by up to 963x at x + 1 = 1e-8
        for x in ORACLE_XS:
            r = delta_deriv(m, x, Route.HURWITZ)
            ref = mp_deriv(m, x)
            assert abs(r.value - ref) <= r.abs_err_est, (m, x, r.value, ref)

    @pytest.mark.parametrize("m,x", HURWITZ_ROUNDING_POINTS)
    def test_hurwitz_rounding_floor(self, m, x, mp_deriv):
        r = delta_deriv(m, x, Route.HURWITZ)
        ref = mp_deriv(m, x)
        assert abs(r.value - ref) <= r.abs_err_est, (r.value, ref)

    @pytest.mark.parametrize("m,x", RECURRENCE_ROUNDING_POINTS)
    def test_recurrence_rounding(self, m, x, mp_deriv):
        r = delta_deriv(m, x, Route.RECURRENCE)
        ref = mp_deriv(m, x)
        assert abs(r.value - ref) <= r.abs_err_est, (r.value, ref, r.abs_err_est)

    @pytest.mark.parametrize("m", [6, 12])
    @pytest.mark.parametrize("x", [1e2, 1e4, 1e6])
    def test_laplace_tail_follows_x(self, m, x, mp_deriv):
        # the tail past T once ignored x: 1.2e45 |value| at m = 12, x = 1e4
        r = delta_deriv(m, x, Route.LAPLACE)
        ref = mp_deriv(m, x)
        assert abs(r.value - ref) <= r.abs_err_est, (r.value, ref)
        assert r.abs_err_est <= 1e-12 * abs(r.value), r.abs_err_est

    @pytest.mark.parametrize("s,a", VERIFY_GRID)
    def test_p1_integral_closed_form(self, s, a):
        # integral_0^inf p1(t) (t+a)^(-s-1) dt = (a^-s/2 + a^(1-s)/(s-1) - zeta(s,a))/s
        mpmath = pytest.importorskip("mpmath")
        r = p1_integral(((a, s + 1.0),))
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

    def test_hyp_integrate_finite_calls(self, monkeypatch):
        calls = []

        def recorded(f, a, b, *args, **kwargs):
            calls.append((a, b))
            return integrate_finite(f, a, b, *args, **kwargs)

        monkeypatch.setattr(quad, "integrate_finite", recorded)
        for m, x in sorted(HYP_PINS):
            calls.clear()
            delta_deriv(m, x, Route.HYP)
            assert calls[0][0] == 0.0, (m, x, calls)
            assert len(calls) <= HYP_INTEGRATE_FINITE_CALLS, (m, x, calls)

    @pytest.mark.parametrize("s,a", VERIFY_GRID)
    def test_p1_integral_verify_grid(self, s, a):
        n = p1_integral(((a, s + 1.0),)).n_evals
        assert n <= HEADROOM * P1_PINS[s, a], n

    @pytest.mark.parametrize("m,x", sorted(HURWITZ_PINS))
    def test_hurwitz(self, m, x):
        n = delta_deriv(m, x, Route.HURWITZ).n_evals
        assert n <= HEADROOM * HURWITZ_PINS[m, x], n

    @pytest.mark.parametrize("m,x", sorted(LAPLACE_PINS))
    def test_laplace(self, m, x):
        n = delta_deriv(m, x, Route.LAPLACE).n_evals
        assert n <= HEADROOM * LAPLACE_PINS[m, x], n

    def test_hurwitz_laplace_budget(self):
        n = 0
        for m in BUDGET_MS:
            for x in BUDGET_XS:
                n += delta_deriv(m, x, Route.HURWITZ).n_evals
                if x >= 0.0:
                    n += delta_deriv(m, x, Route.LAPLACE).n_evals
        assert n <= HEADROOM * BUDGET_EVALS, n


def _tail_calls(monkeypatch, coeffs, factors):
    """The (a, b) of each integrate_finite call integrate_unit_split makes
    on its way to a converged value."""
    calls = []

    def recorded(f, a, b, *args, **kwargs):
        calls.append((a, b))
        return integrate_finite(f, a, b, *args, **kwargs)

    monkeypatch.setattr(quad, "integrate_finite", recorded)
    assert integrate_unit_split(coeffs, factors).converged
    return calls


class TestTailStart:
    """The first tail try, at quad._FIRST_TRY, is where the callers'
    tails meet their tolerance: the march after it is short, and the try
    one unit earlier would mostly fail."""

    @pytest.mark.parametrize("m", range(1, 13))
    def test_hyp_oracle_grid(self, m, monkeypatch):
        # every HYP sawtooth on the grid is one call, its first try succeeds
        for x in ORACLE_XS:
            factors = ((1.0, 1.0), (x + 1.0, m + 1.0))
            assert _tail_calls(monkeypatch, (-0.5, 1.0), factors) == [(0.0, 6.0)]

    @pytest.mark.parametrize("m", range(1, 9))
    def test_prop2_rows(self, m, monkeypatch):
        # the Proposition 2 rows meet their tail by t = 8
        for j in range(5):
            row = tuple(math.comb(m, i) * float(j) ** (m - i) for i in range(m + 1))
            calls = _tail_calls(monkeypatch, row, ((j + 1.0, m + 1.0),))
            assert calls[0] == (0.0, 6.0) and len(calls) <= 3, (j, calls)

    @given(
        log_c1=st.floats(min_value=-9.0, max_value=1.2),
        p1=st.floats(min_value=1.05, max_value=13.0),
        log_c2=st.floats(min_value=-9.0, max_value=1.2),
        p2=st.integers(min_value=1, max_value=13),
        two=st.booleans(),
        shift=st.sampled_from([0.0, 1.0]),
        vanish=st.booleans(),
        q=st.lists(st.integers(min_value=-8, max_value=8), min_size=1, max_size=6),
    )
    @settings(max_examples=25, deadline=None)
    # y over (t + 1e-6)^5, once 4.0x off its estimate and converged
    @example(
        log_c1=-6.0, p1=5.0, log_c2=0.0, p2=1, two=False, shift=0.0, vanish=True, q=[0, 4]
    )
    # (0, 0.25, -0.375) over ((1e-9, 2), (1, 1)), once unconverged
    @example(
        log_c1=-9.0, p1=2.0, log_c2=0.0, p2=1, two=True, shift=0.0, vanish=True, q=[1, -1]
    )
    def test_factor_pairs(
        self, log_c1, p1, log_c2, p2, two, shift, vanish, q, mp_unit_split
    ):
        # against the oracle, c down to 1e-9 beside t = 0, with phi(0) = 0
        # (vanish) among the polynomials: one factor, or two with integer
        # powers and a zero-mean phi; shift 1 raises both c by 1, the
        # integral from t = 1 of the unshifted factors
        c1, c2 = 10.0**log_c1 + shift, 10.0**log_c2 + shift
        if two:
            # the oracle's partial fractions cancel by about scale^(p1 + p2 - 1)
            assume(c1 != c2)
            scale = (1.0 + max(c1, c2)) / abs(c1 - c2)
            assume((round(p1) + p2 - 1) * math.log10(scale) <= 12.0)
            factors = ((c1, float(round(p1))), (c2, float(p2)))
            # coeffs[i]/(i + 1) sum to 0, over i >= 1 if phi(0) = 0
            q = [0, *q] if vanish else q
            q[int(vanish)] -= sum(q)
        else:
            factors = ((c1, p1),)
            q = [0, *q[1:]] if vanish else q
        coeffs = tuple((i + 1) * qi / 8.0 for i, qi in enumerate(q))
        r = integrate_unit_split(coeffs, factors)
        ref = mp_unit_split(coeffs, factors)
        assert r.converged
        assert abs(r.value - ref) <= r.abs_err_est, (r.value, ref, r.abs_err_est)

    def test_first_try_is_close_to_the_stop(self):
        # on the HYP pin grid the try one unit before the first would meet
        # the march's tolerance at one pin of twelve only
        parts = quad._sawtooth_plan((-0.5, 1.0))[2]
        early = 0
        for m, x in HYP_PINS:
            factors = ((1.0, 1.0), (x + 1.0, m + 1.0))
            tol = 1e-16 * abs(p1_integral(factors).value)
            early += quad._sawtooth_tail(parts, factors, quad._FIRST_TRY - 1.0, tol) is not None
        assert early <= 1, early


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
            p1_integral(factors)

    def test_more_factors_than_hyp_uses(self):
        # (t+1)^-2 (t+2)^-1 split as three factors gives the same integral
        two = p1_integral(((1.0, 2.0), (2.0, 1.0)))
        three = p1_integral(((1.0, 1.0), (2.0, 1.0), (1.0, 1.0)))
        assert abs(two.value - three.value) <= two.abs_err_est + three.abs_err_est
