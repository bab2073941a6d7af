"""Panel integrands and the kernels under them: each route's panel kernel
against its scalar kernel bit for bit, the Hurwitz-zeta and E_m kernels
against mpmath within their proven truncation bound plus a stated
rounding charge (the kernels' pre-Horner bodies, kept below as the
baseline, have their mpmath error reported beside the kernels'), and the
quadrature routes replayed against recorded values."""

import importlib
import math
import os
import subprocess
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nlgamma import quad
from nlgamma._backend import kernels
from nlgamma.delta import Route, delta_deriv
from nlgamma.quad import integrate_finite, pointwise

# the module, which the package's function `delta` shadows as an attribute
delta_module = importlib.import_module("nlgamma.delta")

# B_2i/(2i)! for 2i = 2..30, rounded to double, as the reference bodies
# below used them
_B2I_OVER_FACT = tuple(
    p / (q * math.factorial(2 * i + 2)) for i, (p, q) in enumerate(kernels._BERNOULLI)
)


def ref_hurwitz_zeta(s, a):
    """The scalar Hurwitz-zeta body from before the s-keyed cache."""
    n = max(0, math.ceil(10.0 + s - a))
    z = a + n
    total = (
        math.fsum([(a + k) ** (-s) for k in range(n)])
        + z ** (1.0 - s) / (s - 1.0)
        + 0.5 * z ** (-s)
    )
    zpow = z ** (-s - 1.0)
    poch = s
    z2 = z * z
    for i in range(15):
        term = _B2I_OVER_FACT[i] * poch * zpow
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
        poch *= (s + 2 * i + 1) * (s + 2 * i + 2)
        zpow /= z2
    return total


def ref_upper_incomplete_gamma_int(n, x):
    """Gamma(n+1, x) as the reference E_m body summed it, by math.fsum."""
    term = 1.0
    terms = [term]
    for m in range(1, n + 1):
        term *= x / m
        terms.append(term)
    return float(math.factorial(n)) * math.exp(-x) * math.fsum(terms)


def ref_trunc_exp_factor(m, y):
    """The scalar E_m body from before the m-keyed cache."""
    if y == 0.0:
        return 1.0 / (m + 1)
    if y > 745.2:
        return math.factorial(m) * y ** -(m + 1)
    if y <= m + 1 + 2.0 * math.sqrt(m + 1):
        term = 1.0 / (m + 1)
        acc = term
        i = 1
        while True:
            term *= y / (m + 1 + i)
            acc += term
            if term <= 1e-18 * acc:
                break
            i += 1
        return math.exp(-y) * acc
    return (math.factorial(m) - ref_upper_incomplete_gamma_int(m, y)) / y ** (m + 1)


def ref_hz_route(m, x, u):
    if u <= 0.0:
        return 0.0
    return u**m * ref_hurwitz_zeta(m + 1.0, x * u + 1.0)


def ref_laplace(m, x, t):
    if t <= 0.0:
        return 0.5 if m == 1 else 0.0
    em = ref_trunc_exp_factor(m, x * t)
    return t**m / math.expm1(t) * em


# What the kernels may leave out: a proven 2^-60 of the value.
TRUNCATION = 2.0**-60
ULP = 2.0**-53


def zeta_charge(s):
    """Relative rounding charge of hurwitz_zeta(s, a).  a + k rounds to
    within ULP relative, which moves (a + k)^(-s) by s ULP; 4 more cover
    the powers, the Horner tail and the final rounding of the sum."""
    return (s + 4.0) * ULP


# Relative rounding charge of trunc_exp_factor: the Horner sums, e^(-y)
# and the powers.  Measured worst: 5.5 ULP on 30,000 draws of m = 0..29,
# y up to 800 (the reference body reached 13.0 ULP on 3,000 of them);
# with the seam at y = m + 1, 6.9 ULP on 30,000 draws with a third in the
# band (m + 1)/2 .. m + 1 + 3 sqrt(m + 1) (5.3 ULP before the move).
TRUNC_EXP_CHARGE = 8.0 * ULP
# u^m or t^m / expm1(t) and the product, on top of the kernel's charge
PANEL_EXTRA = 4.0 * ULP
# Below this, results may be subnormal: their error is absolute.
UNDERFLOW_SLACK = 2.0**-1060


def _mp():
    return pytest.importorskip("mpmath")


def mp_zeta(s, a):
    """zeta(s, a) from two mpmath precisions 40 digits apart that agree to
    1e-30: at large s, mpmath needs far more than 40 digits for it."""
    mp = _mp()
    dps = 50
    while True:
        with mp.workdps(dps):
            lo = mp.zeta(s, a)
        with mp.workdps(dps + 40):
            hi = mp.zeta(s, a)
        if abs(lo - hi) <= mp.mpf(10) ** -30 * abs(hi):
            return hi
        dps *= 2


def mp_trunc_exp(m, y):
    """E_m(y) = gamma(m+1, y)/y^(m+1) at 40 digits (1/(m+1) at y = 0)."""
    mp = _mp()
    with mp.workdps(40):
        if y == 0.0:
            return mp.mpf(1) / (m + 1)
        return mp.gammainc(m + 1, 0, y) / mp.mpf(y) ** (m + 1)


def rel_err(value, exact):
    """|value - exact| in units of |exact| ULP."""
    return float(abs(value - exact) / abs(exact)) / ULP


def assert_within(value, exact, charge, baseline, what):
    """value within TRUNCATION + charge of exact, relative (plus the
    underflow slack); the baseline's error goes into the message."""
    bound = (TRUNCATION + charge) * abs(exact) + UNDERFLOW_SLACK
    assert abs(value - exact) <= bound, (
        f"{what}: {rel_err(value, exact):.2f} ULP, charge {charge / ULP:.2f} ULP; "
        f"pre-Horner reference {rel_err(baseline, exact):.2f} ULP"
    )


MS = (1, 2, 5, 8, 12)
# u <= 0 (both zeros), the interior, and the end at 1
U_NODES = [-0.5, -0.0, 0.0, 1e-300, 1e-9, 0.004, 0.1, 0.37, 0.5, 0.9, 1.0 - 1e-16, 1.0]


def _bits(values):
    return [v.hex() for v in values]


class TestPanelKernels:
    @pytest.mark.parametrize("m", MS)
    # HURWITZ's one piece in u, -1/2 <= x <= 1, both sides of 0; and x > 1
    @pytest.mark.parametrize(
        "x", [-0.5, -0.15, -1e-9, 0.0, 1e-12, 0.02, 0.9, 3.0, 250.0, 1e6]
    )
    def test_hz_route_panel(self, m, x):
        panel = kernels.hz_route_panel(m, x, U_NODES)
        scalar = [kernels.hz_route_integrand(m, x, u) for u in U_NODES]
        assert _bits(panel) == _bits(scalar)
        mp = _mp()
        charge = zeta_charge(m + 1.0) + PANEL_EXTRA
        for u, value in zip(U_NODES, panel):
            if u <= 0.0:
                assert value == 0.0
                continue
            exact = mp.mpf(u) ** m * mp_zeta(m + 1, x * u + 1.0)
            assert_within(value, exact, charge, ref_hz_route(m, x, u), (m, x, u))

    @pytest.mark.parametrize("m", MS)
    def test_laplace_panel_every_em_branch(self, m):
        edge = m + 1 + 2.0 * math.sqrt(m + 1)
        seam, cut = m + 1.0, kernels._trunc_exp_plan(m)[3]
        # x t = 0 (x = 0), the series up to its seam at m + 1, the closed
        # form past it (and past the old edge), with no sum past the cut,
        # and past 745.2 where e^(-y) underflows; t <= 0 as well
        cases = [
            (0.0, [0.0, 0.5, 7.0, 80.0]),
            (1.0, [-1.0, 0.0, 1e-8, 0.3, edge / 2, edge, math.nextafter(edge, 0.0)]),
            (1.0, [math.nextafter(edge, math.inf), edge + 1.0, 100.0]),
            (1.0, [math.nextafter(seam, 0.0), seam, math.nextafter(seam, math.inf)]),
            (1.0, [math.nextafter(cut, 0.0), cut, math.nextafter(cut, math.inf)]),
            (10.0, [74.52, 74.53, 90.0, 96.9]),
        ]
        mp = _mp()
        charge = TRUNC_EXP_CHARGE + PANEL_EXTRA
        for x, ts in cases:
            panel = kernels.laplace_panel(m, x, ts)
            assert _bits(panel) == _bits(kernels.laplace_integrand(m, x, t) for t in ts)
            for t, value in zip(ts, panel):
                if t <= 0.0:
                    assert value == (0.5 if m == 1 else 0.0)
                    continue
                with mp.workdps(40):
                    exact = mp.mpf(t) ** m / mp.expm1(t) * mp_trunc_exp(m, x * t)
                assert_within(value, exact, charge, ref_laplace(m, x, t), (m, x, t))

    @pytest.mark.parametrize("m", range(0, 30))
    def test_trunc_exp_factor_series_edge(self, m):
        # y = 0, both sides of the old edge m + 1 + 2 sqrt(m + 1), the
        # closed form, and past 745.2 where e^(-y) underflows; then the
        # seam at m + 1, where the series is at its longest and the closed
        # form takes over, and the cut past which its Poisson sum is
        # dropped, each with the doubles either side
        edge = m + 1 + 2.0 * math.sqrt(m + 1)
        ys = (0.0, math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf))
        ys += (2.0 * edge, 745.2, math.nextafter(745.2, math.inf), 1e4)
        for y in (m + 1.0, kernels._trunc_exp_plan(m)[3]):
            ys += (math.nextafter(y, 0.0), y, math.nextafter(y, math.inf))
        for y in ys:
            assert_within(
                kernels.trunc_exp_factor(m, y),
                mp_trunc_exp(m, y),
                TRUNC_EXP_CHARGE,
                ref_trunc_exp_factor(m, y),
                (m, y),
            )

    @pytest.mark.parametrize("m", range(0, 30))
    def test_trunc_exp_factor_proofs(self, m):
        # both facts the closed form rests on, at 40 digits: the Poisson sum
        # Q = e^(-y) sum_{i<=m} y^i/i! is under 1/2 at the seam y = m + 1,
        # so 1 - Q >= 1/2 past it; and Q <= 2^-56 at the cut (it falls as
        # y rises), so 1.0 - Q rounds to 1.0 past it
        mp = _mp()
        _, _, seam, cut, _, _, _ = kernels._trunc_exp_plan(m)
        assert seam == m + 1 and m < cut <= 745.2
        with mp.workdps(40):
            assert mp.gammainc(m + 1, seam, regularized=True) < 0.5
            q = mp.gammainc(m + 1, cut, regularized=True)
            assert q <= mp.mpf(2) ** -56
        assert 1.0 - float(q) == 1.0

    @given(
        m=st.integers(min_value=0, max_value=29),
        y=st.floats(min_value=0.0, max_value=800.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_trunc_exp_factor_matches_reference(self, m, y):
        # the reference is mpmath; the pre-Horner body is the baseline
        assert_within(
            kernels.trunc_exp_factor(m, y),
            mp_trunc_exp(m, y),
            TRUNC_EXP_CHARGE,
            ref_trunc_exp_factor(m, y),
            (m, y),
        )

    @given(
        s=st.floats(min_value=1.5, max_value=60.0),
        a=st.floats(min_value=0.0, max_value=1e6, exclude_min=True),
    )
    @settings(max_examples=60, deadline=None)  # mpmath needs ~80 ms each
    def test_hurwitz_zeta_any_s(self, s, a):
        exact = mp_zeta(s, a)
        assume(not 1e308 <= exact <= 2e308)  # either outcome is fair here
        if exact > 2e308:  # tiny a with large s: a^(-s) overflows
            with pytest.raises(OverflowError):
                kernels.hurwitz_zeta(s, a)
            return
        baseline = ref_hurwitz_zeta(s, a)
        assert_within(kernels.hurwitz_zeta(s, a), exact, zeta_charge(s), baseline, (s, a))

    @pytest.mark.parametrize("s", [2, 3, 13])
    def test_hurwitz_zeta_integer_s(self, s):
        # the tables' coefficients are rounded once from exact integers, so
        # an int s and the same float give the same bits, whichever built
        # the Taylor table; the a cover both paths and the Taylor path's
        # seams: a tiny a (a^-s still a double), the ends of every eighth
        # of (0, 1) and [1, 2) with their neighbours, and the seam at 2
        points = [1e-20, 0.5, 7.25, 40.0]
        for end in (j / 8.0 for j in range(1, 17)):
            points += [math.nextafter(end, 0.0), end, math.nextafter(end, 3.0)]
        kernels._zeta_taylor.cache_clear()
        by_int = [kernels.hurwitz_zeta(s, a) for a in points]
        kernels._zeta_taylor.cache_clear()
        assert _bits(by_int) == _bits(kernels.hurwitz_zeta(float(s), a) for a in points)
        for a, value in zip(points, by_int):
            assert_within(
                value, mp_zeta(s, a), zeta_charge(s), ref_hurwitz_zeta(s, a), (s, a)
            )

    def test_domain_errors_unchanged(self):
        with pytest.raises(ValueError, match="need s > 1"):
            kernels.hurwitz_zeta(1.0, 1.0)
        with pytest.raises(ValueError, match="need a > 0"):
            kernels.hz_route_panel(3, -2.0, [0.75])
        with pytest.raises(ValueError, match="requires y >= 0"):
            kernels.laplace_panel(3, -1.0, [0.5])

    def test_caches_are_bounded(self):
        caches = (kernels._zeta_plan, kernels._zeta_taylor, kernels._trunc_exp_plan)
        for cache in caches:
            assert cache.cache_info().maxsize == 64
        for i in range(200):
            kernels.hurwitz_zeta(1.5 + i / 7.0, 2.0)
            kernels.trunc_exp_factor(i, 1.0)
        for i in range(70):  # a < 2: a Taylor table for each s
            kernels.hurwitz_zeta(1.5 + i / 5.0, 1.5)
        for cache in caches:
            assert cache.cache_info().currsize <= 64
        # past _TAYLOR_S_MAX the table would grow like s^2: no table
        kernels._zeta_taylor.cache_clear()
        kernels.hurwitz_zeta(kernels._TAYLOR_S_MAX + 1.0, 1.5)
        assert kernels._zeta_taylor.cache_info().currsize == 0

    def test_setup_builds_no_taylor_table(self):
        # the benchmark's setup path: D'(0.5) by CLOSED reaches no zeta
        # value, so no table is built before the first a < 2 asks for one
        code = (
            "import nlgamma; nlgamma.delta_deriv(1, 0.5)\n"
            "from nlgamma._backend import kernels\n"
            "print(kernels._zeta_taylor.cache_info().currsize)"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "0"


class TestPanelContract:
    def test_one_call_per_panel_in_node_order(self, monkeypatch):
        monkeypatch.setattr(quad, "_MAX_SPLITS", 3)
        calls = []

        def f(nodes):
            calls.append(list(nodes))
            return [math.exp(t) for t in nodes]

        r = integrate_finite(f, 0.0, 2.0)
        assert len(calls) * 21 == r.n_evals
        # the centre, then 1 - xi, 1 + xi for each node xi of the rule
        xis = [xi for xi, _, _ in quad._GK21]
        assert calls[0] == [1.0, *(t for xi in xis for t in (1.0 - xi, 1.0 + xi))]

    def test_pointwise_matches_a_panel_form(self):
        m, x = 6, 0.5
        tols = {"rel_tol": 1e-12, "abs_tol": 5e-300}
        scalar = integrate_finite(
            pointwise(lambda t: kernels.laplace_integrand(m, x, t)), 0.0, 60.0, **tols
        )
        panel = integrate_finite(
            lambda ts: kernels.laplace_panel(m, x, ts), 0.0, 60.0, **tols
        )
        assert scalar == panel


# (route, m, x): (value, abs_err_est, n_evals, converged), first recorded
# when every quadrature node was a separate integrand call.  The HYP rows
# were recorded again when the sawtooth march became one integrate_finite
# call over [0, X0] with tail weights up to B_30, every row when the
# panel became the G10/K21 pair, the HURWITZ and LAPLACE rows when
# their kernels began to cut their sums by proven remainder bounds (no
# n_evals moved), and the HYP rows when the sawtooth's first call became
# [0, 6] (X0 had been 5, 2 and 5 at (4, -0.9), (12, -0.9) and (12, 0.02),
# whose values or counts moved) and its estimate began to charge the
# integrand's rounding (every HYP estimate rose, by up to 2.2x).  Six
# HURWITZ estimates moved in their last bits when the zeta kernel took
# a < 2 from Taylor tables, and every HYP row lost one eval (and three
# values moved by an ulp) when HYP began to evaluate one 2F1, not two.
# The 18 HURWITZ rows with x outside [-1/2, 1] were recorded again when
# HURWITZ began to integrate there in v = ln(a/b) over pieces of width 2
# (n_evals fell at 17 of them, 840 -> 294 at m = 1, x = -1 + 1e-12 for
# one, and rose 42 -> 63 at m = 12, x = 3).  Every HYP estimate rose,
# by 0.04% to 104% (m = 12, x = 250), when HYP began to charge the
# rounding of z = x/(x + 1), 3 2^-52 m! |x term1|; no value or count moved.
# Two LAPLACE estimates moved in their last digits, (4, 0.4) from
# 3.389772979726666e-14 and (4, 100000.0) from 1.6062727025340771e-34,
# when E_m's closed form took over at y = m + 1 instead of
# m + 1 + 2 sqrt(m + 1); no value or count moved.  The HURWITZ rows at
# x = -0.15 for m = 4 and 12 moved in their last bits when -1/2 <= x < 0
# began to integrate in u, not in s = 1 - u: -9.676224902282764 ±
# 2.128769478502208e-14 and -261883926.92589426 ± 0.0009468054027867056
# before; n_evals stayed 21.  The six LAPLACE rows at x = 250 and 1e5
# were recorded again when LAPLACE from x = cut_m on (43.3 to 72.9)
# became two Bernoulli series with no quadrature: each value moved by
# 1 or 2 ulps, n_evals went from 273-483 nodes to the 27 terms summed,
# and the estimates went from 0.72x (m = 4) to 1.9x (m = 1,
# 4.0309372382052435e-18 before at x = 250) of what they were, and to
# 0.007x at m = 12, where the panels' estimates were the loosest.
# test_route_replay_within_estimate checks each row against mpmath.
ROUTE_REPLAY = {
    ("HURWITZ", 1, -0.999999999999):
        (1000022122183.449, 0.0022174684962606534, 294, True),
    ("HURWITZ", 1, -0.999):
        (994.6561350885357, 2.286792061320524e-12, 84, True),
    ("HURWITZ", 1, -0.6):
        (2.055980302914683, 4.523156666412303e-15, 21, True),
    ("HURWITZ", 1, -0.15):
        (0.9642432589046455, 2.1213351695902202e-15, 21, True),
    ("HURWITZ", 1, 0.02):
        (0.8067578016162269, 1.7748671635556991e-15, 21, True),
    ("HURWITZ", 1, 0.4):
        (0.5941193521145303, 1.3070625746519667e-15, 21, True),
    ("HURWITZ", 1, 3.0):
        (0.21962150400748293, 7.355457291451604e-16, 21, True),
    ("HURWITZ", 1, 250.0):
        (0.0039491146294705366, 1.6575709108888653e-17, 63, True),
    ("HURWITZ", 1, 100000.0):
        (9.99938245970677e-06, 5.442817926067361e-20, 126, True),
    ("HURWITZ", 4, -0.999999999999):
        (-6.000530950644443e+48, 5.6582572869562425e+35, 294, True),
    ("HURWITZ", 4, -0.999):
        (-5998001994119.194, 0.06510382473855297, 84, True),
    ("HURWITZ", 4, -0.6):
        (-211.1904461668318, 5.036828049696792e-13, 21, True),
    ("HURWITZ", 4, -0.15):
        (-9.676224902282762, 2.2619962414572264e-14, 21, True),
    ("HURWITZ", 4, 0.02):
        (-4.590244746574044, 1.076467225723799e-14, 21, True),
    ("HURWITZ", 4, 0.4):
        (-1.261533144322665, 3.60804018597873e-15, 21, True),
    ("HURWITZ", 4, 3.0):
        (-0.01854725506140877, 7.122306958376108e-17, 21, True),
    ("HURWITZ", 4, 250.0):
        (-1.4711274950021846e-09, 7.550339278354502e-24, 63, True),
    ("HURWITZ", 4, 100000.0):
        (-5.998647902696239e-20, 3.7418104237418917e-34, 126, True),
    ("HURWITZ", 12, -0.999999999999):
        (-3.9927397863146785e+151, 1.2906970911465122e+137, 378, True),
    ("HURWITZ", 12, -0.999):
        (-3.9913171925517767e+43, 3.709329166691769e+32, 126, True),
    ("HURWITZ", 12, -0.6):
        (-2298854138314.8223, 0.08302598569646785, 63, True),
    ("HURWITZ", 12, -0.15):
        (-261883926.92589417, 0.000946911762507736, 21, True),
    ("HURWITZ", 12, 0.02):
        (-29015654.457402278, 6.715818108848683e-08, 21, True),
    ("HURWITZ", 12, 0.4):
        (-632772.0045224159, 1.0345563025993678e-06, 21, True),
    ("HURWITZ", 12, 3.0):
        (-1.9245792481359514, 3.170762939618695e-14, 63, True),
    ("HURWITZ", 12, 250.0):
        (-6.011463371148901e-22, 1.6094934605280845e-33, 63, True),
    ("HURWITZ", 12, 100000.0):
        (-3.989225688363911e-53, 7.883084859932819e-67, 126, True),
    ("LAPLACE", 1, 0.0):
        (0.8224670334241132, 1.4897389868398514e-15, 147, True),
    ("LAPLACE", 1, 0.02):
        (0.8067578016162269, 1.5190539065416419e-15, 147, True),
    ("LAPLACE", 1, 0.4):
        (0.5941193521145302, 1.1140346472852058e-15, 147, True),
    ("LAPLACE", 1, 3.0):
        (0.21962150400748295, 4.4377275371473043e-16, 168, True),
    ("LAPLACE", 1, 250.0):
        (0.003949114629470539, 7.692970688278357e-18, 27, True),
    ("LAPLACE", 1, 100000.0):
        (9.999382459706766e-06, 1.9144686138108164e-20, 27, True),
    ("LAPLACE", 4, 0.0):
        (-4.977253224688176, 8.174537270221066e-14, 147, True),
    ("LAPLACE", 4, 0.02):
        (-4.590244746574045, 1.0669902006821903e-13, 147, True),
    ("LAPLACE", 4, 0.4):
        (-1.261533144322665, 3.389773149133255e-14, 147, True),
    ("LAPLACE", 4, 3.0):
        (-0.018547255061408773, 1.714400937979831e-16, 147, True),
    ("LAPLACE", 4, 250.0):
        (-1.4711274950021854e-09, 2.969433601576017e-24, 27, True),
    ("LAPLACE", 4, 100000.0):
        (-5.998647902696234e-20, 1.137887194989115e-34, 27, True),
    ("LAPLACE", 12, 0.0):
        (-36850798.453063965, 2.5313020470614905e-05, 210, True),
    ("LAPLACE", 12, 0.02):
        (-29015654.457402267, 1.637227275923914e-07, 252, True),
    ("LAPLACE", 12, 0.4):
        (-632772.0045224158, 2.8339830031597615e-07, 210, True),
    ("LAPLACE", 12, 3.0):
        (-1.9245792481359516, 1.3259695176926386e-12, 168, True),
    ("LAPLACE", 12, 250.0):
        (-6.011463371148904e-22, 1.0986163169945437e-36, 27, True),
    ("LAPLACE", 12, 100000.0):
        (-3.989225688363909e-53, 6.267122961336871e-68, 27, True),
    ("HYP", 1, -0.9):
        (8.800823203254032, 1.4988260378892258e-13, 190, True),
    ("HYP", 1, -0.15):
        (0.9642432589046456, 9.742318008724455e-15, 148, True),
    ("HYP", 1, 0.02):
        (0.8067578016162269, 8.177838558615589e-15, 148, True),
    ("HYP", 1, 0.4):
        (0.5941193521145304, 6.156058351070739e-15, 148, True),
    ("HYP", 1, 3.0):
        (0.21962150400748295, 2.3720152406643048e-15, 148, True),
    ("HYP", 1, 250.0):
        (0.003949114629470538, 4.71251058928886e-17, 148, True),
    ("HYP", 4, -0.9):
        (-58165.89028336013, 1.260538555088238e-08, 232, True),
    ("HYP", 4, -0.15):
        (-9.676224902282764, 1.6302737000400519e-13, 148, True),
    ("HYP", 4, 0.02):
        (-4.590244746574044, 4.5009076924126125e-14, 148, True),
    ("HYP", 4, 0.4):
        (-1.2615331443226658, 1.1942243670641796e-14, 148, True),
    ("HYP", 4, 3.0):
        (-0.018547255061408773, 2.0591255497759094e-16, 148, True),
    ("HYP", 4, 250.0):
        (-1.4711274950021858e-09, 2.2419367047621085e-23, 148, True),
    ("HYP", 12, -0.9):
        (-3.956094698821565e+19, 525318.093972006, 316, True),
    ("HYP", 12, -0.15):
        (-261883926.92589423, 3.2039684903170135e-06, 190, True),
    ("HYP", 12, 0.02):
        (-29015654.457402267, 3.200923173939164e-07, 190, True),
    ("HYP", 12, 0.4):
        (-632772.0045224165, 3.546429463017451e-08, 148, True),
    ("HYP", 12, 3.0):
        (-1.9245792481359516, 2.0915259158265332e-14, 148, True),
    ("HYP", 12, 250.0):
        (-6.011463371148904e-22, 1.2956304907696283e-35, 148, True),
}


@pytest.mark.parametrize("route,m,x", sorted(ROUTE_REPLAY))
def test_route_replay(route, m, x):
    r = delta_deriv(m, x, Route[route])
    assert (r.value, r.abs_err_est, r.n_evals, r.converged) == ROUTE_REPLAY[route, m, x]


@pytest.mark.parametrize("route,m,x", sorted(ROUTE_REPLAY))
def test_route_replay_within_estimate(route, m, x, mp_deriv):
    value, err, _, _ = ROUTE_REPLAY[route, m, x]
    assert abs(value - mp_deriv(m, x)) <= err


# x = 0, and x log-uniform from 1e-12 to 1e15
_LAPLACE_X = st.one_of(
    st.just(0.0),
    st.builds(lambda e: 10.0**e, st.floats(min_value=-12.0, max_value=15.0)),
)


@given(m=st.integers(min_value=1, max_value=12), x=_LAPLACE_X)
@settings(max_examples=150, deadline=None)
# values among the subnormals, where the estimate's absolute floor counts
@example(m=2, x=1.0781075106225802e161)
@example(m=10, x=6.873199606905683e32)
# x = m + 1: the node t = 1 lands on E_m's seam
@example(m=1, x=2.0)
@example(m=6, x=7.0)
@example(m=12, x=13.0)
# x = cut_m, where the closed path takes over, and the doubles either side
@example(m=1, x=43.27701085991081)
@example(m=1, x=43.27701085991082)
@example(m=1, x=43.277010859910824)
@example(m=6, x=58.60814291671654)
@example(m=6, x=58.608142916716545)
@example(m=6, x=58.60814291671655)
@example(m=12, x=72.85575536358678)
@example(m=12, x=72.8557553635868)
@example(m=12, x=72.85575536358681)
# huge x: 2e-300 at m = 3, x = 1e100 (x^-(m+1) alone is 0.0 there), and
# 1e-300 and 0.0 at x = 1e300
@example(m=3, x=1e100)
@example(m=1, x=1e300)
@example(m=12, x=1e300)
# the closed path at x = 1e16, once a quadrature case of TestConverged
@example(m=1, x=1e16)
def test_laplace_sweep_within_estimate(m, x, mp_deriv, mp_taylor_deriv):
    r = delta_deriv(m, x, Route.LAPLACE)
    assert r.converged, (m, x)
    exact = mp_taylor_deriv(m, x) if x <= 0.26 else mp_deriv(m, x)
    assert abs(r.value - exact) <= r.abs_err_est, (m, x, r.value, exact, r.abs_err_est)


class TestLaplaceClosedPath:
    """LAPLACE from x = cut_m on: its Bernoulli table, G(a) = a J(a) and
    the moment table against mpmath, each within its stated bound."""

    # cut_m for the m whose seam the sweep above pins
    CUTS = {1: 43.27701085991082, 6: 58.608142916716545, 12: 72.8557553635868}

    @pytest.mark.parametrize("m", range(1, 13))
    def test_takes_over_at_cut(self, m):
        cut = kernels._trunc_exp_plan(m)[3]
        assert self.CUTS.get(m, cut) == cut
        below = delta_deriv(m, math.nextafter(cut, 0.0), Route.LAPLACE).n_evals
        assert below % 21 == 0, below  # K21 panels
        assert delta_deriv(m, cut, Route.LAPLACE).n_evals == 27
        assert delta_deriv(m, 1e300, Route.LAPLACE).n_evals == 27

    def test_bernoulli_table_and_constants(self):
        mp = _mp()
        with mp.workdps(40):
            for k, b in enumerate(delta_module._LAPLACE_B2K, 1):
                assert b == float(mp.bernoulli(2 * k) / mp.factorial(2 * k)), k
            assert delta_module._LAPLACE_J_CONST == float((mp.euler - mp.log(2 * mp.pi)) / 2)
            j_one = mp.quad(lambda t: 1 / (t * mp.expm1(t)), [1, mp.inf])
            j = delta_module._LAPLACE_J_ONE  # a lower bound, rounded down
            assert j <= j_one and math.nextafter(j, 1.0) >= j_one

    @pytest.mark.parametrize(
        "a", [1.0, 0.9999999999999999, 0.75, 0.5, 0.3, 0.1, 1e-3, 1e-8, 1e-30, 2.4e-307]
    )
    def test_j_against_mpmath(self, a):
        """G(a) = a J(a) against mpmath's quadrature of J down to a = 1e-8,
        and below, where that quadrature fails, against the same series
        summed to 40 terms in 40 digits with mpmath's Bernoulli numbers
        (its constant C checked above)."""
        mp = _mp()
        g, g_err = delta_module._laplace_g(a)
        with mp.workdps(40):
            a_mp = mp.mpf(a)
            if a >= 1e-8:
                exact = a_mp * mp.quad(lambda t: 1 / (t * mp.expm1(t)), [a, 1, mp.inf])
            else:
                tail = mp.fsum(
                    mp.bernoulli(2 * k) / mp.factorial(2 * k) * a_mp ** (2 * k) / (2 * k - 1)
                    for k in range(1, 41)
                )
                c = (mp.euler - mp.log(2 * mp.pi)) / 2
                exact = 1 + a_mp * (c + mp.log(a_mp) / 2) - tail
        assert abs(g - exact) <= g_err, (a, g, float(exact), g_err)
        assert g_err <= 8e-15 * g  # a few ulps of G, J(1) <= G <= 1

    @pytest.mark.parametrize("m", [1, 6, 12])
    def test_moments_against_mpmath(self, m):
        mp = _mp()
        cut, _, head, evens, converged = delta_module._laplace_row(m)
        assert converged
        for (k, b), (c, err) in zip(delta_module._LAPLACE_I1_TERMS, head + evens[::-1]):
            with mp.workdps(30):
                moment = mp.quad(
                    lambda y: y ** (m + k - 1) * mp.gammainc(m + 1, 0, y) / y ** (m + 1),
                    [0, m + 1, cut],
                )
                exact = mp.mpf(b) * moment / mp.mpf(cut) ** k
            assert abs(c - exact) <= err, (m, k, c, float(exact), err)
            assert err <= 1e-14 * abs(c)

    def test_unconverged_moment_is_not_silent(self, monkeypatch):
        inner = quad.integrate_finite

        def unconverged(*args, **kwargs):
            r = inner(*args, **kwargs)
            return quad.QuadResult(r.value, r.abs_err_est, r.n_evals, False)

        delta_module._laplace_row.cache_clear()
        monkeypatch.setattr(quad, "integrate_finite", unconverged)
        try:
            assert not delta_deriv(2, 1e3, Route.LAPLACE).converged
        finally:
            delta_module._laplace_row.cache_clear()
        monkeypatch.undo()
        assert delta_deriv(2, 1e3, Route.LAPLACE).converged
