"""Panel integrands: each route's panel kernel against its scalar kernel
and against the scalar bodies the kernels had before they took a list of
nodes, bit for bit on every branch, and the quadrature routes replayed
against values recorded with one integrand call per node."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlgamma import quad
from nlgamma._backend import kernels
from nlgamma.delta import Route, delta_deriv
from nlgamma.quad import QuadConfig, integrate_finite, pointwise

# B_2i/(2i)! for 2i = 2..30, as the kernels build them
_B2I_OVER_FACT = kernels._B2I_OVER_FACT


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
    return (
        math.factorial(m) - kernels.upper_incomplete_gamma_int(m, y)
    ) / y ** (m + 1)


def ref_hz_route(m, x, u):
    if u <= 0.0:
        return 0.0
    return u**m * ref_hurwitz_zeta(m + 1.0, x * u + 1.0)


def ref_hz_route_reflected(m, x, s):
    return (1.0 - s) ** m * ref_hurwitz_zeta(m + 1.0, (1.0 + x) - x * s)


def ref_laplace(m, x, t):
    if t <= 0.0:
        return 0.5 if m == 1 else 0.0
    em = ref_trunc_exp_factor(m, x * t)
    return t**m / math.expm1(t) * em


MS = (1, 2, 5, 8, 12)
# u <= 0 (both zeros), the interior, and the end at 1
U_NODES = [-0.5, -0.0, 0.0, 1e-300, 1e-9, 0.004, 0.1, 0.37, 0.5, 0.9, 1.0 - 1e-16, 1.0]
# s = 1 - u, down to the pole side at s = 0
S_NODES = [0.0, 1e-300, 1e-15, 1e-6, 0.01, 0.25, 0.5, 0.99, 1.0]


def _bits(values):
    return [v.hex() for v in values]


def _outcome(f, *args):
    try:
        return f(*args).hex()
    except OverflowError:
        return "OverflowError"


class TestPanelKernels:
    @pytest.mark.parametrize("m", MS)
    @pytest.mark.parametrize("x", [0.0, 1e-12, 0.02, 0.9, 3.0, 250.0, 1e6])
    def test_hz_route_panel(self, m, x):
        panel = kernels.hz_route_panel(m, x, U_NODES)
        scalar = [kernels.hz_route_integrand(m, x, u) for u in U_NODES]
        assert _bits(panel) == _bits(scalar)
        assert _bits(panel) == _bits(ref_hz_route(m, x, u) for u in U_NODES)

    @pytest.mark.parametrize("m", MS)
    @pytest.mark.parametrize(
        "x", [-1.0 + 1e-12, -1.0 + 1e-6, -0.999, -0.6, -0.15, -1e-9]
    )
    def test_hz_route_reflected_panel(self, m, x):
        panel = kernels.hz_route_reflected_panel(m, x, S_NODES)
        scalar = [kernels.hz_route_integrand_reflected(m, x, s) for s in S_NODES]
        assert _bits(panel) == _bits(scalar)
        assert _bits(panel) == _bits(ref_hz_route_reflected(m, x, s) for s in S_NODES)

    @pytest.mark.parametrize("m", MS)
    def test_laplace_panel_every_em_branch(self, m):
        edge = m + 1 + 2.0 * math.sqrt(m + 1)
        # x t = 0 (x = 0), the series up to its edge, the closed form past
        # it, and past 745.2 where e^(-y) underflows; t <= 0 as well
        cases = [
            (0.0, [0.0, 0.5, 7.0, 80.0]),
            (1.0, [-1.0, 0.0, 1e-8, 0.3, edge / 2, edge, math.nextafter(edge, 0.0)]),
            (1.0, [math.nextafter(edge, math.inf), edge + 1.0, 100.0]),
            (10.0, [74.52, 74.53, 90.0, 96.9]),
        ]
        for x, ts in cases:
            panel = kernels.laplace_panel(m, x, ts)
            assert _bits(panel) == _bits(kernels.laplace_integrand(m, x, t) for t in ts)
            assert _bits(panel) == _bits(ref_laplace(m, x, t) for t in ts)

    @pytest.mark.parametrize("m", range(0, 30))
    def test_trunc_exp_factor_series_edge(self, m):
        # the series at its longest, on both sides of the edge
        edge = m + 1 + 2.0 * math.sqrt(m + 1)
        for y in (edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf)):
            assert kernels.trunc_exp_factor(m, y) == ref_trunc_exp_factor(m, y)

    @given(
        m=st.integers(min_value=0, max_value=40),
        y=st.floats(min_value=0.0, max_value=800.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_trunc_exp_factor_matches_reference(self, m, y):
        assert kernels.trunc_exp_factor(m, y) == ref_trunc_exp_factor(m, y)

    @given(
        s=st.floats(min_value=1.0, max_value=60.0, exclude_min=True),
        a=st.floats(min_value=1e-6, max_value=1e6),
    )
    @settings(max_examples=300, deadline=None)
    def test_hurwitz_zeta_any_s(self, s, a):
        # tiny a with large s overflows: then both must raise
        assert _outcome(kernels.hurwitz_zeta, s, a) == _outcome(ref_hurwitz_zeta, s, a)

    @pytest.mark.parametrize("s", [2, 3, 13])
    def test_hurwitz_zeta_integer_s(self, s):
        # an int s multiplies its Pochhammer products exactly, a float s
        # rounds them: the cache keeps the two apart
        for a in (0.5, 1.0, 7.25, 40.0):
            assert kernels.hurwitz_zeta(s, a) == ref_hurwitz_zeta(s, a)
            assert kernels.hurwitz_zeta(float(s), a) == ref_hurwitz_zeta(float(s), a)

    def test_domain_errors_unchanged(self):
        with pytest.raises(ValueError, match="need s > 1"):
            kernels.hurwitz_zeta(1.0, 1.0)
        with pytest.raises(ValueError, match="need a > 0"):
            kernels.hz_route_panel(3, -2.0, [0.75])
        with pytest.raises(ValueError, match="requires y >= 0"):
            kernels.laplace_panel(3, -1.0, [0.5])

    def test_caches_are_bounded(self):
        for plan in (kernels._zeta_coefs, kernels._trunc_exp_plan):
            assert plan.cache_info().maxsize == 64
        for i in range(200):
            kernels.hurwitz_zeta(1.5 + i / 7.0, 2.0)
            kernels.trunc_exp_factor(i, 1.0)
        assert kernels._zeta_coefs.cache_info().currsize <= 64
        assert kernels._trunc_exp_plan.cache_info().currsize <= 64


class TestPanelContract:
    def test_one_call_per_panel_in_node_order(self):
        calls = []

        def f(nodes):
            calls.append(list(nodes))
            return [math.exp(t) for t in nodes]

        r = integrate_finite(f, 0.0, 2.0, QuadConfig(max_subdivisions=3))
        assert len(calls) * 15 == r.n_evals
        # the centre, then 1 - xi, 1 + xi for each node xi of the rule
        xis = [xi for xi, _, _ in quad._GK15]
        assert calls[0] == [1.0, *(t for xi in xis for t in (1.0 - xi, 1.0 + xi))]

    def test_pointwise_matches_a_panel_form(self):
        m, x = 6, 0.5
        cfg = QuadConfig(rel_tol=1e-12, abs_tol=5e-300)
        scalar = integrate_finite(
            pointwise(lambda t: kernels.laplace_integrand(m, x, t)), 0.0, 60.0, cfg
        )
        panel = integrate_finite(
            lambda ts: kernels.laplace_panel(m, x, ts), 0.0, 60.0, cfg
        )
        assert scalar == panel


# (route, m, x): (value, abs_err_est, n_evals, converged), recorded when
# every quadrature node was a separate integrand call.  The HYP rows were
# recorded again when the sawtooth march became one integrate_finite call
# over [0, X0] with tail weights up to B_30; each is within its estimate
# of mpmath's value, with n_evals no higher than before.
ROUTE_REPLAY = {
    ("HURWITZ", 1, -0.999999999999):
        (1000022122183.4491, 6.778299036306806, 780, True),
    ("HURWITZ", 1, -0.999):
        (994.6561350885357, 6.143335595237499e-09, 330, True),
    ("HURWITZ", 1, -0.6):
        (2.055980302914683, 5.887410159412469e-13, 60, True),
    ("HURWITZ", 1, -0.15):
        (0.9642432589046455, 2.1213351695902202e-15, 15, True),
    ("HURWITZ", 1, 0.02):
        (0.8067578016162268, 1.774867163555699e-15, 15, True),
    ("HURWITZ", 1, 0.4):
        (0.5941193521145303, 3.328148568385648e-14, 15, True),
    ("HURWITZ", 1, 3.0):
        (0.21962150400748293, 1.343576926277662e-14, 90, True),
    ("HURWITZ", 1, 250.0):
        (0.003949114629470539, 6.195562849383097e-15, 120, True),
    ("HURWITZ", 1, 100000.0):
        (9.999382459706765e-06, 6.895630147530829e-20, 255, True),
    ("HURWITZ", 4, -0.999999999999):
        (-6.000530950644445e+48, 2.201344750479631e+37, 750, True),
    ("HURWITZ", 4, -0.999):
        (-5998001994119.193, 21.954567108911007, 300, True),
    ("HURWITZ", 4, -0.6):
        (-211.19044616683175, 1.0101878120055797e-10, 90, True),
    ("HURWITZ", 4, -0.15):
        (-9.676224902282764, 4.032745527360637e-12, 15, True),
    ("HURWITZ", 4, 0.02):
        (-4.590244746574044, 1.0098538442462897e-14, 15, True),
    ("HURWITZ", 4, 0.4):
        (-1.261533144322665, 6.92430376230372e-14, 45, True),
    ("HURWITZ", 4, 3.0):
        (-0.018547255061408773, 2.510911277522723e-15, 120, True),
    ("HURWITZ", 4, 250.0):
        (-1.4711274950021856e-09, 2.5685704572729194e-21, 150, True),
    ("HURWITZ", 4, 100000.0):
        (-5.998647902696235e-20, 6.781200181326285e-33, 255, True),
    ("HURWITZ", 12, -0.999999999999):
        (-3.992739786314677e+151, 3.9435045210184515e+140, 750, True),
    ("HURWITZ", 12, -0.999):
        (-3.991317192551778e+43, 3.9340698917771e+32, 300, True),
    ("HURWITZ", 12, -0.6):
        (-2298854138314.822, 5.2453320485079225, 150, True),
    ("HURWITZ", 12, -0.15):
        (-261883926.92589423, 0.002107226289928387, 75, True),
    ("HURWITZ", 12, 0.02):
        (-29015654.457402255, 2.9789673354287786e-06, 45, True),
    ("HURWITZ", 12, 0.4):
        (-632772.0045224159, 4.444047533495613e-06, 45, True),
    ("HURWITZ", 12, 3.0):
        (-1.9245792481359514, 6.377502460240711e-13, 90, True),
    ("HURWITZ", 12, 250.0):
        (-6.011463371148903e-22, 9.916058851651127e-34, 120, True),
    ("HURWITZ", 12, 100000.0):
        (-3.9892256883639095e-53, 6.296712922843603e-67, 255, True),
    ("LAPLACE", 1, 0.0):
        (0.8224670334241132, 9.503724659784544e-14, 165, True),
    ("LAPLACE", 1, 0.02):
        (0.8067578016162269, 1.1926343292115955e-13, 165, True),
    ("LAPLACE", 1, 0.4):
        (0.5941193521145303, 2.4877960310993586e-13, 165, True),
    ("LAPLACE", 1, 3.0):
        (0.21962150400748293, 6.083058687564628e-14, 210, True),
    ("LAPLACE", 1, 250.0):
        (0.003949114629470538, 2.545387673401504e-15, 405, True),
    ("LAPLACE", 1, 100000.0):
        (9.999382459706765e-06, 8.519228030231705e-18, 525, True),
    ("LAPLACE", 4, 0.0):
        (-4.977253224688176, 2.318857171110892e-12, 225, True),
    ("LAPLACE", 4, 0.02):
        (-4.590244746574045, 2.0559052083209243e-12, 225, True),
    ("LAPLACE", 4, 0.4):
        (-1.261533144322665, 4.592448678210414e-13, 195, True),
    ("LAPLACE", 4, 3.0):
        (-0.018547255061408776, 1.625897271897529e-14, 255, True),
    ("LAPLACE", 4, 250.0):
        (-1.4711274950021854e-09, 5.378168117544965e-22, 495, True),
    ("LAPLACE", 4, 100000.0):
        (-5.998647902696234e-20, 5.370196605903528e-32, 630, True),
    ("LAPLACE", 12, 0.0):
        (-36850798.45306396, 3.150544088557368e-05, 270, True),
    ("LAPLACE", 12, 0.02):
        (-29015654.45740227, 2.1939131127386284e-05, 270, True),
    ("LAPLACE", 12, 0.4):
        (-632772.0045224157, 4.879008630773143e-07, 300, True),
    ("LAPLACE", 12, 3.0):
        (-1.9245792481359518, 5.907738396769516e-13, 330, True),
    ("LAPLACE", 12, 250.0):
        (-6.011463371148903e-22, 3.6904232157467586e-34, 540, True),
    ("LAPLACE", 12, 100000.0):
        (-3.989225688363908e-53, 2.8521866300534585e-65, 735, True),
    ("HYP", 1, -0.9):
        (8.80082320325403, 1.1335535622180275e-12, 257, True),
    ("HYP", 1, -0.15):
        (0.9642432589046455, 1.7905859593924187e-14, 167, True),
    ("HYP", 1, 0.02):
        (0.8067578016162269, 1.1043096428863123e-14, 167, True),
    ("HYP", 1, 0.4):
        (0.5941193521145304, 6.590884579469083e-15, 167, True),
    ("HYP", 1, 3.0):
        (0.21962150400748295, 5.403345451732359e-15, 107, True),
    ("HYP", 1, 250.0):
        (0.003949114629470538, 4.1514608548184233e-17, 107, True),
    ("HYP", 4, -0.9):
        (-58165.89028336013, 7.364511862909069e-09, 302, True),
    ("HYP", 4, -0.15):
        (-9.676224902282764, 2.2077070931215494e-12, 197, True),
    ("HYP", 4, 0.02):
        (-4.590244746574044, 9.034482470855456e-13, 167, True),
    ("HYP", 4, 0.4):
        (-1.2615331443226654, 5.872992518294478e-14, 167, True),
    ("HYP", 4, 3.0):
        (-0.018547255061408773, 1.2439897424769542e-15, 137, True),
    ("HYP", 4, 250.0):
        (-1.4711274950021858e-09, 1.5982585232852993e-23, 107, True),
    ("HYP", 12, -0.9):
        (-3.956094698821565e+19, 3376002.9238071013, 257, True),
    ("HYP", 12, -0.15):
        (-261883926.92589423, 1.9740358026795264e-05, 257, True),
    ("HYP", 12, 0.02):
        (-29015654.45740226, 5.18622787421883e-06, 227, True),
    ("HYP", 12, 0.4):
        (-632772.0045224165, 2.590225674783296e-08, 227, True),
    ("HYP", 12, 3.0):
        (-1.9245792481359516, 5.383041156112546e-14, 167, True),
    ("HYP", 12, 250.0):
        (-6.011463371148904e-22, 7.147184548393145e-36, 107, True),
}


@pytest.mark.parametrize("route,m,x", sorted(ROUTE_REPLAY))
def test_route_replay(route, m, x):
    r = delta_deriv(m, x, Route[route])
    assert (r.value, r.abs_err_est, r.n_evals, r.converged) == ROUTE_REPLAY[route, m, x]
