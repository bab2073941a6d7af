"""Quadrature engines.

Adaptive Gauss-Kronrod panels (the 21-point Kronrod rule, with the
10-point Gauss rule on its nodes for the error estimate) for finite
intervals, each one call of a panel integrand that maps the list of its
nodes to the list of their values (pointwise(g) for a scalar g), to the
caller's rel_tol and abs_tol within _MAX_SPLITS bisections; one
sawtooth integrator, integrate_unit_split, for integral_0^inf
phi({t}) g(t) dt with phi a polynomial in the fractional part and g a
product of powers, which integrates [0, 6] in one call and then tries
its exact periodic-Bernoulli (Euler-Maclaurin) tail, with its proven
bound, at 6, 7, ..., one unit interval more after each failed try
(p1_integral is its phi = B_1 case); and the
periodization transform relating integrals of f({x/b})/(x+c)^lambda to
finite Hurwitz-zeta moments.  The sawtooth tail keeps its own Bernoulli
weights: HYP and the Proposition 2 right side, built on it, are
cross-checked against the Hurwitz-zeta kernel, so they must not share it.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator

# p1 stays bound for perfbench's tracer, which patches quad.p1; the
# sawtooth integrand takes {t} inline and no longer calls it
from ._backend.kernels import hurwitz_zeta, p1  # noqa: F401
from .report import Record

__all__ = [
    "QuadResult",
    "graded_breaks",
    "integrate_finite",
    "integrate_unit_split",
    "lemma2_transform",
    "p1_integral",
    "pointwise",
]

# Gauss-Kronrod G10/K21 on [-1, 1] (Kronrod 1965; the QUADPACK QK21
# constants, Piessens et al. 1983, rounded to double).  The 10 Gauss
# nodes are every second positive node below, mirrored; the Kronrod rule
# adds the centre and 10 more nodes and reuses all 10.  Rows: (node, K21
# weight, G10 weight), G10 weight 0 on the Kronrod-only nodes.  The
# centre has a K21 weight only.
_GK21_CENTER = 0.1494455540029169
_GK21 = (
    (0.9956571630258081, 0.011694638867371874, 0.0),
    (0.9739065285171717, 0.032558162307964725, 0.06667134430868814),
    (0.9301574913557082, 0.054755896574351995, 0.0),
    (0.8650633666889845, 0.07503967481091996, 0.1494513491505806),
    (0.7808177265864169, 0.0931254545836976, 0.0),
    (0.6794095682990244, 0.10938715880229764, 0.21908636251598204),
    (0.5627571346686047, 0.12349197626206584, 0.0),
    (0.4333953941292472, 0.13470921731147334, 0.26926671930999635),
    (0.2943928627014602, 0.14277593857706009, 0.0),
    (0.14887433898163122, 0.14773910490133849, 0.29552422471475287),
)
# The 21 nodes in the order _panel reads them: the centre, then -xi, +xi
# for each row.  mid + half * -xi is mid - half * xi exactly.
_GK21_OFFSETS = (0.0, *(o for xi, _, _ in _GK21 for o in (-xi, xi)))
# the K21 and G10 weights of the rows, in _GK21's order
_GK21_K = tuple(wk for _, wk, _ in _GK21)
_GK21_G = tuple(wg for _, _, wg in _GK21)
# integrand values per panel, the unit of n_evals
_PANEL_NODES = len(_GK21_OFFSETS)


# the panel splits integrate_finite may make before it gives up
# (converged=False), read on every pass
_MAX_SPLITS = 2000


class QuadResult(Record):
    """A quadrature value with an honest absolute-error estimate."""

    __slots__ = __match_args__ = ("value", "abs_err_est", "n_evals", "converged")

    def __init__(self, value, abs_err_est, n_evals, converged):
        self.value = value
        self.abs_err_est = abs_err_est
        self.n_evals = n_evals
        self.converged = converged

    def __add__(self, other):
        return QuadResult(
            self.value + other.value,
            self.abs_err_est + other.abs_err_est,
            self.n_evals + other.n_evals,
            self.converged and other.converged,
        )

    def scaled(self, c):
        return QuadResult(
            c * self.value, abs(c) * self.abs_err_est, self.n_evals, self.converged
        )


def _panel(f, a, b):
    """K21 value with the |K21 - G10| error estimate (21 evals, one call).

    Both sums run over the pairs f(mid - half xi) + f(mid + half xi),
    left to right from the centre's term and from 0.0 (every row, the
    G10 weight 0 of a Kronrod-only node included), written out rather
    than looped for speed.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    (
        v0, l1, h1, l2, h2, l3, h3, l4, h4, l5, h5,
        l6, h6, l7, h7, l8, h8, l9, h9, l10, h10,
    ) = f([mid + half * o for o in _GK21_OFFSETS])
    k1, k2, k3, k4, k5, k6, k7, k8, k9, k10 = _GK21_K
    g1, g2, g3, g4, g5, g6, g7, g8, g9, g10 = _GK21_G
    p1, p2, p3, p4, p5 = l1 + h1, l2 + h2, l3 + h3, l4 + h4, l5 + h5
    p6, p7, p8, p9, p10 = l6 + h6, l7 + h7, l8 + h8, l9 + h9, l10 + h10
    k21 = (
        _GK21_CENTER * v0 + k1 * p1 + k2 * p2 + k3 * p3 + k4 * p4 + k5 * p5
        + k6 * p6 + k7 * p7 + k8 * p8 + k9 * p9 + k10 * p10
    )
    g10 = (
        0.0 + g1 * p1 + g2 * p2 + g3 * p3 + g4 * p4 + g5 * p5
        + g6 * p6 + g7 * p7 + g8 * p8 + g9 * p9 + g10 * p10
    )
    return half * k21, abs(half * (k21 - g10))


def pointwise(g):
    """The panel integrand of a scalar integrand g: g at each node."""
    return lambda nodes: list(map(g, nodes))


def graded_breaks(pole, first, end):
    """Mesh points first, 2 first - pole, 4 first - 3 pole, ... short of end.

    Each point is twice as far from `pole` as the one before, so a panel
    between two of them is never wider than its distance to the pole and
    its nodes see the peak or boundary layer there.  The points run away
    from the pole toward `end` (up if pole < end, down otherwise) and are
    returned in ascending order; none is returned if first is already at
    or past end.  Only mesh points come from here, never values.
    """
    points = []
    t = first
    rising = pole < end
    while (t < end) if rising else (t > end):
        points.append(t)
        t = 2.0 * t - pole
    return points if rising else points[::-1]


def integrate_finite(f, a, b, breakpoints=(), *, rel_tol=1e-11, abs_tol=1e-13):
    """Adaptive integral over [a, b] of the integrand whose panel form is f.

    f takes the list of a panel's 21 nodes and returns their 21 values,
    in order; it is called once per panel, so n_evals counts nodes, not
    calls.  A scalar integrand g goes in as pointwise(g).

    Globally adaptive bisection: the panel with the worst error estimate
    is split until the error, the summed panel estimates plus a rounding
    term 2e-16 * sum |panel|, meets max(abs_tol, rel_tol*|I|, 4e-16*|I|)
    or _MAX_SPLITS splits have been made (flagged via converged=False,
    never silently).  Each panel is a Gauss-Kronrod G10/K21 pair: the
    value is K21 and the estimate the raw |K21 - G10|, which tracks the
    error of the cruder G10 rule (exact through degree 19, against K21's
    31), so it errs on the safe side for smooth integrands.  QUADPACK's
    (200 err/resasc)^1.5 rescaling is not applied: it is a heuristic, not
    a bound.  Non-finite ends, rel_tol outside (0, inf) and abs_tol
    outside [0, inf) raise ValueError.

    `breakpoints`, increasing and strictly inside (a, b), seed the heap
    with one panel per piece, as QUADPACK's QAGP does; the bisection and
    the stop test then run over all pieces together.  Callers that know
    where f has a peak or a boundary layer pass graded_breaks points.

    A panel no wider than 1e-15 of its own position, max(|pa|, |pb|), or
    whose midpoint rounds onto an end, is kept unsplit: its nodes are a
    few ulps apart.  The floor is relative, so a layer at t ~ 1e-16 near
    a = 0 is still resolved.

    The stop test reads exact math.fsum sums of the panel values,
    estimates and magnitudes, taken afresh on every pass.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"integrate_finite needs finite ends, got a = {a}, b = {b}")
    if not (0.0 < rel_tol < math.inf and 0.0 <= abs_tol < math.inf):
        raise ValueError("need 0 < rel_tol < inf and 0 <= abs_tol < inf")
    if a == b:
        return QuadResult(0.0, 0.0, 0, True)
    edges = [a, *breakpoints, b]
    if not all(lo < hi for lo, hi in zip(edges, edges[1:])):
        raise ValueError("integrate_finite needs a < b, breakpoints increasing inside")
    heap = []
    for lo, hi in zip(edges, edges[1:]):
        value, err = _panel(f, lo, hi)
        heap.append((-err, lo, hi, value))
    heapq.heapify(heap)
    n_evals = _PANEL_NODES * len(heap)
    frozen = []  # panels too narrow for their position to split: kept as they are
    n_splits = 0
    converged = True
    while True:
        panels = heap + frozen
        values = [item[3] for item in panels]
        total = math.fsum(values)
        err_sum = math.fsum([-item[0] for item in panels])
        abs_sum = math.fsum(map(abs, values))
        total_err = err_sum + 2e-16 * abs_sum
        if total_err <= max(abs_tol, rel_tol * abs(total), 4e-16 * abs(total)):
            break
        if n_splits >= _MAX_SPLITS or not heap:
            converged = False
            break
        neg_err, pa, pb, pv = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        if pb - pa <= 1e-15 * max(abs(pa), abs(pb)) or mid in (pa, pb):
            frozen.append((neg_err, pa, pb, pv))
            continue
        v1, e1 = _panel(f, pa, mid)
        v2, e2 = _panel(f, mid, pb)
        n_evals += 2 * _PANEL_NODES
        heapq.heappush(heap, (-e1, pa, mid, v1))
        heapq.heappush(heap, (-e2, mid, pb, v2))
        n_splits += 1
    return QuadResult(total, total_err, n_evals, converged)


# B_2k/(2k)! for k = 1..15, the weights of the periodic-Bernoulli tail
# (DLMF 24.17).  Written out here rather than taken from the Hurwitz-zeta
# kernel, so the sawtooth route shares no code with what it cross-checks.
_EM_WEIGHTS = (
    1 / 12,
    -1 / 720,
    1 / 30240,
    -1 / 1209600,
    1 / 47900160,
    -691 / 1307674368000,
    1 / 74724249600,
    -3617 / 10670622842880000,
    43867 / 5109094217170944000,
    -174611 / 802857662698291200000,
    77683 / 14101100039391805440000,
    -236364091 / 1693824136731743669452800000,
    657931 / 186134520519971831808000000,
    -3392780147 / 37893265687455865519472640000000,
    1723168255201 / 759790291646040068357842010112000000,
)


def _product_coefficient(series, n):
    """Coefficient n of the product of the power series in `series`: for
    two, sum_i a_i b_(n-i) left to right, map stopping at b's n + 1."""
    acc = series[0]
    if len(series) == 1:
        return acc[n]
    for r in series[1:-1]:
        acc = [sum(map(operator.mul, acc[: i + 1], r[i::-1])) for i in range(n + 1)]
    return sum(map(operator.mul, acc, series[-1][n::-1]))


def _sawtooth_tail(parts, factors, x, tol):
    """(value, bound) of sum_k a_k integral_x^inf B_k({t}) g(t) dt, or None.

    parts comes from _sawtooth_plan.  Integrating by parts from the
    integer x (DLMF 24.17, 2.10(i)) gives the asymptotic series

        integral_x^inf B_k({t}) g(t) dt ~ sum_{n>k} (-1)^(n-k) B_n/n! k! g^(n-k-1)(x),

    where only even n >= 2 contribute.  Stopped before an even N > k, the
    remainder is (-1)^J k!/N! integral_x^inf (B_N({t}) - B_N) g^(J)(t) dt
    with J = N - k.  For completely monotone g its integrand has a fixed
    sign, that of the term at N, and the remainder after N has the other
    sign, so the remainder is at most the term at N.  All parts stop at
    the first even N > max k whose summed term sizes are within tol, and
    that sum is the bound.  Once the ratio r of the last two sizes gives
    size r^(terms left) > tol, None is returned: x is still too close to
    the poles.  (For B_1 alone the sizes are log-convex in N, so no later
    N could meet tol; otherwise this only decides to march on.)  A
    constant phi has no part, and its tail here is (0.0, 0.0).

    g^(d)(x)/d! comes from the Leibniz rule on the factors' own Taylor
    coefficients, (-1)^d C(p+d-1, d) (x+c)^(-p-d); every product in
    those sums has the sign (-1)^d.  Each factor's series holds its
    leading coefficient, all that a tail stopping at its first term
    needs, until the stop test first reaches past it; then it is built
    in one pass up to order 29 - min k, the highest the 15 weights reach.
    Most tails that go on reach order 14 or more, where each further
    chunk would cost more than the terms it saves.
    """
    if not parts:
        return 0.0, 0.0
    order = 2 * len(_EM_WEIGHTS) - parts[0][0] - 1
    series = [[(1.0 / (x + c)) ** p] for c, p in factors]
    taylor = [None] * (order + 1)
    top = parts[-1][0]
    value = 0.0
    prev = math.inf
    for i in range(len(_EM_WEIGHTS)):
        n = 2 * i + 2
        term = 0.0
        size = 0.0
        for k, weights in parts:
            if k >= n:
                break
            d = n - k - 1
            if taylor[d] is None:
                if len(series[0]) <= d:  # past the leading coefficients
                    for (c, p), r in zip(factors, series):
                        u = 1.0 / (x + c)
                        for j in range(order):
                            r.append(-r[j] * (p + j) * u / (j + 1))
                taylor[d] = _product_coefficient(series, d)
            t = weights[i] * taylor[d]
            term += t
            size += abs(t)
        if n > top:
            if size <= tol:
                return value, size
            ratio = size / prev
            if not ratio < 1.0 or size * ratio ** (len(_EM_WEIGHTS) - 1 - i) > tol:
                return None
            prev = size
        value += term
    return None


@functools.lru_cache(maxsize=64)
def _sawtooth_plan(coeffs):
    """(mean, mean_mag, parts) for phi(y) = sum_i coeffs[i] y^i.

    phi = sum_k a_k B_k(y) with a_k = (phi^(k-1)(1) - phi^(k-1)(0))/k!
    (DLMF 24.2.3), C(i, k-1)/k for y^i; mean = a_0 and mean_mag =
    sum |coeffs[i]|/(i+1) bounds its rounding.  parts pairs each k >= 1
    with a_k != 0 and a_k (-1)^k B_n/n! k! (n-k-1)! for n = 2, 4, ..., 30
    (None while n <= k).
    """
    n = len(coeffs)
    mean = math.fsum(coeffs[i] / (i + 1) for i in range(n))
    mean_mag = math.fsum(abs(coeffs[i]) / (i + 1) for i in range(n))
    parts = []
    for k in range(1, n):
        a = math.fsum(coeffs[i] * math.comb(i, k - 1) for i in range(k, n)) / k
        if a != 0.0:
            sign = -a if k % 2 else a
            weights = tuple(
                sign * (w * math.factorial(k) * math.factorial(2 * i + 1 - k))
                if 2 * i + 2 > k
                else None
                for i, w in enumerate(_EM_WEIGHTS)
            )
            parts.append((k, weights))
    return mean, mean_mag, tuple(parts)


# The t at which integrate_unit_split gives up on a tail
# (converged=False).  HYP and the verify suites meet theirs within 8;
# y^25 .. y^29 over (t + 1)^3 march here, 21,000 evals before splits.
_TAIL_INTERVALS_MAX = 1000

# The t of the first tail try; [0, _FIRST_TRY] is integrated in one
# call.  Over 3,382 HYP calls (480 cross-check draws at seed 4242, the
# 502-point oracle grid and the 2,400 route_digest draws) the tail first
# met its tolerance at t = 6 or sooner on every call, and at exactly 6 on
# 86-91% of them; the Proposition 2 suite meets it at 2 to 7, and
# specfun at 5 to 6.
_FIRST_TRY = 6


def _sawtooth_integrand(coeffs, factors):
    """(f, g): the panel integrand phi({t}) g(t), and g at a list of points.

    g(t) = prod (t + c)^(-p) is a loop over the factors at each node,
    multiplied left to right from 1.0, and phi is Horner in y = {t} =
    t % 1.0, which is t - floor(t) exactly.  phi of degree 1 over at most
    two factors, every HYP call, is one list comprehension for the whole
    integrand, a missing factor padded as (0, 0), whose power is exactly
    1.0; every other shape runs the Horner loop at each node over g.  Both
    forms give the same values, bit for bit.
    """
    powers = tuple((c, -p) for c, p in factors)

    def g(ts):
        out = []
        for t in ts:
            w = 1.0
            for c, q in powers:
                w *= (t + c) ** q
            out.append(w)
        return out

    if len(coeffs) == 2 and len(powers) <= 2:
        a0, a1 = coeffs
        (c1, q1), (c2, q2) = (*powers, (0.0, 0.0))[:2]

        def f(nodes):
            return [
                (a1 * (t % 1.0) + a0) * ((t + c1) ** q1 * (t + c2) ** q2)
                for t in nodes
            ]

        return f, g

    lead, rest = coeffs[-1], coeffs[-2::-1]

    def f(nodes):
        out = []
        for t, w in zip(nodes, g(nodes)):
            y = t % 1.0
            v = lead
            for a in rest:
                v = v * y + a
            out.append(v * w)
        return out

    return f, g


def integrate_unit_split(coeffs, factors):
    """integral_0^inf phi({t}) g(t) dt with g(t) = prod (t + c)^(-p).

    phi(y) = sum_i coeffs[i] y^i; factors are (c, p) pairs with p > 0 and
    c > 0, so g is completely monotone on [0, inf).  An integral from an
    integer n is the one from 0 with each c raised by n.  phi is evaluated
    by Horner in y = {t}, which is exact near an integer, so a phi that
    vanishes at y = 0 keeps its relative precision beside a pole at 0.
    The integrand has two forms, with the same values
    (_sawtooth_integrand): one list comprehension per panel for degree 1
    over at most two factors, and a loop at each node over the factors and
    phi's Horner terms for every other shape.

    [0, _FIRST_TRY] is integrated in one integrate_finite call, seeded
    with a piece per unit interval; the first unit is also split at its
    half-integer and wherever the distance to a pole -c doubles, so no
    panel straddles the jump of {t} at an integer or misses a pole layer.
    The bisection and the stop test run over all pieces together, with an
    absolute allowance of 2e-15 times an upper Riemann sum of |phi| g over
    the pieces: g at each piece's left end times its width times
    sum |coeffs[i]| y^i at its right end in y.  g is evaluated once at
    each mesh point, as the pieces share their ends.

    The tail is then tried at _FIRST_TRY, and one more unit interval is
    integrated after each failed try.  The tail is exact in phi's
    periodic-Bernoulli components phi = a_0 + sum_k a_k B_k({t}).  The
    mean integrates in closed form, a_0 (X+c)^(1-p)/(p-1), so a nonzero
    mean needs a single factor with p > 1; a constant phi has no other
    part and takes its tail at 0, with no call.  Each B_k gets its
    integration-by-parts series, up to 15 Bernoulli weights (B_30), whose
    remainder is at most its first omitted term (_sawtooth_tail).  The
    march stops at the first X where those terms, weighted by |a_k|, sum
    to within 1e-16 |value|; that sum and the mean's rounding are charged
    as the tail's error.  The tolerance is the rounding floor of the sum,
    because callers such as HYP cancel this value against other terms.
    No tolerance is taken: converged is False only when an
    integrate_finite call did not converge or the march reached
    _TAIL_INTERVALS_MAX without a tail.

    The estimate also charges the integrand's own rounding, which the
    panels' 2e-16 sum |panel| misses for large p and where phi changes sign
    in a panel: (t + c)^-p makes the 2^-53 rounding of t + c p-fold, the
    power and each product add about one more, and Horner about 2 per
    degree, all of sum |coeffs[i]| y^i g, which the trapezoid rule
    integrates over each piece.
    """
    coeffs = tuple(map(float, coeffs))
    if not coeffs or not all(map(math.isfinite, coeffs)):
        raise ValueError("integrate_unit_split needs finite polynomial coefficients")
    if len(coeffs) > 2 * len(_EM_WEIGHTS):
        raise ValueError("integrate_unit_split: degree > 29 has no weight past B_30")
    normed = []
    kappa = 0.0  # the integrand's rounding in ulps: p + 2 a factor, ...
    for c, p in factors:
        c, p = float(c), float(p)
        if not (0.0 < p < math.inf and 0.0 < c < math.inf):
            raise ValueError("integrate_unit_split needs p > 0 and c > 0")
        normed.append((c, p))
        kappa += p + 2.0
    if not normed:
        raise ValueError("integrate_unit_split needs p > 0 and c > 0")
    factors = tuple(normed)
    kappa = kappa + 2.0 * (len(coeffs) - 1) + 1.0  # ... 2 a degree, 1 more
    mean, mean_mag, parts = _sawtooth_plan(coeffs)
    if mean != 0.0 and (len(factors) != 1 or factors[0][1] <= 1.0):
        raise ValueError("a nonzero mean of phi needs one factor with p > 1")
    f, g = _sawtooth_integrand(coeffs, factors)
    mags = [abs(a) for a in reversed(coeffs)]
    floor = math.floor

    def sizes(edges):
        """(bound, magnitude) summed over the pieces between the edges,
        each inside one unit: g(a) (b - a) sum |coeffs[i]| y_b^i on [a, b],
        which bounds integral |phi| g there, and the trapezoid rule for
        sum |coeffs[i]| y^i g."""
        bounds = []
        trapezoids = []
        gs = g(edges)
        for a, b, ga, gb in zip(edges, edges[1:], gs, gs[1:]):
            ya = min(a - floor(a), 1.0)
            yb = min(b - floor(a), 1.0)
            wa = wb = 0.0
            for m in mags:
                wa = wa * ya + m
                wb = wb * yb + m
            bounds.append(ga * wb * (b - a))
            trapezoids.append(0.5 * (ga * wa + gb * wb) * (b - a))
        return math.fsum(bounds), math.fsum(trapezoids)

    x = 0.0
    end = float(min(_FIRST_TRY, _TAIL_INTERVALS_MAX)) if parts else x
    poles = {t for c, _ in factors for t in graded_breaks(-c, c, 0.5)}
    edges = [x, *sorted(poles), 0.5, *map(float, range(1, int(end) + 1))]
    bound, trapezoid = sizes(edges)  # the first call's
    # every call's allowance; later calls add far less than the first
    allowance = max(2e-15 * bound, 1e-299)
    magnitude = 0.0
    value = 0.0
    err = 0.0
    n_evals = 0
    converged = True
    (c0, p0), *_ = factors  # the only factor when mean != 0
    while True:
        if end > x:
            breaks = edges[1:-1] if x == 0.0 else []
            r = integrate_finite(f, x, end, breaks, rel_tol=1e-12, abs_tol=allowance)
            value += r.value
            err += r.abs_err_est
            n_evals += r.n_evals
            converged = converged and r.converged
            magnitude += trapezoid
            x = end
        # mean sums len(coeffs) terms of size up to mean_mag; x + c0 raised
        # to 1 - p0, the division and the product add p0 + 3 ulps
        big_g = (x + c0) ** (1.0 - p0) / (p0 - 1.0) if mean else 0.0
        mean_tail = mean * big_g
        mean_round = (len(coeffs) + p0 + 3) * 2.0**-53 * mean_mag * big_g
        tail = _sawtooth_tail(
            parts, factors, x, max(1e-16 * abs(value + mean_tail), 5e-300)
        )
        if tail is not None:
            value += tail[0] + mean_tail
            err += tail[1] + mean_round
            break
        if x >= _TAIL_INTERVALS_MAX:
            converged = False
            break
        end = x + 1.0
        _, trapezoid = sizes([x, end])
    err += kappa * 2.0**-53 * magnitude
    return QuadResult(value, err, n_evals, converged)


def p1_integral(factors):
    """integral_0^inf p1(t) g(t) dt: integrate_unit_split with
    phi(y) = y - 1/2 = B_1(y), the sawtooth of HYP's sawtooth integral."""
    return integrate_unit_split((-0.5, 1.0), factors)


def lemma2_transform(coeffs, b, c, lam):
    """Both sides of the periodization identity

        integral_0^inf f({x/b}) (x+c)^(-lambda) dx
            = b^(1-lambda) * integral_0^1 f(y) zeta(lambda, y + c/b) dy

    for the polynomial f(y) = sum_i coeffs[i] y^i and b > 0, lambda > 1,
    c > 0.  The left side substitutes x = b v, so its breakpoints land on
    integers, and goes to integrate_unit_split; only the right side uses
    the Hurwitz-zeta kernel.  Returns (lhs, rhs) as QuadResults so the
    caller can assert their agreement.
    """
    if b <= 0.0:
        raise ValueError("lemma2_transform requires b > 0")
    if lam <= 1.0:
        raise ValueError("lemma2_transform requires lambda > 1")
    if c <= 0.0:
        raise ValueError("lemma2_transform requires c > 0")
    scale = b ** (1.0 - lam)
    lhs = integrate_unit_split(coeffs, ((c / b, lam),))
    f = lambda y: sum(a * y**i for i, a in enumerate(coeffs))  # noqa: E731
    rhs = integrate_finite(
        pointwise(lambda y: f(y) * hurwitz_zeta(lam, y + c / b)), 0.0, 1.0
    )
    return lhs.scaled(scale), rhs.scaled(scale)
