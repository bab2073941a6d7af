"""Quadrature engines.

Adaptive Gauss-Kronrod panels (the 15-point Kronrod rule, with the
7-point Gauss rule on its nodes for the error estimate) for finite
intervals, a unit-interval splitter for semi-infinite integrands whose
only breakpoints sit on the integer lattice, a sawtooth integrator for
products of powers that stops after a few unit intervals with a bounded
periodic-Bernoulli (Euler-Maclaurin) tail, and the periodization transform relating integrals of
f({x/b})/(x+c)^lambda to finite Hurwitz-zeta moments.  The sawtooth
tail keeps its own Bernoulli weights: the HYP route built on it is
cross-checked against the Hurwitz-zeta kernel, so it must not share it.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass

from ._backend.kernels import hurwitz_zeta, p1

__all__ = [
    "PowerTail",
    "QuadConfig",
    "QuadResult",
    "graded_breaks",
    "integrate_finite",
    "integrate_unit_split",
    "lemma2_transform",
    "p1_integral",
]

# Gauss-Kronrod G7/K15 on [-1, 1] (Kronrod 1965; the QUADPACK QK15
# constants, Piessens et al. 1983, rounded to double).  The 7 Gauss
# nodes are the centre and every second positive node below; the Kronrod
# rule adds 8 nodes and reuses all 7.  Rows: (node, K15 weight, G7
# weight), G7 weight 0 on the Kronrod-only nodes.
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


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and budgets for the quadrature engines."""

    rel_tol: float = 1e-11
    abs_tol: float = 1e-13
    max_subdivisions: int = 2000
    tail_intervals_max: int = 10**6
    tail_stop: float = 1e-14

    def __post_init__(self):
        if not (0.0 < self.rel_tol < math.inf and 0.0 <= self.abs_tol < math.inf):
            raise ValueError("need 0 < rel_tol < inf and 0 <= abs_tol < inf")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


DEFAULT_CONFIG = QuadConfig()


@dataclass
class QuadResult:
    """A quadrature value with an honest absolute-error estimate."""

    value: float
    abs_err_est: float
    n_evals: int
    converged: bool

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
    """K15 value with the |K15 - G7| error estimate (15 evals)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fc = f(mid)
    k15 = _GK15_CENTER[0] * fc
    g7 = _GK15_CENTER[1] * fc
    for xi, wk, wg in _GK15:
        pair = f(mid - half * xi) + f(mid + half * xi)
        k15 += wk * pair
        g7 += wg * pair
    return half * k15, abs(half * (k15 - g7))


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


# Running sums in integrate_finite: each addition rounds by at most
# 2^-53 of its result, charged here at twice that; a running test that
# misses the allowance by less than _RUNNING_SLACK goes to the exact sums.
_ADD_ROUNDING = 2.0**-52
_RUNNING_SLACK = 1e-14


def integrate_finite(f, a, b, cfg=DEFAULT_CONFIG, breakpoints=()):
    """Adaptive integral of f over [a, b].

    Globally adaptive bisection: the panel with the worst error estimate
    is split until the error, the summed panel estimates plus a rounding
    term 2e-16 * sum |panel|, meets max(abs_tol, rel_tol*|I|, 4e-16*|I|)
    or the subdivision budget runs out (flagged via converged=False,
    never silently).  Each panel is a Gauss-Kronrod G7/K15 pair: the
    value is K15 and the estimate the raw |K15 - G7|, which tracks the
    error of the cruder G7 rule, so it errs on the safe side for smooth
    integrands.  QUADPACK's (200 err/resasc)^1.5 rescaling is not applied:
    it is a heuristic, not a bound.

    `breakpoints`, increasing and strictly inside (a, b), seed the heap
    with one panel per piece, as QUADPACK's QAGP does; the bisection and
    the stop test then run over all pieces together.  Callers that know
    where f has a peak or a boundary layer pass graded_breaks points.

    The stop test reads running sums of the panel values, estimates and
    magnitudes, each carrying a bound on its own rounding, and the exact
    math.fsum sums are taken only when the running test cannot rule out
    the stop.  The split decisions, the value and the estimate are those
    of the exact sums on every pass.
    """
    if a == b:
        return QuadResult(0.0, 0.0, 0, True)
    if a > b:
        raise ValueError("integrate_finite requires a < b")
    edges = [a, *breakpoints, b]
    if not all(lo < hi for lo, hi in zip(edges, edges[1:])):
        raise ValueError("integrate_finite needs increasing breakpoints inside (a, b)")
    heap = []
    for lo, hi in zip(edges, edges[1:]):
        value, err = _panel(f, lo, hi)
        heap.append((-err, lo, hi, value))
    heapq.heapify(heap)
    n_evals = 15 * len(heap)
    frozen = []  # panels at the double-precision width floor: kept, not split
    n_splits = 0
    converged = True
    width_floor = 1e-15 * (b - a)
    # must_split: the running sums of panel values, estimates and |values|
    # (sums, with rounding bounds slop) already rule out the stop
    must_split = False
    while True:
        if not must_split or n_splits >= cfg.max_subdivisions or not heap:
            panels = heap + frozen
            total = math.fsum(item[3] for item in panels)
            err_sum = math.fsum(-item[0] for item in panels)
            abs_sum = math.fsum(abs(item[3]) for item in panels)
            total_err = err_sum + 2e-16 * abs_sum
            if total_err <= max(
                cfg.abs_tol, cfg.rel_tol * abs(total), 4e-16 * abs(total)
            ):
                break
            if n_splits >= cfg.max_subdivisions or not heap:
                converged = False
                break
            sums = [total, err_sum, abs_sum]
            slop = [_ADD_ROUNDING * abs(s) for s in sums]
        neg_err, pa, pb, pv = heapq.heappop(heap)
        if pb - pa <= width_floor:
            frozen.append((neg_err, pa, pb, pv))
            continue
        mid = 0.5 * (pa + pb)
        v1, e1 = _panel(f, pa, mid)
        v2, e2 = _panel(f, mid, pb)
        n_evals += 30
        heapq.heappush(heap, (-e1, pa, mid, v1))
        heapq.heappush(heap, (-e2, mid, pb, v2))
        n_splits += 1
        for i, (x1, x2, x0) in enumerate(
            ((v1, v2, pv), (e1, e2, -neg_err), (abs(v1), abs(v2), abs(pv)))
        ):
            s = sums[i] + ((x1 + x2) - x0)
            sums[i] = s
            slop[i] += _ADD_ROUNDING * (abs(x1) + abs(x2) + abs(x0) + abs(s))
        err_lo = (sums[1] - slop[1]) + 2e-16 * (sums[2] - slop[2])
        mag_hi = abs(sums[0]) + slop[0]
        allow_hi = max(cfg.abs_tol, cfg.rel_tol * mag_hi, 4e-16 * mag_hi)
        must_split = err_lo * (1.0 - _RUNNING_SLACK) > allow_hi * (1.0 + _RUNNING_SLACK)
    return QuadResult(total, total_err, n_evals, converged)


@dataclass(frozen=True)
class PowerTail:
    """Analytic model for integral_X^inf phi(x) (x+shift)^(-power) dx.

    phi is 1-periodic with |phi| <= envelope.  With only the envelope
    known, the tail is charged envelope*(X+shift)^(1-power)/(power-1) as
    an error bound.  When the periodic profile of phi is known, two exact
    correction terms are added back to the value instead:

        mean * (X+shift)^(1-power)/(power-1)        (mean mass)
      + corr2 * (X+shift)^(-power)                  (first moment of the
                                                     running integral)

    leaving, after integrating by parts twice, a remainder bounded by
    osc2 * power * (X+shift)^(-power-1).  X must be an integer.
    """

    power: float
    shift: float = 0.0
    envelope: float = 1.0
    mean: float | None = None
    corr2: float = 0.0
    osc2: float = 0.0

    def __post_init__(self):
        if self.power <= 1.0:
            raise ValueError("tail power must exceed 1 for convergence")

    @classmethod
    def from_envelope(cls, envelope, power, shift=0.0):
        return cls(power=power, shift=shift, envelope=envelope)

    @classmethod
    def from_periodic(cls, phi, power, shift=0.0):
        """Build the corrected model from the periodic factor phi on [0, 1]."""
        mean, corr2, osc2, fmax = _periodic_profile(phi)
        return cls(
            power=power,
            shift=shift,
            envelope=fmax,
            mean=mean,
            corr2=corr2,
            osc2=osc2,
        )

    def value(self, x):
        if self.mean is None:
            return 0.0
        g = (x + self.shift) ** (-self.power)
        return self.mean * (x + self.shift) * g / (self.power - 1.0) + self.corr2 * g

    def bound(self, x):
        if self.mean is None:
            return (
                self.envelope
                * (x + self.shift) ** (1.0 - self.power)
                / (self.power - 1.0)
            )
        return self.osc2 * self.power * (x + self.shift) ** (-self.power - 1.0)


def _periodic_profile(phi):
    """Mean, second-order tail coefficient and remainder bound for phi.

    With Q(y) = integral_0^y (phi - mean), the tail correction coefficient
    is qbar = integral_0^1 Q = integral_0^1 phi(u)(1-u) du - mean/2, and the
    remainder after both corrections is bounded by sup |integral (Q - qbar)|
    times the integrated derivative of the algebraic factor.
    """
    quad_cfg = QuadConfig(rel_tol=1e-13, abs_tol=1e-16, max_subdivisions=400)
    mean = integrate_finite(phi, 0.0, 1.0, quad_cfg).value
    qbar = (
        integrate_finite(lambda u: phi(u) * (1.0 - u), 0.0, 1.0, quad_cfg).value
        - 0.5 * mean
    )
    # coarse grids are fine: osc2 only scales a safety bound
    n = 1024
    h = 1.0 / n
    fmax = 0.0
    q = 0.0
    r = 0.0
    rmax = 0.0
    prev_phi = phi(0.0) - mean
    prev_q = 0.0
    for i in range(1, n + 1):
        y = i * h
        cur_phi = phi(min(y, 1.0 - 1e-12)) - mean
        q += 0.5 * h * (prev_phi + cur_phi)
        r += 0.5 * h * ((prev_q - qbar) + (q - qbar))
        rmax = max(rmax, abs(r))
        fmax = max(fmax, abs(cur_phi + mean))
        prev_phi, prev_q = cur_phi, q
    return mean, qbar, 1.5 * rmax + 1e-17, 1.05 * fmax


def integrate_unit_split(f, start, cfg=DEFAULT_CONFIG, tail=None):
    """Integral of f over [start, inf) split at the integer lattice.

    f must be piecewise smooth with breakpoints only at integers; each
    unit interval is integrated adaptively.  Accumulation stops once the
    tail model's bound is inside half the error allowance (the other
    half covers the summed interval estimates); with no model, the stop
    also requires the last contribution to fall below tail_stop and the
    tail is charged with a geometric-ratio extrapolation instead.
    """
    # per-interval budgets must sum below the overall allowance
    local = QuadConfig(
        rel_tol=cfg.rel_tol,
        abs_tol=cfg.abs_tol / 64.0,
        max_subdivisions=cfg.max_subdivisions,
    )
    value = 0.0
    err = 0.0
    n_evals = 0
    converged = True
    x = float(start)
    first_stop = math.floor(start) + 1.0
    if first_stop > start and first_stop < start + 1.0:
        r = integrate_finite(f, start, first_stop, local)
        value += r.value
        err += r.abs_err_est
        n_evals += r.n_evals
        converged = converged and r.converged
        x = first_stop
    prev = math.inf
    intervals = 0
    while True:
        if intervals >= cfg.tail_intervals_max:
            converged = False
            break
        r = integrate_finite(f, x, x + 1.0, local)
        value += r.value
        err += r.abs_err_est
        n_evals += r.n_evals
        converged = converged and r.converged
        x += 1.0
        intervals += 1
        contrib = abs(r.value)
        tol = 0.5 * max(cfg.abs_tol, cfg.rel_tol * abs(value))
        if tail is not None:
            if tail.bound(x) <= tol and (
                contrib < cfg.tail_stop or tail.mean is not None
            ):
                value += tail.value(x)
                err += tail.bound(x)
                break
        else:
            if contrib < cfg.tail_stop and prev < math.inf:
                ratio = contrib / prev if prev > 0.0 else 0.0
                est = contrib * ratio / (1.0 - ratio) if ratio < 1.0 else math.inf
                if est <= tol:
                    err += est
                    break
        prev = contrib
    converged = converged and err <= max(cfg.abs_tol, cfg.rel_tol * abs(value))
    return QuadResult(value, err, n_evals, converged)


# B_2k/(2k)! for k = 1..11, the weights of the periodic-Bernoulli tail
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
)

# The same weights for Taylor coefficients: B_2k/(2k)! * (2k-2)!.
_EM_TAYLOR = tuple(w * math.factorial(2 * k) for k, w in enumerate(_EM_WEIGHTS))


def _product_coefficient(series, n):
    """Coefficient n of the product of the power series in `series`."""
    acc = series[0][: n + 1]
    if len(series) == 1:
        return acc[n]
    for r in series[1:-1]:
        acc = [sum(map(operator.mul, acc[: i + 1], r[i::-1])) for i in range(n + 1)]
    return sum(map(operator.mul, acc, series[-1][n::-1]))


def _sawtooth_tail(factors, x, tol):
    """(value, bound) of integral_x^inf p1(t) g(t) dt, or None.

    The tail is -sum_k B_2k/(2k)! g^(2k-2)(x) + R_K.  g is completely
    monotone, so |R_K| is at most the first omitted term; K is the first
    count whose next term is within tol.  The terms' magnitudes are
    log-convex in k (even moments of g's Bernstein measure times
    2 zeta(2k)/(2 pi)^2k), so once the ratio r of the last two terms
    gives |term| r^(terms left) > tol no later term can meet tol, and
    None is returned: x is still too close to the poles.

    g^(n)(x)/n! comes from the Leibniz rule on the factors' own Taylor
    coefficients, (-1)^n C(p+n-1, n) (x+c)^(-p-n), built only as far as
    the terms go.  Every product in those sums has the sign (-1)^n, so
    plain summation loses nothing.
    """
    params = [(p, 1.0 / (x + c)) for c, p in factors]
    series = [[u**p] for p, u in params]
    value = 0.0
    prev = math.inf
    for k, w in enumerate(_EM_TAYLOR):
        n = 2 * k
        for (p, u), r in zip(params, series):
            for j in range(len(r) - 1, n):
                r.append(-r[j] * (p + j) * u / (j + 1))
        term = -w * _product_coefficient(series, n)
        size = abs(term)
        if size <= tol:
            return value, size
        ratio = size / prev
        if not ratio < 1.0 or size * ratio ** (len(_EM_TAYLOR) - 1 - k) > tol:
            return None
        prev = size
        value += term
    return None


def p1_integral(factors, start, cfg=DEFAULT_CONFIG):
    """integral_start^inf p1(t) g(t) dt with g(t) = prod (t + c)^(-p).

    factors is a sequence of (c, p) pairs with p > 0 and start + c > 0, so
    g is completely monotone on [start, inf); g and its derivatives are
    built here from the factors.  Unit intervals from start are integrated
    adaptively, one piece each.  The first is also split at its
    half-integer and wherever the distance to a pole -c doubles, so a
    peak narrower than a panel is still resolved.  The absolute allowance,
    2e-15 g(start) per unit length, is shared out by piece width.

    At each integer X reached, before the next interval, the
    periodic-Bernoulli tail (DLMF 2.10(i), 24.17)

        integral_X^inf p1 g = -g(X)/12 + g''(X)/720 - g''''(X)/30240 + ...

    is tried with up to 11 terms.  For completely monotone g the
    remainder after K terms is bounded by the first omitted term, so the
    march stops at the first X where such a term is within 1e-16 |value|,
    and that term is charged as the tail's error.  The tolerance is the
    rounding floor of the sum, not cfg.rel_tol, because callers such as
    HYP cancel this value against other terms.
    """
    if start != math.floor(start):
        raise ValueError("p1_integral expects an integer start")
    factors = tuple((float(c), float(p)) for c, p in factors)
    if not factors or not all(
        0.0 < p < math.inf and 0.0 < start + c < math.inf for c, p in factors
    ):
        raise ValueError("p1_integral needs factors with p > 0 and start + c > 0")

    def g(t):
        v = 1.0
        for c, p in factors:
            v *= (t + c) ** -p
        return v

    x = float(start)
    value = 0.0
    err = 0.0
    n_evals = 0
    converged = True
    intervals = 0
    # absolute allowance per unit of length, shared out by piece width
    abs_density = max(g(x) * 2e-15, 1e-299)
    # where the distance to a pole -c doubles, short of the half-integer
    breaks = {
        t for c, _ in factors for t in graded_breaks(-c, x + (x + c), x + 0.5)
    }
    edges = [x, *sorted(breaks), x + 0.5, x + 1.0]
    while True:
        tail = _sawtooth_tail(factors, x, max(1e-16 * abs(value), 5e-300))
        if tail is not None:
            value += tail[0]
            err += tail[1]
            break
        if intervals >= cfg.tail_intervals_max:
            converged = False
            break
        for a, b in zip(edges, edges[1:]):
            local = QuadConfig(
                rel_tol=1e-12, abs_tol=abs_density * (b - a), max_subdivisions=60
            )
            r = integrate_finite(lambda t: p1(t) * g(t), a, b, local)
            value += r.value
            err += r.abs_err_est
            n_evals += r.n_evals
            converged = converged and r.converged
        x += 1.0
        intervals += 1
        edges = (x, x + 1.0)
    converged = converged and err <= max(cfg.abs_tol, cfg.rel_tol * abs(value))
    return QuadResult(value, err, n_evals, converged)


def lemma2_transform(f, b, c, lam, cfg=DEFAULT_CONFIG):
    """Both sides of the periodization identity

        integral_0^inf f({x/b}) (x+c)^(-lambda) dx
            = b^(1-lambda) * integral_0^1 f(y) zeta(lambda, y + c/b) dy

    for b > 0, lambda > 1, c >= 0.  Returns (lhs, rhs) as QuadResults so
    the caller can assert their agreement.
    """
    if b <= 0.0:
        raise ValueError("lemma2_transform requires b > 0")
    if lam <= 1.0:
        raise ValueError("lemma2_transform requires lambda > 1")
    if c < 0.0:
        raise ValueError("lemma2_transform requires c >= 0")
    scale = b ** (1.0 - lam)
    tail = PowerTail.from_periodic(lambda y: scale * f(y), lam, shift=c / b)
    # substitute x = b*v so breakpoints land on integers
    lhs = integrate_unit_split(
        lambda v: scale * f(v - math.floor(v)) * (v + c / b) ** (-lam),
        0.0,
        cfg,
        tail=tail,
    )
    rhs = integrate_finite(
        lambda y: f(y) * hurwitz_zeta(lam, y + c / b), 0.0, 1.0, cfg
    ).scaled(scale)
    return lhs, rhs
