"""The normalized log-gamma function D(x) = ln Gamma(x+1) / x and its
higher derivatives, evaluated by mathematically independent routes that
cross-validate one another:

CLOSED      Leibniz product rule over polygamma values (on |x| <= 0.26,
            where the terms cancel, collected by powers of x once per m).
            route=None, and the CLI's AUTO, mean CLOSED below
            x = 2^(1023 // (m + 1)), where its x^(m+1) still fits a
            double, and LAPLACE from there on.
HURWITZ     m! * integral_0^1 u^m zeta(m+1, x u + 1) du, up to sign; for
            x > 1 and x < -1/2 in v = ln of the zeta argument, over a few
            pieces of width 2.
LAPLACE     integral_0^inf t^m/(e^t - 1) E_m(x t) dt (x >= 0); from x = cut_m
            (43 to 73), where E_m is m!/y^(m+1) past t_c = cut_m/x <= 1,
            two Bernoulli series with no quadrature: the tail in closed
            form and a table of E_m's moments built once per m.
HYP         Gauss-2F1 representation plus a sawtooth-weighted integral.
RECURRENCE  one-step reduction to CLOSED at order m-1 plus a zeta value.
SERIES      term-wise differentiated Taylor expansion around 0 (|x| <= 0.26),
            a cross-check with its own loop and coefficient formula.

Also: the paper's large-x leading form (asymptotic_leading, no route:
its distance to the refined form is not a bound), closed-form special
values at x = 1 and x = -1/2, the fractional-part integral
representations, the two moment integrals of D over [0, 1], and a
numerical certificate of the alternating-sign pattern of the derivatives
(complete monotonicity of D').
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

from . import _ddarith, hyp2f1, quad
from ._backend import kernels
from .report import IdentityResidual, VerificationReport
from .specfun import CONSTANTS, K_MAX

__all__ = [
    "EvalResult",
    "MAX_DERIV_ORDER",
    "Route",
    "asymptotic_leading",
    "check_complete_monotonicity",
    "delta",
    "delta_deriv",
    "delta_deriv_at_one",
    "delta_deriv_half_integer",
    "frac_rep_prop2",
    "integral_delta",
    "integral_delta_squared",
    "recurrence_residual",
]

MAX_DERIV_ORDER = 12

# Error charged to each double-kernel CLOSED term, relative to its size.
# On 5,000 mpmath draws (m = 1..12, -1 < x <= 1e6, |x| >= 0.125) the worst
# error needed 2.24e-15 of sum |term| (m = 6, x = 0.4691, beside the zero
# of the digamma at 1.4616) after the 2.2e-15 |value| charge; on 3,000
# fresh draws the errors stay under 0.46 of the estimate.
_CLOSED_TERM_REL = 4e-15

# The widest seed piece of HURWITZ in v = ln(a/b).  zeta(m+1, a) has its
# poles at a = 0, -1, -2, ..., which a = b e^v reaches only at v = -inf
# and on Im v = +-pi, so the integrand in v is analytic on the strip
# |Im v| < pi whatever x is.  The largest Bernstein ellipse of a piece of
# width W = 2 (foci at its ends) inside that strip has semi-minor axis pi,
# so rho = pi + sqrt(pi^2 + 1) = 6.4, and G10, exact through degree 19,
# errs by about rho^-20 = 1.5e-16 of the integrand's size on it
# (Trefethen, ATAP ch. 19): one K21 panel for each factor e^2 of
# distance to the pole, where the doubling mesh in u spent one for each
# factor 2.
_HZ_PIECE_WIDTH = 2.0


class Route(enum.Enum):
    """One of several independent formulas for the same quantity."""

    CLOSED = "CLOSED"
    HURWITZ = "HURWITZ"
    LAPLACE = "LAPLACE"
    HYP = "HYP"
    RECURRENCE = "RECURRENCE"
    SERIES = "SERIES"


@dataclass
class EvalResult:
    """A value with error estimate, route tag, work counter, and whether
    every quadrature under it converged (False: trust neither number)."""

    value: float
    abs_err_est: float
    route: Route
    n_evals: int
    converged: bool = True


def _check_x(x):
    if not -1.0 < x < math.inf:
        raise ValueError(f"domain error: need -1 < x < inf, got {x}")


def _check_m(m, name="m", lo=1, hi=MAX_DERIV_ORDER, where="domain error"):
    """Refuse an order that is not an int in [lo, hi], 2.0 included."""
    if not (isinstance(m, int) and lo <= m <= hi):
        raise ValueError(f"{where}: need an integer {lo} <= {name} <= {hi}, got {m}")


def delta(x):
    """D(x) = ln Gamma(x+1)/x, extended by continuity to D(0) = -gamma.

    On |x| <= _ddarith.X_MAX = 0.26 the log-gamma kernel's Taylor form
    gives D directly, -gamma + sum_{k>=2} (-1)^k zeta(k) x^(k-1)/k; the
    two branches agree to ~1e-15 at the seam.  Past x = 2.556e305
    ln Gamma(x+1) overflows, though D ~ ln x - 1 stays under 710; there
    Stirling's terms are divided by x before they are summed, and its
    Bernoulli sum, under 1/(12 x), is far below an ulp of D.
    """
    _check_x(x)
    if abs(x) <= _ddarith.X_MAX:
        return kernels.ln_gamma_taylor(0, x)
    value = kernels.ln_gamma(x + 1.0) / x
    if value == math.inf:
        z = x + 1.0
        value = (z - 0.5) / x * math.log(z) - z / x + kernels._LN_SQRT_TWO_PI / x
    return value


# ---------------------------------------------------------------- routes


@functools.lru_cache(maxsize=None)
def _closed_row(m):
    """What _closed needs of m alone, built on first use: the (s,
    _zeta_plan(s)) pairs for s = m, ..., 2, the signed (s-1)! that turns
    each zeta(s, x + 1) into psi^(s-1)(x + 1), and for each term j the
    signed comb(m, j) and j!."""
    orders = range(m - 1, 0, -1)
    pairs = tuple((order + 1.0, kernels._zeta_plan(order + 1.0)) for order in orders)
    scales = tuple((1.0 if order % 2 else -1.0) * math.factorial(order) for order in orders)
    weights = tuple(
        ((-1.0) ** j * math.comb(m, j), float(math.factorial(j))) for j in range(m + 1)
    )
    return pairs, scales, weights


def _closed(m, x, rel_tol):
    """Leibniz expansion sum_j C(m,j) psi^(m-j-1)(x+1) (-1)^j j!/x^(j+1).

    Near 0 the terms cancel like |x|^-(m+1).  On |x| <= _ddarith.X_MAX
    = 0.26 _ddarith.closed_product_rule_dd sums the expansion collected
    by powers of x instead: every negative power has weight 0, and each
    power n >= 0 has one coefficient zeta(n+m+1) B(m, n), from a table
    built once per m, summed by one Horner pass over as many terms as a
    proven bound on the rest asks for at |x|, with a proven error bound.
    It answers at x = 0 (the limit (-1)^(m-1) m! zeta(m+1)/(m+1) rounded
    once) and down to |x| = 5e-324.  Elsewhere the terms come from the
    double kernels: ln Gamma and the digamma at x + 1, and every
    zeta(s, x + 1) from one _zeta_values call over the orders of
    _closed_row(m), with each term's products in the per-term order
    comb(m, j) psi j!/x^(j+1), so the values are those of one kernel call
    per term, bit for bit.  Each term is charged _CLOSED_TERM_REL of its
    size for the kernel, the rounding of x + 1 and x^(j+1), and the
    products; x whose x^(m+1) overflows is refused.
    """
    if abs(x) <= _ddarith.X_MAX:
        value, err = _ddarith.closed_product_rule_dd(m, x)
        return EvalResult(value, err, Route.CLOSED, m + 1)
    pairs, scales, weights = _closed_row(m)
    a = x + 1.0
    psis = [c * z for c, z in zip(scales, kernels._zeta_values(pairs, (a,)))]
    psis += (kernels.digamma(a), kernels.ln_gamma(a))
    terms = []
    xpow = 1.0
    for (comb, fact), psi in zip(weights, psis):
        xpow *= x
        terms.append(comb * psi * fact / xpow)
    if math.isinf(xpow):
        raise ValueError(
            f"domain error: CLOSED needs x^(m+1) inside the double range, "
            f"got x = {x} at m = {m}"
        )
    value = math.fsum(terms)
    err = 2.2e-15 * abs(value) + _CLOSED_TERM_REL * math.fsum(map(abs, terms))
    return EvalResult(value, err, Route.CLOSED, m + 1)


def _series(m, x, rel_tol):
    """Term-wise differentiated Taylor form, |x| <= _ddarith.X_MAX = 0.26."""
    if abs(x) > _ddarith.X_MAX:
        raise ValueError(f"SERIES route needs |x| <= {_ddarith.X_MAX}, got {x}")
    total = 0.0
    magnitude = 0.0
    xpow = 1.0
    last = math.inf
    for k in range(m + 1, K_MAX + 1):
        coef = math.prod(range(k - m, k)) / k  # (k-1)!/(k-1-m)! / k
        term = CONSTANTS.zeta_values[k] * coef * xpow
        if k % 2:
            term = -term
        total += term
        magnitude = max(magnitude, abs(term))
        last = abs(term)
        if last < 1e-18 * max(abs(total), 1e-300):
            last = 0.0
            break
        xpow *= x
    err = 2.0 * (magnitude * 1.1e-16 * (K_MAX - m)) + 2.0 * last
    return EvalResult(total, err, Route.SERIES, K_MAX - m)


def _sign_for(m):
    return 1.0 if (m - 1) % 2 == 0 else -1.0


def _graded_mesh(pole, first, end):
    """quad.graded_breaks up to end, with a last piece shorter than the
    one before it merged into that one: such a sliver costs a panel and
    is far enough from the pole not to need one."""
    breaks = quad.graded_breaks(pole, first, end)
    if len(breaks) >= 2 and end - breaks[-1] < breaks[-1] - breaks[-2]:
        del breaks[-1]
    return breaks


def _hurwitz(m, x, rel_tol):
    """(-1)^(m-1) m! integral_0^1 u^m zeta(m+1, x u + 1) du.

    zeta(m+1, x u + 1) has its pole at u = -1/x.  On -1/2 <= x <= 1,
    x = 0 included, it is at least a unit interval away and [0, 1] is
    one piece in u (kernels.hz_route_panel).  Further out
    the integrand has a layer at the end nearest the pole, u ~ 1/x for
    x > 1 and u = 1 for x < -1/2, whose width shrinks with distance to
    the pole, so the integral runs in the log of the zeta argument:
    a = e^v on [0, ln(1 + x)] for x > 1, and a = (1 + x) e^v on
    [0, -ln(1 + x)] for x < -1/2 (kernels.hz_route_log_panel, each node
    with its own Jacobian).  In v the layer has a fixed width, as the
    integrand is analytic on |Im v| < pi for every x, so equal seed
    pieces no wider than _HZ_PIECE_WIDTH = 2 do: about ln(x)/2 of them
    against log2(x) graded ones in u.

    The estimate carries a 2e-15 |value| rounding floor for the kernel,
    the panel sums and the scaling, and one 2^-1074 per node times m!
    for values that fall among the subnormals at huge x.  For x > 1 the
    integrand grows about like e^v up to the top end V = ln(1 + x), so
    the ulp by which log1p may miss V moves the integral by up to
    f(V) V 2^-52; against mpmath (m = 1..12, 1 < x <= 1e291)
    f(V) V/integral <= V + 0.7 m + 0.75, its largest at x -> 1, so
    (m + 2 + V) 2^-52 |value| is charged.  For x < -1/2 the integrand is 0 at V.
    """
    # the integrand is positive: driven by rel_tol alone
    top, breaks, top_ulps = 1.0, (), 0.0
    if -0.5 <= x <= 1.0:
        f = lambda us: kernels.hz_route_panel(m, x, us)  # noqa: E731
    else:
        top = abs(math.log1p(x))
        pieces = math.ceil(top / _HZ_PIECE_WIDTH)
        breaks = [top * k / pieces for k in range(1, pieces)]
        f = lambda vs: kernels.hz_route_log_panel(m, x, vs)  # noqa: E731
        if x > 0.0:
            top_ulps = m + 2.0 + top
    r = quad.integrate_finite(
        f, 0.0, top, breaks, rel_tol=min(rel_tol, 1e-11), abs_tol=5e-300
    )
    fact = math.factorial(m)
    value = _sign_for(m) * fact * r.value
    err = fact * (r.abs_err_est + r.n_evals * 2.0**-1074)
    err += (2e-15 + top_ulps * 2.0**-52) * abs(value)
    return EvalResult(value, err, Route.HURWITZ, r.n_evals, r.converged)


# b_2k = B_2k/(2k)! for k = 1..13, the even Taylor coefficients of
# t/(e^t - 1) = 1 - t/2 + sum_k b_2k t^2k (DLMF 24.2.1), as exact
# rationals rendered once.  Written out here rather than taken from the
# Hurwitz-zeta kernel or the sawtooth's weights, so LAPLACE shares no
# Bernoulli table with the routes it cross-checks.  |b_2k| =
# 2 zeta(2k)/(2 pi)^2k and zeta(2k) falls with k, so |b_2k| falls by at
# least (2 pi)^-2 a step, and a tail at t <= 1 is at most its first term
# times _LAPLACE_TAIL.
_LAPLACE_B2K = (
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
)
_LAPLACE_TAIL = 1.0 / (1.0 - (2.0 * math.pi) ** -2)
# C = (gamma - ln 2 pi)/2 = -0.63033070075390631148 (mpmath), the constant
# of J(a) (see _laplace): the finite part at s = 0 of the Mellin transform
# Gamma(s) zeta(s) of 1/(e^t - 1)
_LAPLACE_J_CONST = -0.6303307007539063
# J(1) = 0.28679243094929734072 (mpmath), rounded down: the least of
# G(a) = a J(a) on (0, 1], as G(a) = integral_1^inf a/(s (e^(a s) - 1)) ds
# falls as a rises
_LAPLACE_J_ONE = 0.2867924309492973
# the relative error of one rounding
_ROUNDING = 2.0**-53


def _bernoulli_terms(room, weight):
    """The fewest (k, b_2k), k = 1..n, after which the omitted terms
    |b_2k| t^2k weight(k), for t <= 1 and weight(k) not rising with k,
    are proven to sum to at most room."""
    for n, b in enumerate(_LAPLACE_B2K):
        if abs(b) * weight(n + 1) * _LAPLACE_TAIL <= room:
            return tuple(enumerate(_LAPLACE_B2K[:n], 1))
    raise ValueError("LAPLACE's Bernoulli table is too short for its bound")


# b_2k/(2k-1), highest k first, for the terms of G kept: its terms
# |b_2k| t^2k/(2k-1) are cut under 2^-60 J(1) <= 2^-60 G
_LAPLACE_J_POLY = tuple(
    b / (2 * k - 1)
    for k, b in reversed(_bernoulli_terms(2.0**-60 * _LAPLACE_J_ONE, lambda k: 1 / (2 * k - 1)))
)
# (k, b_k) for the terms of I1 kept: its term 2k is at most
# 2 |b_2k| t_c^2k of I1, cut under 2^-60 of it
_LAPLACE_I1_TERMS = ((0, 1.0), (1, -0.5)) + tuple(
    (2 * k, b) for k, b in _bernoulli_terms(2.0**-60, lambda k: 2.0)
)


@functools.lru_cache(maxsize=None)
def _laplace_row(m):
    """What _laplace needs of m alone from x = cut on, built on first
    use: (cut, m!, head, evens, converged).

    cut is kernels._trunc_exp_plan(m)[3].  I1's coefficients are
    c_k = b_k M_k/cut^k for the k of _LAPLACE_I1_TERMS, with
    M_k = integral_0^cut y^(m+k-1) E_m(y) dy each from
    quad.integrate_finite over kernels._trunc_exp_values.  Each goes with
    its estimate: |c_k| times the moment's relative estimate plus 8
    roundings for the coefficient's own and its share of the sums.  head
    holds (c_0, est), (c_1, est) and evens the pairs for c_2K, ..., c_4,
    c_2.  converged is False if any moment's quadrature did not converge.
    """
    cut = kernels._trunc_exp_plan(m)[3]
    pairs, converged = [], True
    for k, b in _LAPLACE_I1_TERMS:
        power = m + k - 1
        r = quad.integrate_finite(
            lambda ys: [
                y**power * e for y, e in zip(ys, kernels._trunc_exp_values(m, 1.0, ys, False))
            ],
            0.0,
            cut,
            rel_tol=1e-15,
            abs_tol=0.0,
        )
        c = b * r.value / cut**k
        pairs.append((c, abs(c) * (r.abs_err_est / r.value + 8.0 * _ROUNDING)))
        converged &= r.converged
    return cut, float(math.factorial(m)), tuple(pairs[:2]), tuple(pairs[:1:-1]), converged


def _laplace_g(t):
    """G(t) = t J(t) = 1 + t (C + ln(t)/2 - t sum_k j_k t^(2k-2)) for
    0 < t <= 1, j_k = _LAPLACE_J_POLY, and a bound on its error: the
    series' tail, under 2^-60 of G, and 8 roundings of the terms' sizes."""
    p = 0.0
    t2 = t * t
    for c in _LAPLACE_J_POLY:
        p = p * t2 + c
    half_log = 0.5 * math.log(t)
    g = 1.0 + t * (_LAPLACE_J_CONST + half_log - t * p)
    size = 1.0 + t * (-_LAPLACE_J_CONST - half_log + t * abs(p))
    return g, 2.0**-60 * g + 8.0 * _ROUNDING * size


def _laplace_closed(m, x):
    """LAPLACE from x = cut on, as I1 + I2 with no quadrature (see _laplace)."""
    cut, fact, ((c0, e0), (c1, e1)), evens, converged = _laplace_row(m)
    t = cut / x
    t2 = t * t
    # I1 x^m = c_0 + c_1 t + t^2 sum_k c_2k t^(2k-2), and its estimate
    acc = acc_err = 0.0
    for c, e in evens:
        acc = acc * t2 + c
        acc_err = acc_err * t2 + e
    i1 = c0 + t * (c1 + t * acc)
    i1_err = e0 + t * (e1 + t * acc_err) + 2.0**-59 * i1
    g, g_err = _laplace_g(t)
    i2 = fact * g / cut  # I2 x^m
    i2_err = fact * (2.0**-56 * g + g_err) / cut
    # x^-m = f^-m 2^(-m e) for x = f 2^e: only the last rounding can fall
    # among the subnormals
    f, e = math.frexp(x)
    scale = f**-m
    value = math.ldexp((i1 + i2) * scale, -m * e)
    n_terms = len(_LAPLACE_I1_TERMS) + len(_LAPLACE_J_POLY) + 3  # 1, C, ln(t)/2
    err = math.ldexp((i1_err + i2_err) * scale, -m * e)
    err += 4.0 * _ROUNDING * value + n_terms * 2.0**-1074
    return EvalResult(_sign_for(m) * value, err, Route.LAPLACE, n_terms, converged)


def _laplace(m, x, rel_tol):
    """(-1)^(m-1) integral_0^inf t^m/(e^t-1) E_m(xt) dt for x >= 0.

    Below x = cut = kernels._trunc_exp_plan(m)[3] (43.3 at m = 1, 72.9 at
    m = 12) it is a quadrature.  E_m(x t) turns from 1/(m+1) to
    m!/(x t)^(m+1) around t = m/x, so the mesh doubles from
    t = min(m/x, 1) up to T.  At x < cut no value is near the
    subnormals, so the estimate takes no absolute floor.

    From x = cut on, t_c = cut/x <= 1 splits the integral into two
    series, and no mesh is built (_laplace_closed):

    - I2, over t >= t_c, where y = x t >= cut and E_m(y) is
      m! y^-(m+1) (1 - Q) with a Poisson sum 0 <= Q <= 2^-56
      (trunc_exp_factor).  So I2 = m! x^-(m+1) J(t_c), at most 2^-56 of
      itself too large, with J(a) = integral_a^inf dt/(t (e^t - 1)).
      Term by term from 1/(e^t - 1) = 1/t - 1/2 + sum_k b_2k t^(2k-1)
      (b_n = B_n/n!, radius 2 pi), J(a) = 1/a + ln(a)/2 + C -
      sum_k b_2k a^(2k-1)/(2k-1), C = (gamma - ln 2 pi)/2.  It is summed
      as G(t_c) = t_c J(t_c), which lies in [J(1), 1], so that
      I2 = m! x^-m G(t_c)/cut forms no 1/t_c.
    - I1, over t < t_c.  t^m/(e^t - 1) = sum_k b_k t^(m+k-1), so with
      y = x t, I1 = sum_k b_k x^-(m+k) M_k = x^-m sum_k c_k t_c^k, where
      M_k = integral_0^cut y^(m+k-1) E_m(y) dy and c_k = b_k M_k/cut^k
      come from a table built once per m (_laplace_row).  M_k <= cut^k
      M_0, and t/(e^t - 1) >= 1/2 on [0, 1] gives I1 >= x^-m M_0/2, so
      term k is at most 2 |b_k| t_c^k of I1.

    Both series stop where the proven bound on what they leave out is
    under 2^-60 of their sum (_bernoulli_terms): 13 terms of I1 and 11
    Bernoulli terms of G.  x^-m is applied last, as f^-m 2^(-m e) for
    x = f 2^e, so nothing underflows before the final product (x^-(m+1)
    alone is 0.0 at m = 3, x = 1e100, where the value is 2e-300).  The
    estimate is the moments' quadrature estimates weighted by
    |b_k| x^-(m+k); 8 roundings (2^-53 each) of each term's size (the
    coefficients, the Horner sums and t_c = cut/x); 2^-59 of I1 and
    2^-60 of I2 for the series' tails; 2^-56 of I2 for Q; 4 roundings of
    the value for the scaling; and 2^-1074 a term for values among the
    subnormals.  n_evals counts the terms summed, and rel_tol is not read.
    A moment whose quadrature did not converge makes converged False.
    """
    if x < 0.0:
        raise ValueError("LAPLACE route needs x >= 0")
    if x >= kernels._trunc_exp_plan(m)[3]:
        return _laplace_closed(m, x)
    big_t = 50.0 + m * math.log(50.0)
    first = m / x if x > m else 1.0
    r = quad.integrate_finite(
        lambda ts: kernels.laplace_panel(m, x, ts),
        0.0,
        big_t,
        _graded_mesh(0.0, first, big_t),
        rel_tol=min(rel_tol, 1e-12),
        abs_tol=5e-300,
    )
    value = _sign_for(m) * r.value
    err = r.abs_err_est + kernels.laplace_tail_weight(m, x, big_t)
    return EvalResult(value, err, Route.LAPLACE, r.n_evals, r.converged)


def _hyp(m, x, rel_tol):
    """(1.6)-style assembly: two 2F1 terms minus a sawtooth integral,
    scaled by (-1)^(m-1) m!.  From x = 2^53 on, z = x/(x + 1) rounds to
    1, where the first 2F1 diverges, so such x are refused.

    Only one 2F1 is evaluated: f1 = F(1, m+1; m+2; z) and
    f2 = F(1, m; m+2; z) satisfy f2 = (m+1) - m (1-z) f1 exactly.  For
    z >= 0 f2 comes from f1 by it; for z < 0, where that subtraction
    would cancel, f1 comes from f2 (mpmath: within 5.1e-15 either way,
    under the 1e-14 charge).

    Both are evaluated at z as rounded, up to 2^-52 |z| off (x + 1 and
    the division), and at large x that moves the value more than the
    1e-14 charge: 1.9e-14 relative at m = 12, x = 1.9e14.  By Euler's
    integrals f1' <= f1/(1-z) and f2' <= m f1 for z < 1, so with
    1 - z = 1/(x + 1) the terms move by at most 3 (x + 1) |term1| |dz|,
    and 3 2^-52 |x term1| is charged for it.
    """
    z = x / (x + 1.0)
    if z == 1.0:
        raise ValueError(
            f"domain error: HYP route needs x/(x + 1) < 1 in double precision "
            f"(x below about 2^53), got x = {x}"
        )
    if z >= 0.0:
        f1 = hyp2f1.gauss_2f1(1.0, m + 1.0, m + 2.0, z)
        f2 = (m + 1.0) - m * (1.0 - z) * f1
    else:
        f2 = hyp2f1.gauss_2f1(1.0, float(m), m + 2.0, z)
        f1 = ((m + 1.0) - f2) / (m * (1.0 - z))
    xp1 = x + 1.0
    term1 = f1 * xp1 ** (-(m + 1.0)) / (2.0 * (m + 1.0))
    term2 = f2 * xp1 ** (-float(m)) / (m * (m + 1.0))

    p = quad.p1_integral(((1.0, 1.0), (xp1, m + 1.0)))
    fact = math.factorial(m)
    value = _sign_for(m) * fact * (term1 + term2 - p.value)
    err = fact * (p.abs_err_est + 1e-14 * (abs(term1) + abs(term2)))
    err += fact * 3.0 * 2.0**-52 * abs(x * term1)  # the rounding of z
    err += 4e-16 * abs(value)  # value already carries m!
    return EvalResult(value, err, Route.HYP, p.n_evals + 1, p.converged)


def _recurrence(m, x, rel_tol):
    """D^(m) = -(m/x) D^(m-1) - (-1)^(m-1) (m-1)! zeta(m, x+1)/x, D^(m-1) by CLOSED."""
    if m < 2:
        raise ValueError("RECURRENCE route needs m >= 2")
    if x == 0.0:
        raise ValueError("RECURRENCE route needs x != 0")
    prev = delta_deriv(m - 1, x, Route.CLOSED)  # no quadrature: always converges
    zeta_term = math.factorial(m - 1) * kernels.hurwitz_zeta(float(m), x + 1.0)
    scaled_prev = (m / x) * prev.value
    value = -scaled_prev - _sign_for(m) * zeta_term / x
    # the two terms cancel near x = 0, so each one's rounding is charged;
    # the rounding of x + 1 moves zeta(m, x + 1) by up to m ulps
    err = (m / abs(x)) * prev.abs_err_est + 4e-16 * (abs(value) + abs(scaled_prev))
    err += (m + 4) * 1.2e-16 * abs(zeta_term / x)
    if not (math.isfinite(value) and math.isfinite(err)):
        raise ValueError(
            f"domain error: RECURRENCE's m/x terms leave the double range "
            f"at m = {m}, x = {x}"
        )
    return EvalResult(value, err, Route.RECURRENCE, prev.n_evals + 1)


def asymptotic_leading(m, x, refine=False):
    """Large-x form of D^(m): leading term (-1)^(m-1) (m-1)!/(x+1)^m.

    With refine=True the next-order correction assembled from the
    near-unit-argument expansions of the two 2F1 factors is added; the
    refined form tracks the true value to O(log(x)/x^2) relative.
    """
    _check_m(m)
    if x <= 0.0:
        raise ValueError("asymptotic form needs x > 0")
    lead = _sign_for(m) * math.factorial(m - 1) / (x + 1.0) ** m
    if not refine:
        return lead
    b = CONSTANTS.euler_gamma - math.log(x) + kernels.digamma(m + 1.0)
    term1 = -b / (2.0 * (x + 1.0) ** (m + 1))
    term2 = (x + 1.0) ** (-float(m)) * (1.0 / m + b / x)
    return _sign_for(m) * math.factorial(m) * (term1 + term2)


# every entry is called as impl(m, x, rel_tol)
_ROUTE_IMPL = {
    Route.CLOSED: _closed,
    Route.SERIES: _series,
    Route.HURWITZ: _hurwitz,
    Route.LAPLACE: _laplace,
    Route.HYP: _hyp,
    Route.RECURRENCE: _recurrence,
}


def delta_deriv(m, x, route=None, rel_tol=None):
    """m-th derivative of D at x, by the route's entry in _ROUTE_IMPL.

    route=None is CLOSED below x = 2^(1023 // (m + 1)) (6.7e153 at m = 1,
    3.0e23 at m = 12), x = 0 included, and LAPLACE from there on, where
    CLOSED's x^(m+1) would overflow (LAPLACE's closed path, a proven
    bound in 27 terms, answers up to the largest double).  rel_tol can only
    tighten the relative tolerance of HURWITZ's quadrature (1e-11) and
    of LAPLACE's below x = cut_m (1e-12); every other route ignores it,
    but every route refuses one outside 0 < rel_tol < inf."""
    _check_m(m)
    _check_x(x)
    if route is None:
        route = Route.CLOSED if x < 2.0 ** (1023 // (m + 1)) else Route.LAPLACE
    impl = _ROUTE_IMPL.get(route)
    if impl is None:
        raise ValueError(f"unsupported route: {route}")
    if rel_tol is None:
        rel_tol = 1.0  # looser than either route's own: leaves both as they are
    elif not 0.0 < rel_tol < math.inf:
        raise ValueError(f"need 0 < rel_tol < inf, got {rel_tol}")
    return impl(m, x, rel_tol)


# ------------------------------------------------- special closed forms


def delta_deriv_at_one(m):
    """D^(m)(1) = (-1)^(m-1) m! [1 - gamma - sum_{j=2}^m (zeta(j)-1)/j].

    The zeta sum runs through j = m inclusive; that truncation is the one
    consistent with the m = 2 value pi^2/6 - 3 + 2 gamma and is pinned by
    the agreement test against the CLOSED route at x = 1.
    """
    _check_m(m)
    acc = 1.0 - CONSTANTS.euler_gamma
    for j in range(2, m + 1):
        acc -= CONSTANTS.zeta_minus_one_values[j] / j
    return _sign_for(m) * math.factorial(m) * acc


def delta_deriv_half_integer(m):
    """D^(m)(-1/2) by the closed half-argument form

    D^(m)(-1/2)/m! = sum_{j=0}^{m-2} [(-1)^(m-1-j)/(m-j)] (2^(m+1) - 2^(j+1)) zeta(m-j)
                     + 2^m (gamma + 2 ln 2) - 2^(m+1) ln sqrt(pi),

    built from the half-argument polygamma values and validated against
    the CLOSED route at x = -1/2 for every supported order.
    """
    _check_m(m, hi=10, where="delta_deriv_half_integer")
    n = m - 1
    acc = 0.0
    for j in range(n):
        sign = 1.0 if (n - j) % 2 == 0 else -1.0
        acc += (
            sign
            / (n - j + 1.0)
            * (2.0 ** (n + 2) - 2.0 ** (j + 1))
            * CONSTANTS.zeta_values[n - j + 1]
        )
    acc += 2.0 ** (n + 1) * (CONSTANTS.euler_gamma + 2.0 * CONSTANTS.ln_2)
    acc -= 2.0 ** (n + 2) * 0.5 * CONSTANTS.ln_pi
    return math.factorial(m) * acc


# ------------------------------------------- fractional-part representation


def frac_rep_prop2(m, k):
    """Both sides of the fractional-part representation

      integral_0^1 u^m zeta(m+1, k u + 1) du
        = k^(-m-1) [ integral_1^inf {w}^m/w^(m+1) dw
                     + sum_{j=1}^{k-1} integral_0^inf ({x}+j)^m/(x+j+1)^(m+1) dx ]

    for integer k >= 1, 1 <= m <= 8.  Returns (lhs, rhs) QuadResults; the
    left side is integrated to 1e-11 relative or 1e-9 absolute.
    """
    _check_m(k, "k", hi=math.inf, where="frac_rep_prop2")
    _check_m(m, hi=8, where="frac_rep_prop2")
    lhs = quad.integrate_finite(
        lambda us: kernels.hz_route_panel(m, float(k), us),
        0.0,
        1.0,
        rel_tol=1e-11,
        abs_tol=1e-9,
    )
    return lhs, _prop2_rhs(m, k)


def _prop2_rhs(m, k):
    """k^(-m-1) sum_{j<k} integral_0^inf ({x}+j)^m/(x+j+1)^(m+1) dx, the
    right side of frac_rep_prop2 (j = 0 is its w-integral, w = x + 1).
    Each term is a polynomial in the fractional part over a power, so it
    goes to the sawtooth integrator and never to the Hurwitz-zeta kernel."""
    total = quad.QuadResult(0.0, 0.0, 0, True)
    for j in range(k):
        row = [math.comb(m, i) * float(j) ** (m - i) for i in range(m + 1)]
        total = total + quad.integrate_unit_split(row, ((j + 1.0, m + 1.0),))
    return total.scaled(float(k) ** (-(m + 1.0)))


# ----------------------------------------------------- moment integrals


def _delta_quadrature(square):
    f = quad.pointwise((lambda x: delta(x) ** 2) if square else delta)
    split = _ddarith.X_MAX  # keep the Taylor seam on a panel edge
    return quad.integrate_finite(f, 0.0, split) + quad.integrate_finite(f, split, 1.0)


def _alternating_zeta_sum():
    """S = sum_{k>=2} (-1)^k zeta(k)/k^2 via the split zeta = 1 + (zeta-1):
    the pure part sums to 1 - pi^2/12 and the remainder decays like 2^-k."""
    acc = 1.0 - math.pi**2 / 12.0
    for k in range(2, K_MAX + 1):
        term = CONSTANTS.zeta_minus_one_values[k] / (k * k)
        acc += term if k % 2 == 0 else -term
    return acc


def integral_delta():
    """integral_0^1 D(x) dx three independent ways.

    Returns (quadrature, series, ei_form): adaptive quadrature of D; the
    alternating zeta series -gamma + sum (-1)^k zeta(k)/k^2; and
    -gamma - integral_0^inf [gamma - t + Gamma(0,t) + ln t]/(t(e^t-1)) dt.
    """
    quadrature = _delta_quadrature(False)
    series = -CONSTANTS.euler_gamma + _alternating_zeta_sum()
    big_t = 40.0

    def integrand(t):
        if t <= 0.0:
            return -0.25
        return kernels.ei_defect(t) / (t * math.expm1(t))

    r = quad.integrate_finite(
        quad.pointwise(integrand), 0.0, big_t, rel_tol=1e-12, abs_tol=1e-16
    )
    tail_bound = 1.1 * math.exp(-big_t)
    ei_form = quad.QuadResult(
        -CONSTANTS.euler_gamma - r.value,
        r.abs_err_est + tail_bound,
        r.n_evals,
        r.converged,
    )
    return quadrature, series, ei_form


def _log_series_double_sum():
    """T = sum_{k,l>=2} (-1)^(k+l) zeta(k) zeta(l) / (k l (k+l-1)).

    Split zeta = 1 + z with z_k = zeta(k)-1 (geometric tails):
      pure 1*1 part   = integral_0^1 (1 - ln(1+x)/x)^2 dx = 1 - 2 ln(2)^2,
      cross terms     = 2 sum_l (-1)^l z_l c_l / l  with
                        c_l = [(1 - ln 2) - A_l]/(l - 1),
                        A_l = sum_{k>=2} (-1)^k/(k+l-1),
      z*z part        = direct double sum, truncated at K_MAX.
    """
    ln2 = CONSTANTS.ln_2
    t11 = 1.0 - 2.0 * ln2 * ln2
    zmo = CONSTANTS.zeta_minus_one_values
    # A_l by the alternating-harmonic tail: sum_{i>l}(-1)^i/i = -ln2 - sum_{i<=l}(-1)^i/i
    cross = 0.0
    partial = 0.0
    for i in range(1, K_MAX + 1):
        partial += (1.0 if i % 2 == 0 else -1.0) / i
        l = i
        if l >= 2:
            a_l = (1.0 if (l + 1) % 2 == 0 else -1.0) * (-ln2 - partial)
            c_l = ((1.0 - ln2) - a_l) / (l - 1.0)
            term = zmo[l] * c_l / l
            cross += term if l % 2 == 0 else -term
    tzz = 0.0
    for k in range(2, K_MAX + 1):
        for l in range(2, K_MAX + 1):
            term = zmo[k] * zmo[l] / (k * l * (k + l - 1.0))
            tzz += term if (k + l) % 2 == 0 else -term
    return t11 + 2.0 * cross + tzz


def integral_delta_squared():
    """integral_0^1 D(x)^2 dx by quadrature and by the double zeta series

      gamma^2 - 2 gamma sum_{k>=2} (-1)^k zeta(k)/k^2
        + sum_{m>=4} ((-1)^m/(m-1)) sum_{l=2}^{m-2} zeta(m-l) zeta(l) / ((m-l) l).

    The series is evaluated by an exact regrouping (zeta = 1 + (zeta-1),
    see _log_series_double_sum) because the printed triangular truncation
    converges only algebraically; the regrouped tails are geometric.
    """
    quadrature = _delta_quadrature(True)
    g = CONSTANTS.euler_gamma
    series = g * g - 2.0 * g * _alternating_zeta_sum() + _log_series_double_sum()
    return quadrature, series


# ------------------------------------------------------ residual checks


def recurrence_residual(m, x):
    """Residual of the order-lowering recurrence

        (-1)^(m-1) D^(m)(x)/m! = (-1)^(m-2) D^(m-1)(x)/((m-1)! x)
                                  - zeta(m, x+1)/(m x)

    with both derivatives computed by CLOSED, which the point names."""
    _check_m(m, lo=2, where="recurrence_residual")
    if x == 0.0:
        raise ValueError("recurrence_residual: need x != 0")
    hi = delta_deriv(m, x, Route.CLOSED)
    lo = delta_deriv(m - 1, x, Route.CLOSED)
    lhs = _sign_for(m) * hi.value / math.factorial(m)
    rhs = _sign_for(m - 1) * lo.value / (math.factorial(m - 1) * x) - kernels.hurwitz_zeta(
        float(m), x + 1.0
    ) / (m * x)
    return IdentityResidual.build(
        "recurrence",
        {"m": m, "x": x, "base": Route.CLOSED.value},
        lhs,
        rhs,
        1e-9,
        relative_to=1e-300,
    )


def check_complete_monotonicity(m_max, grid):
    """Certify (-1)^(m-1) D^(m)(x) > 0 numerically on a grid.

    Every (x, m) pair is evaluated by the default route, and the signed
    value must exceed its own error estimate, so the point is positive
    whatever the error within that estimate; a value inside its estimate,
    of either sign, certifies nothing and fails.  Failures become failed
    report entries rather than exceptions.
    """
    _check_m(m_max, "m_max", where="check_complete_monotonicity")
    report = VerificationReport(suite="monotonicity")
    for x in grid:
        for m in range(1, m_max + 1):
            r = delta_deriv(m, x)
            signed = _sign_for(m) * r.value
            report.add(
                IdentityResidual(
                    identity="sign",
                    point={"m": m, "x": x},
                    lhs=signed,
                    rhs=0.0,
                    residual=signed,
                    tolerance=r.abs_err_est,
                    passed=signed > r.abs_err_est,
                )
            )
    return report
