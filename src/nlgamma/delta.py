"""The normalized log-gamma function D(x) = ln Gamma(x+1) / x and its
higher derivatives, evaluated by mathematically independent routes that
cross-validate one another:

CLOSED      Leibniz product rule over polygamma values (below |x| = 0.125,
            where the terms cancel, collected by powers of x once per m).
HURWITZ     m! * integral_0^1 u^m zeta(m+1, x u + 1) du, up to sign.
LAPLACE     integral_0^inf t^m/(e^t - 1) E_m(x t) dt (x >= 0).
HYP         Gauss-2F1 representation plus a sawtooth-weighted integral.
RECURRENCE  one-step reduction to order m-1 plus a Hurwitz zeta value.
SERIES      term-wise differentiated Taylor expansion around 0.
ASYMPTOTIC  the large-x leading term, optionally refined by one order.

Also: closed-form special values at x = 1 and x = -1/2, the
fractional-part integral representations, the two moment integrals of D
over [0, 1], and a numerical certificate of the alternating-sign pattern
of the derivatives (complete monotonicity of D').
"""

from __future__ import annotations

import enum
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
    "SERIES_DEFAULT_THRESHOLD",
    "asymptotic_leading",
    "check_complete_monotonicity",
    "default_route",
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
SERIES_DEFAULT_THRESHOLD = _ddarith.X_MAX  # the seam of AUTO and of CLOSED
SERIES_DOMAIN_LIMIT = 0.26  # hard cap; the expansion has radius 1

# Error charged to each double-kernel CLOSED term, relative to its size.
# On 5,000 mpmath draws (m = 1..12, -1 < x <= 1e6, |x| >= 0.125) the worst
# error needed 2.24e-15 of sum |term| (m = 6, x = 0.4691, beside the zero
# of the digamma at 1.4616) after the 2.2e-15 |value| charge; on 3,000
# fresh draws the errors stay under 0.46 of the estimate.
_CLOSED_TERM_REL = 4e-15


class Route(enum.Enum):
    """One of several independent formulas for the same quantity."""

    CLOSED = "CLOSED"
    HURWITZ = "HURWITZ"
    LAPLACE = "LAPLACE"
    HYP = "HYP"
    RECURRENCE = "RECURRENCE"
    SERIES = "SERIES"
    ASYMPTOTIC = "ASYMPTOTIC"


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


def _check_m(m):
    if not 1 <= m <= MAX_DERIV_ORDER:
        raise ValueError(f"domain error: need 1 <= m <= {MAX_DERIV_ORDER}, got {m}")


def delta(x):
    """D(x) = ln Gamma(x+1)/x, extended by continuity to D(0) = -gamma.

    Below |x| = 0.125 the log-gamma kernel's Taylor form gives D directly,
    -gamma + sum_{k>=2} (-1)^k zeta(k) x^(k-1)/k; the two branches agree
    to ~1e-15 at the seam.
    """
    _check_x(x)
    if abs(x) < SERIES_DEFAULT_THRESHOLD:
        return kernels.ln_gamma_taylor(0, x)
    return kernels.ln_gamma(x + 1.0) / x


def default_route(m, x):
    """Route the CLI AUTO mode uses: SERIES near 0, CLOSED elsewhere."""
    del m
    return Route.SERIES if abs(x) < SERIES_DEFAULT_THRESHOLD else Route.CLOSED


# ---------------------------------------------------------------- routes


def _closed(m, x):
    """Leibniz expansion sum_j C(m,j) psi^(m-j-1)(x+1) (-1)^j j!/x^(j+1).

    Below |x| = 0.125 the terms cancel like |x|^-(m+1).  There
    _ddarith.closed_product_rule_dd sums the expansion collected by
    powers of x instead: every negative power has weight 0, and each
    power n >= 0 has one coefficient zeta(n+m+1) B(m, n), from a table
    built once per m, summed by one Horner pass under a proven error
    bound.  It answers down to |x| = 5e-324.  Elsewhere the terms come
    from the double kernels, and each is charged _CLOSED_TERM_REL of its
    size for the kernel, the rounding of x + 1 and x^(j+1), and the
    products; x whose x^(m+1) overflows is refused.
    """
    if x == 0.0:
        raise ValueError("CLOSED route needs x != 0")
    if abs(x) < SERIES_DEFAULT_THRESHOLD:
        value, err = _ddarith.closed_product_rule_dd(m, x)
        return EvalResult(value, err, Route.CLOSED, m + 1)
    terms = []
    xpow = 1.0
    for j in range(m + 1):
        xpow *= x
        order = m - j - 1
        if order == -1:
            psi = kernels.ln_gamma(x + 1.0)
        elif order == 0:
            psi = kernels.digamma(x + 1.0)
        else:
            sign = 1.0 if order % 2 else -1.0
            psi = sign * math.factorial(order) * kernels.hurwitz_zeta(order + 1.0, x + 1.0)
        term = math.comb(m, j) * psi * math.factorial(j) / xpow
        terms.append(-term if j % 2 else term)
    if math.isinf(xpow):
        raise ValueError(
            f"domain error: CLOSED needs x^(m+1) inside the double range, "
            f"got x = {x} at m = {m}"
        )
    value = math.fsum(terms)
    err = 2.2e-15 * abs(value) + _CLOSED_TERM_REL * math.fsum(map(abs, terms))
    return EvalResult(value, err, Route.CLOSED, m + 1)


def _series(m, x):
    """Term-wise differentiated Taylor form, |x| <= 0.26."""
    if abs(x) > SERIES_DOMAIN_LIMIT:
        raise ValueError(
            f"SERIES route needs |x| <= {SERIES_DOMAIN_LIMIT}, got {x}"
        )
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


def _hurwitz(m, x, cfg):
    """(-1)^(m-1) m! integral_0^1 u^m zeta(m+1, x u + 1) du.

    zeta(m+1, x u + 1) has its pole at u = -1/x, and the integrand a
    layer at the end of [0, 1] nearest it: at u ~ 1/x for x > 0, and at
    u = 1 for x < 0, where the integral runs in s = 1 - u instead.  The
    mesh is graded from that end, so bisection need not find the layer
    by itself.  The estimate carries a 2e-15 |value| rounding floor for
    the kernel, the panel sums and the scaling.
    """
    local = quad.QuadConfig(
        rel_tol=min(cfg.rel_tol, 1e-11),
        abs_tol=5e-300,  # integrand is positive: drive purely by rel_tol
        max_subdivisions=cfg.max_subdivisions,
    )
    if x < 0.0:
        pole = (1.0 + x) / x  # where (1 + x) - x s = 0
        f = lambda ss: kernels.hz_route_reflected_panel(m, x, ss)  # noqa: E731
    else:
        pole = -1.0 / x if x else -math.inf  # x = 0: no pole, no mesh
        f = lambda us: kernels.hz_route_panel(m, x, us)  # noqa: E731
    breaks = _graded_mesh(pole, -pole, 1.0)
    r = quad.integrate_finite(f, 0.0, 1.0, local, breaks)
    fact = math.factorial(m)
    value = _sign_for(m) * fact * r.value
    err = fact * r.abs_err_est + 2e-15 * abs(value)
    return EvalResult(value, err, Route.HURWITZ, r.n_evals, r.converged)


def _laplace(m, x, cfg):
    """(-1)^(m-1) integral_0^inf t^m/(e^t-1) E_m(xt) dt for x >= 0.

    E_m(x t) turns from 1/(m+1) to m!/(x t)^(m+1) around t = m/x, so the
    mesh doubles from t = min(m/x, 1) up to T.
    """
    if x < 0.0:
        raise ValueError("LAPLACE route needs x >= 0")
    big_t = 50.0 + m * math.log(50.0)
    local = quad.QuadConfig(
        rel_tol=min(cfg.rel_tol, 1e-12),
        abs_tol=5e-300,
        max_subdivisions=cfg.max_subdivisions,
    )
    first = m / x if x > m else 1.0
    r = quad.integrate_finite(
        lambda ts: kernels.laplace_panel(m, x, ts),
        0.0,
        big_t,
        local,
        _graded_mesh(0.0, first, big_t),
    )
    value = _sign_for(m) * r.value
    err = r.abs_err_est + kernels.laplace_tail_weight(m, x, big_t)
    return EvalResult(value, err, Route.LAPLACE, r.n_evals, r.converged)


def _hyp(m, x, cfg):
    """(1.6)-style assembly: two 2F1 terms minus a sawtooth integral,
    scaled by (-1)^(m-1) m!.  From x = 2^53 on, z = x/(x + 1) rounds to
    1, where the first 2F1 diverges, so such x are refused.

    Only one 2F1 is evaluated: f1 = F(1, m+1; m+2; z) and
    f2 = F(1, m; m+2; z) satisfy f2 = (m+1) - m (1-z) f1 exactly.  For
    z >= 0 f2 comes from f1 by it; for z < 0, where that subtraction
    would cancel, f1 comes from f2 (mpmath: within 5.1e-15 either way,
    under the 1e-14 charge).
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

    p = quad.p1_integral(((1.0, 1.0), (xp1, m + 1.0)), 0.0, cfg)
    fact = math.factorial(m)
    value = _sign_for(m) * fact * (term1 + term2 - p.value)
    err = fact * (p.abs_err_est + 1e-14 * (abs(term1) + abs(term2)))
    err += 4e-16 * abs(value)  # value already carries m!
    return EvalResult(value, err, Route.HYP, p.n_evals + 1, p.converged)


def _recurrence(m, x, cfg, base=Route.CLOSED):
    """D^(m)(x) = -(m/x) D^(m-1)(x) - (-1)^(m-1) (m-1)! zeta(m, x+1)/x."""
    if m < 2:
        raise ValueError("RECURRENCE route needs m >= 2")
    if x == 0.0:
        raise ValueError("RECURRENCE route needs x != 0")
    prev = delta_deriv(m - 1, x, base, cfg)
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
    return EvalResult(value, err, Route.RECURRENCE, prev.n_evals + 1, prev.converged)


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


_ROUTE_IMPL = {
    Route.CLOSED: lambda m, x, cfg: _closed(m, x),
    Route.SERIES: lambda m, x, cfg: _series(m, x),
    Route.HURWITZ: _hurwitz,
    Route.LAPLACE: _laplace,
    Route.HYP: _hyp,
    Route.RECURRENCE: _recurrence,
}


def delta_deriv(m, x, route=None, cfg=quad.DEFAULT_CONFIG):
    """m-th derivative of D at x, by the requested route.

    route=None picks SERIES below |x| = 0.125 and CLOSED elsewhere
    (x = 0 lands on SERIES, whose leading term is the exact value
    (-1)^(m-1) m! zeta(m+1)/(m+1)).
    """
    _check_m(m)
    _check_x(x)
    if route is None:
        route = default_route(m, x)
    if route is Route.ASYMPTOTIC:
        try:
            lead = asymptotic_leading(m, x)
            err = abs(asymptotic_leading(m, x, refine=True) - lead)
        except OverflowError:
            err = math.inf  # (x + 1)^m or (x + 1)^(m + 1) past the double range
        if not math.isfinite(err):
            raise ValueError(
                f"domain error: ASYMPTOTIC leaves the double range at m = {m}, x = {x}"
            )
        return EvalResult(lead, err, Route.ASYMPTOTIC, 2)
    impl = _ROUTE_IMPL.get(route)
    if impl is None:
        raise ValueError(f"unsupported route: {route}")
    return impl(m, x, cfg)


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
    if not 1 <= m <= 10:
        raise ValueError(f"delta_deriv_half_integer: need 1 <= m <= 10, got {m}")
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


def frac_rep_prop2(m, k, cfg=quad.DEFAULT_CONFIG):
    """Both sides of the fractional-part representation

      integral_0^1 u^m zeta(m+1, k u + 1) du
        = k^(-m-1) [ integral_1^inf {w}^m/w^(m+1) dw
                     + sum_{j=1}^{k-1} integral_0^inf ({x}+j)^m/(x+j+1)^(m+1) dx ]

    for integer k >= 1, 1 <= m <= 8.  Returns (lhs, rhs) QuadResults.
    """
    if k < 1:
        raise ValueError("frac_rep_prop2: need k >= 1")
    if not 1 <= m <= 8:
        raise ValueError("frac_rep_prop2: need 1 <= m <= 8")
    lhs = quad.integrate_finite(
        lambda us: kernels.hz_route_panel(m, float(k), us), 0.0, 1.0, cfg
    )
    return lhs, _prop2_rhs(m, k, cfg)


def _prop2_rhs(m, k, cfg):
    """k^(-m-1) sum_{j<k} integral_0^inf ({x}+j)^m/(x+j+1)^(m+1) dx, the
    right side of frac_rep_prop2 (j = 0 is its w-integral, w = x + 1).
    Each term is a polynomial in the fractional part over a power, so it
    goes to the sawtooth integrator and never to the Hurwitz-zeta kernel."""
    total = quad.QuadResult(0.0, 0.0, 0, True)
    for j in range(k):
        row = [math.comb(m, i) * float(j) ** (m - i) for i in range(m + 1)]
        total = total + quad.integrate_unit_split(row, ((j + 1.0, m + 1.0),), 0.0, cfg)
    return total.scaled(float(k) ** (-(m + 1.0)))


# ----------------------------------------------------- moment integrals


def _delta_quadrature(square):
    f = quad.pointwise((lambda x: delta(x) ** 2) if square else delta)
    split = SERIES_DEFAULT_THRESHOLD  # keep the series seam on a panel edge
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
    local = quad.QuadConfig(rel_tol=1e-12, abs_tol=1e-16, max_subdivisions=800)
    big_t = 40.0

    def integrand(t):
        if t <= 0.0:
            return -0.25
        return kernels.ei_defect(t) / (t * math.expm1(t))

    r = quad.integrate_finite(quad.pointwise(integrand), 0.0, big_t, local)
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


def recurrence_residual(m, x, base=Route.CLOSED):
    """Residual of the order-lowering recurrence

        (-1)^(m-1) D^(m)(x)/m! = (-1)^(m-2) D^(m-1)(x)/((m-1)! x)
                                  - zeta(m, x+1)/(m x)

    with both derivatives computed via `base`."""
    if not 2 <= m <= MAX_DERIV_ORDER:
        raise ValueError(f"recurrence_residual: need 2 <= m <= {MAX_DERIV_ORDER}")
    _check_x(x)
    if x == 0.0:
        raise ValueError("recurrence_residual: need x != 0")
    hi = delta_deriv(m, x, base)
    lo = delta_deriv(m - 1, x, base)
    lhs = _sign_for(m) * hi.value / math.factorial(m)
    rhs = _sign_for(m - 1) * lo.value / (math.factorial(m - 1) * x) - kernels.hurwitz_zeta(
        float(m), x + 1.0
    ) / (m * x)
    return IdentityResidual.build(
        "recurrence",
        {"m": m, "x": x, "base": base.value},
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
    if not 1 <= m_max <= MAX_DERIV_ORDER:
        raise ValueError(f"check_complete_monotonicity: need m_max <= {MAX_DERIV_ORDER}")
    report = VerificationReport(suite="monotonicity")
    for x in grid:
        _check_x(x)
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
