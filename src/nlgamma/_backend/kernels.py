"""Scalar kernels.

These are the hot primitives everything else is built on: log-gamma,
digamma, Hurwitz zeta via Euler-Maclaurin, the integer-order upper
incomplete gamma, fractional-part helpers and a few fused integrands
that quadrature loops evaluate millions of times.  Each route integrand
has a panel form, taking a list of nodes and returning their values, that
quad.integrate_finite calls once per panel; it looks up the constants
that depend on m (or s) alone once, from a small cache, and the scalar
form is the panel form at one node.

zeta(k) and Euler's gamma come from the generated table in `_ddconsts`,
the only one in the package; the Taylor form of ln Gamma around 1 and 2
reads it.  The Hurwitz-zeta kernel computes its values on its own, so
checking it against the table is not circular.  Compensated sums go
through `math.fsum`.  `specfun` re-exports log-gamma, Hurwitz zeta and
the incomplete gamma as they are, so their domain checks here are the
only ones.
"""

from __future__ import annotations

import functools
import math

from .._ddconsts import EULER_GAMMA_DD, ZETA_DD

__all__ = [
    "EULER_GAMMA",
    "digamma",
    "ei_defect",
    "frac",
    "gamma_zero_series",
    "hurwitz_zeta",
    "hz_route_integrand",
    "hz_route_panel",
    "hz_route_reflected_panel",
    "laplace_integrand",
    "laplace_panel",
    "laplace_tail_weight",
    "ln_gamma",
    "ln_gamma_taylor",
    "p1",
    "trunc_exp_factor",
    "upper_incomplete_gamma_int",
]

EULER_GAMMA = EULER_GAMMA_DD[0]

_LN_SQRT_TWO_PI = 0.9189385332046727418

# math.exp(-y) is 0.0 for every y above this
_EXP_UNDERFLOW = 745.2

# B_{2i} for 2i = 2..30 as exact rationals, rendered once to doubles.
_BERNOULLI = (
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
    (-3617, 510), (43867, 798), (-174611, 330), (854513, 138),
    (-236364091, 2730), (8553103, 6), (-23749461029, 870),
    (8615841276005, 14322),
)

# B_{2i} / (2i)!  -- Euler-Maclaurin correction weights.
_B2I_OVER_FACT = tuple(
    p / (q * math.factorial(2 * i + 2)) for i, (p, q) in enumerate(_BERNOULLI)
)

# B_{2i} / ((2i)(2i-1))  -- Stirling series coefficients.
_B2I_STIRLING = tuple(
    p / (q * (2 * i + 2) * (2 * i + 1)) for i, (p, q) in enumerate(_BERNOULLI)
)

# B_{2i} / (2i)  -- digamma asymptotic coefficients.
_B2I_DIGAMMA = tuple(p / (q * (2 * i + 2)) for i, (p, q) in enumerate(_BERNOULLI))

# (zeta(k) - s)/k for s = 0, 1 and k >= 2: the Taylor coefficients of
# ln Gamma around 1 and 2, from the table (hi - s is exact).
_LGAMMA_TAYLOR = tuple(
    tuple(((hi - s) + lo) / k for k, (hi, lo) in enumerate(ZETA_DD) if k >= 2)
    for s in (0, 1)
)


def frac(x):
    """Fractional part x - floor(x), in [0, 1)."""
    return x - math.floor(x)


def p1(x):
    """Sawtooth frac(x) - 1/2, the first periodized Bernoulli polynomial."""
    return x - math.floor(x) - 0.5


@functools.lru_cache(maxsize=64, typed=True)
def _zeta_coefs(s):
    """B_2i/(2i)! s (s+1) ... (s+2i-2) for i = 1..15: the Euler-Maclaurin
    coefficients of hurwitz_zeta at s, which multiply z^(-s-2i+1).  Typed:
    an int s multiplies its Pochhammer products exactly, a float s rounds
    them."""
    if s <= 1.0:
        raise ValueError(f"hurwitz_zeta: need s > 1, got {s}")
    coefs = []
    poch = s
    for i in range(15):
        coefs.append(_B2I_OVER_FACT[i] * poch)
        poch *= (s + 2 * i + 1) * (s + 2 * i + 2)
    return tuple(coefs)


def _zeta_sum(s, coefs, a):
    """hurwitz_zeta(s, a), given _zeta_coefs(s)."""
    if a <= 0.0:
        raise ValueError(f"hurwitz_zeta: need a > 0, got {a}")
    n = max(0, math.ceil(10.0 + s - a))
    z = a + n
    total = (
        math.fsum([(a + k) ** (-s) for k in range(n)])
        + z ** (1.0 - s) / (s - 1.0)
        + 0.5 * z ** (-s)
    )
    zpow = z ** (-s - 1.0)
    z2 = z * z
    for coef in coefs:
        term = coef * zpow
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
        zpow /= z2
    return total


def hurwitz_zeta(s, a):
    """Hurwitz zeta(s, a) = sum_{k>=0} (a+k)^(-s) for s > 1, a > 0.

    Euler-Maclaurin: N = max(0, ceil(10 + s - a)) terms summed directly,
    then the integral and half terms at a+N plus Bernoulli corrections
    through B_30.  a + N >= 10 + s keeps the corrections converging as
    fast as anywhere, and for a >= 10 + s the direct sum is empty.
    Relative error is ~1e-14 over s in [1.5, 60], a in (0, 1e6]; extreme
    corners (tiny a with huge s) can over/underflow double range.  The
    coefficients that depend on s alone are cached for the last 64 s.
    """
    return _zeta_sum(s, _zeta_coefs(s), a)


def ln_gamma_taylor(s, t):
    """ln Gamma(1+s+t)/t for s in {0, 1} and |t| <= 0.5; s - gamma at t = 0.

    ln Gamma(1+s+t) = (s - gamma) t + sum_{k>=2} (-1)^k (zeta(k) - s) t^k/k,
    the Taylor form around the zeros of ln Gamma at 1 and 2.  Dividing by
    t gives D(t) = ln Gamma(1+t)/t directly for s = 0.  s - gamma and the
    coefficients (zeta(k) - s)/k are rounded from the double-double table.
    """
    acc = 0.0
    tk = -1.0
    for coef in _LGAMMA_TAYLOR[s]:
        tk *= -t  # (-1)^k t^(k-1)
        term = coef * tk
        acc += term
        if abs(term) <= 1e-18 * (abs(acc) + 1e-300):
            break
    return ((s - EULER_GAMMA_DD[0]) - EULER_GAMMA_DD[1]) + acc


def _stirling_lgam(z):
    # z >= 8; Bernoulli terms through B_20 leave remainder ~1e-18
    acc = 0.0
    zpow = z
    z2 = z * z
    for i in range(10):
        acc += _B2I_STIRLING[i] / zpow
        zpow *= z2
    return (z - 0.5) * math.log(z) - z + _LN_SQRT_TWO_PI + acc


def ln_gamma(x):
    """ln Gamma(x) for x > 0.

    Taylor series around the zeros at 1 and 2 on [0.5, 2.5], which keeps
    the *relative* error small where ln Gamma itself crosses zero; below,
    ln Gamma(x) = ln Gamma(x+1) - ln x.  On (2.5, 8) the argument is
    shifted down into (1.5, 2.5] by ln Gamma(x) = ln Gamma(x-k) +
    ln((x-1)...(x-k)): the product is at least x - 1 > 1.5, so nothing
    cancels (an upward shift to Stirling's range would subtract logs of
    about the size of the result).  Stirling from 8 on.
    """
    if x <= 0.0:
        raise ValueError(f"ln_gamma: need x > 0, got {x}")
    if 0.5 <= x < 1.5:
        return (x - 1.0) * ln_gamma_taylor(0, x - 1.0)
    if x < 0.5:
        return x * ln_gamma_taylor(0, x) - math.log(x)
    if x >= 8.0:
        return _stirling_lgam(x)
    prod = 1.0
    while x > 2.5:
        x -= 1.0  # exact: x < 8
        prod *= x
    return (x - 2.0) * ln_gamma_taylor(1, x - 2.0) + math.log(prod)


def digamma(x):
    """psi(x) = d/dx ln Gamma(x) for x > 0."""
    if x <= 0.0:
        raise ValueError("digamma requires x > 0")
    acc = 0.0
    z = x
    while z < 10.0:
        acc -= 1.0 / z
        z += 1.0
    # psi(z) = ln z - 1/(2z) - sum B_{2i}/(2i z^{2i}),  z >= 10
    inv2 = 1.0 / (z * z)
    zpow = inv2
    tail = 0.0
    for i in range(7):
        tail += _B2I_DIGAMMA[i] * zpow
        zpow *= inv2
    return acc + math.log(z) - 0.5 / z - tail


def upper_incomplete_gamma_int(n, x):
    """Gamma(n+1, x) = n! e^(-x) sum_{m=0}^n x^m/m!, summed by math.fsum."""
    if n < 0:
        raise ValueError(f"upper_incomplete_gamma_int: need n >= 0, got {n}")
    if x < 0.0:
        raise ValueError(f"upper_incomplete_gamma_int: need x >= 0, got {x}")
    if n > 170:
        raise ValueError("upper_incomplete_gamma_int: n too large for double range")
    term = 1.0
    terms = [term]
    for m in range(1, n + 1):
        term *= x / m
        terms.append(term)
    return float(math.factorial(n)) * math.exp(-x) * math.fsum(terms)


@functools.lru_cache(maxsize=64)
def _trunc_exp_plan(m):
    """The m-only part of trunc_exp_factor: 1/(m+1), the series edge
    m + 1 + 2 sqrt(m+1) and the series denominators m + 2, m + 3, ... as
    floats (exact, so y/d is the division by the integer).  Term i of the
    series is at most edge^i/((m+2)...(m+1+i)) of the first; that ratio
    is followed down to 1e-19, so the series, which stops at 1e-18 of its
    sum, is done before the denominators run out (the rounding of 2i
    products cannot close a factor 10)."""
    edge = m + 1 + 2.0 * math.sqrt(m + 1)
    dens = []
    ratio = 1.0
    while ratio > 1e-19:
        dens.append(float(m + 2 + len(dens)))
        ratio *= edge / dens[-1]
    return 1.0 / (m + 1), edge, tuple(dens)


def _trunc_exp(plan, m, y):
    """trunc_exp_factor(m, y) for the m that `plan` was made for."""
    if y < 0.0:
        raise ValueError("trunc_exp_factor requires y >= 0")
    first, edge, dens = plan
    if y == 0.0:
        return first
    if y > _EXP_UNDERFLOW:
        return math.factorial(m) * y ** -(m + 1)
    if y <= edge:
        term = acc = first
        for d in dens:
            term *= y / d
            acc += term
            if term <= 1e-18 * acc:
                break
        return math.exp(-y) * acc
    return (math.factorial(m) - upper_incomplete_gamma_int(m, y)) / y ** (m + 1)


def trunc_exp_factor(m, y):
    """E_m(y) = integral_0^1 u^m e^(-y u) du = [m! - Gamma(m+1, y)] / y^(m+1).

    Up to y = m + 1 + 2 sqrt(m+1) the subtraction is done via the
    all-positive series m! e^(-y) sum_{i>=0} y^i / (i+m+1)!.  Past it,
    Gamma(m+1, y)/m! (a Poisson tail, two deviations out) is small, so the
    closed form loses nothing to cancellation and costs m + 1 terms instead
    of about y.  Once e^(-y) underflows (y > 745.2) Gamma(m+1, y) is 0 and
    the result is m!/y^(m+1).
    """
    return _trunc_exp(_trunc_exp_plan(m), m, y)


def laplace_panel(m, x, nodes):
    """laplace_integrand(m, x, t) at each t in nodes, as a list."""
    plan = _trunc_exp_plan(m)
    at_zero = 0.5 if m == 1 else 0.0
    out = []
    for t in nodes:
        if t <= 0.0:
            out.append(at_zero)
        else:
            em = _trunc_exp(plan, m, x * t)
            out.append(t**m / math.expm1(t) * em)
    return out


def laplace_integrand(m, x, t):
    """t^m / (e^t - 1) * E_m(x t); continuous limit at t = 0.

    Collapsed form of the double integral over (t, u) of
    t^m u^m e^(-x t u) / (e^t - 1): the u-integral is E_m(x t).
    """
    return laplace_panel(m, x, (t,))[0]


def laplace_tail_weight(m, x, big_t):
    """Bound on integral_T^inf of the laplace integrand.

    For t >= T, 1/(e^t - 1) <= e^(-t)/(1 - e^(-T)), and E_m(x t) is at
    most both 1/(m+1) and m!/(x t)^(m+1).  The first gives
    Gamma(m+1, T)/((m+1)(1 - e^(-T))); the second, once x T > m + 1,
    m!/x^(m+1) E_1(T)/(1 - e^(-T)) <= m!/x^(m+1) e^(-T)/(T (1 - e^(-T))).
    The smaller is returned.
    """
    scale = -math.expm1(-big_t)
    bound = upper_incomplete_gamma_int(m, big_t) / ((m + 1) * scale)
    if x * big_t > m + 1:
        decay = math.factorial(m) * x ** -(m + 1) * math.exp(-big_t) / (big_t * scale)
        bound = min(bound, decay)
    return bound


def _exp_integral_series(x, start):
    """sum_{k>=start} (-x)^k/(k k!), stopped past k = x once a term is
    under 1e-18 of the running sum, and then summed by math.fsum."""
    u = 1.0
    for k in range(1, start):
        u *= -x / k
    terms = []
    acc = 0.0
    k = start
    while True:
        u *= -x / k
        term = u / k
        terms.append(term)
        acc += term
        if abs(term) <= 1e-18 * (abs(acc) + 1e-300) and k > x:
            break
        k += 1
    return math.fsum(terms)


def gamma_zero_series(x):
    """Gamma(0, x) by the alternating series -(gamma + ln x + sum (-x)^k/(k k!)).

    Accurate only while the alternating terms stay small; callers switch to
    quadrature once cancellation would eat the 1e-11 budget (x > 5).
    """
    if x <= 0.0:
        raise ValueError("gamma_zero_series requires x > 0")
    return -(EULER_GAMMA + math.log(x) + _exp_integral_series(x, 1))


def _gamma_zero_asymp(x):
    # e^(-x)/x * (1 - 1/x + 2/x^2 - 6/x^3 + 24/x^4), fine for x >= 30
    inv = 1.0 / x
    poly = 1.0 + inv * (-1.0 + inv * (2.0 + inv * (-6.0 + inv * 24.0)))
    return math.exp(-x) / x * poly


def ei_defect(t):
    """gamma - t + Gamma(0, t) + ln t, computed without cancellation.

    Equals -sum_{k>=2} (-t)^k/(k k!); that series is used up to t = 30,
    beyond which Gamma(0, t) is negligible and the direct form is safe.
    """
    if t <= 0.0:
        raise ValueError("ei_defect requires t > 0")
    if t <= 30.0:
        return -_exp_integral_series(t, 2)
    return EULER_GAMMA + math.log(t) - t + _gamma_zero_asymp(t)


def hz_route_panel(m, x, nodes):
    """hz_route_integrand(m, x, u) at each u in nodes, as a list."""
    s = m + 1.0
    coefs = _zeta_coefs(s)
    return [
        0.0 if u <= 0.0 else u**m * _zeta_sum(s, coefs, x * u + 1.0) for u in nodes
    ]


def hz_route_integrand(m, x, u):
    """u^m * zeta(m+1, x*u + 1): the integrand of the moment-integral route."""
    return hz_route_panel(m, x, (u,))[0]


def hz_route_reflected_panel(m, x, nodes):
    """(1-s)^m * zeta(m+1, (1+x) - x s), hz_route_integrand at u = 1 - s,
    at each s in nodes, as a list.

    For -1 < x < 0 the integrand peaks at u = 1, within 1 + x of its
    pole.  Measured from there, a node s near 0 carries only relative
    rounding and 1 + x is exact (Sterbenz), so the zeta argument keeps
    full relative precision however close x is to -1; in u, the rounding
    of a node near 1 would move that argument by 1e-16 absolute.
    """
    coefs = _zeta_coefs(m + 1.0)
    xp1 = 1.0 + x
    return [(1.0 - s) ** m * _zeta_sum(m + 1.0, coefs, xp1 - x * s) for s in nodes]
