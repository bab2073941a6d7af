"""Scalar kernels.

These are the hot primitives everything else is built on: log-gamma,
digamma, Hurwitz zeta via Euler-Maclaurin (below a = 2 from Taylor
tables built from it), the integer-order upper incomplete gamma,
the sawtooth p1 and a few fused integrands that quadrature
loops evaluate millions of times.  Each route integrand
has a panel form, taking a list of nodes and returning their values, that
quad.integrate_finite calls once per panel; it looks up the constants
that depend on m (or s) alone once, from a small cache, and loops over
the nodes itself.  The scalar forms, hurwitz_zeta and trunc_exp_factor
among them, are those loops at one node.  The Hurwitz-zeta, E_m and ln
Gamma Taylor sums fix their length before summing, from a proven bound
on what they leave out (under 2^-60 of the value), and are Horner passes
with no test per term.

zeta(k) and Euler's gamma come from the generated table in `_ddconsts`,
the only one in the package; the Taylor form of ln Gamma around 1 and 2
reads it.  The Hurwitz-zeta kernel computes its values, Taylor tables
included, on its own, so checking it against the table is not
circular.  Compensated sums go through `math.fsum`.  `specfun`
re-exports log-gamma, Hurwitz zeta and the incomplete gamma as they
are, so their domain checks here are the only ones.
"""

from __future__ import annotations

import bisect
import functools
import math

from .._ddconsts import EULER_GAMMA_DD, ZETA_DD

__all__ = [
    "EULER_GAMMA",
    "digamma",
    "ei_defect",
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
_LN_2 = math.log(2.0)
_ZETA_2 = math.pi**2 / 6.0

# math.exp(-y) is 0.0 for every y above this
_EXP_UNDERFLOW = 745.2

# What hurwitz_zeta, trunc_exp_factor and ln_gamma_taylor may leave out
# of their values: each truncates its sum where a proven bound on the rest
# is below this fraction of the value, far under the rounding of the sum.
_TRUNC_REL = 2.0**-60

# B_{2i} for 2i = 2..30 as exact rationals, rendered once to doubles.
_BERNOULLI = (
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
    (-3617, 510), (43867, 798), (-174611, 330), (854513, 138),
    (-236364091, 2730), (8553103, 6), (-23749461029, 870),
    (8615841276005, 14322),
)

# B_{2i} / (2i)! as (numerator, denominator)  -- Euler-Maclaurin weights.
_B2I_OVER_FACT = tuple(
    (p, q * math.factorial(2 * i + 2)) for i, (p, q) in enumerate(_BERNOULLI)
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


def p1(x):
    """Sawtooth frac(x) - 1/2, the first periodized Bernoulli polynomial."""
    return x - math.floor(x) - 0.5


def _geometric_limit(room, n, c):
    """The largest y (or a little less) with y^n/(1 - y/c) <= e^room.

    That is the fixed point of y = g(y) = (e^room (1 - y/c))^(1/n).  g
    falls as y rises and y_0 = e^(room/n) lies above the fixed point, so
    g(y_0) and g(g(g(y_0))) lie below it: the latter is returned, lowered
    by 1e-12 of itself against its rounding.
    """
    base = room / n
    y = math.exp(base)
    for _ in range(3):
        y = math.exp(base + math.log1p(-y / c) / n)
    return y * (1.0 - 1e-12)


@functools.lru_cache(maxsize=64)
def _zeta_plan(s):
    """What hurwitz_zeta needs of s alone: (z_top, limits, horners, s - 1).

    The Euler-Maclaurin coefficient of z^(-(s+2k-1)) is
    c_k = B_2k/(2k)! (s)_(2k-1), rounded once from exact rationals.
    After M of them, Johansson's bound (arXiv:1309.2877, Theorem 1; DLMF
    25.11) on the remainder at z = a + N, 4 (s)_2M/(2 pi)^2M
    z^(-(s+2M-1))/(s+2M-1), divided by the lower bound z^(1-s)/(s-1) on
    zeta(s, a), is the relative bound 4 (s)_2M (s-1)/((2 pi)^2M (s+2M-1))
    z^(-2M).  z_M, the z from which it is below _TRUNC_REL, is taken in
    log space and raised by 1e-12 of itself against its rounding.
    limits holds z_15, z_14, ..., z_1, each raised to the one before if
    need be so that they ascend; z_top = z_15.  horners[j] holds the
    coefficients for M = 16 - j, highest first (horners[0] also M = 15,
    for a z rounded an ulp short of z_15).
    """
    if s <= 1.0:
        raise ValueError(f"hurwitz_zeta: need s > 1, got {s}")
    # (s)_(2k-1) = num/den exactly, with s = s_num/s_den; int / int
    # rounds once
    s_num, s_den = s.as_integer_ratio()
    num, den = s_num, s_den
    coefs = []
    for k, (p, q) in enumerate(_B2I_OVER_FACT, 1):
        coefs.append(p * num / (q * den))
        num *= (s_num + (2 * k - 1) * s_den) * (s_num + 2 * k * s_den)
        den *= s_den * s_den
    log_target = math.log(_TRUNC_REL)
    log_head = math.log(4.0 * (s - 1.0)) - math.lgamma(s)
    limits = []
    for big_m in range(len(coefs), 0, -1):
        log_bound = (
            log_head
            + math.lgamma(s + 2 * big_m)
            - 2 * big_m * math.log(2.0 * math.pi)
            - math.log(s + 2 * big_m - 1.0)
        )
        z_m = math.exp((log_bound - log_target) / (2 * big_m)) * (1.0 + 1e-12)
        limits.append(max(z_m, limits[-1]) if limits else z_m)
    horners = [tuple(reversed(coefs))]
    horners += [tuple(reversed(coefs[:big_m])) for big_m in range(len(coefs), 0, -1)]
    return limits[0], tuple(limits), tuple(horners), s - 1.0


# The Taylor path covers 0 < a < 2 for s up to here.  Its table holds
# about s/2 + 20 coefficients a centre (30 at s = 13, 55 at s = 64), each
# from its own Euler-Maclaurin plan, so its build grows like s^2 (3 ms at
# s = 2, 11 ms at s = 64); past this s every a keeps to Euler-Maclaurin.
_TAYLOR_S_MAX = 64.0


@functools.lru_cache(maxsize=64)
def _zeta_taylor(s):
    """The Taylor path's table for s: for each eighth j = 0..7 of [1, 2),
    the coefficients T_k = (s)_k/k! zeta(s+k, c), highest k first, of
    zeta(s, c - h) = sum_k T_k h^k about the eighth's right end
    c = 1 + (j+1)/8, where 0 < h <= 1/8 (DLMF 25.11.17).

    Every term is positive, and zeta(s+k, c) <= c^-k zeta(s, c), so
    term k is at most b_k = (s)_k/k! q^k of zeta(s, c), q = h/c, and
    b_(k+1)/b_k = r_k = (s+k)/(k+1) q falls with k.  At q = 1/(8c) the
    first K terms are kept, K the fewest with r_K < 1 and
    b_K/(1 - r_K) < _TRUNC_REL: the rest is under that fraction of
    zeta(s, c) <= zeta(s, c - h).  zeta(s+k, c) is c^-s c^-k plus the
    Euler-Maclaurin path at c + 1, which reaches no table.  For s not an
    integer, s + k may round (by up to 2^-47 near s = 64, which would
    cost up to 40 ulps in c^-(s+k)); c^-s c^-k keeps the exponent
    exact, and only the smaller zeta(s+k, c + 1) sees the rounding.
    (s)_k/k! is exact, and each product with it is rounded once.
    """
    s_num, s_den = s.as_integer_ratio()
    centres = [(j + 9) * 0.125 for j in range(8)]
    sizes = []
    for c in centres:
        q = 0.125 / c
        bound, k = 1.0, 0
        while True:
            ratio = (s + k) / (k + 1) * q
            if ratio < 1.0 and bound < _TRUNC_REL * (1.0 - ratio):
                break
            bound *= ratio
            k += 1
        sizes.append(k)
    num, den = 1, 1
    coefs = [[] for _ in sizes]
    for k in range(max(sizes)):
        t = s + k
        shifted = _zeta_values(t, _zeta_plan(t), [c + 1.0 for c in centres])
        for j, size in enumerate(sizes):
            if k < size:
                c = centres[j]
                z_num, z_den = (c**-s * c**-k + shifted[j]).as_integer_ratio()
                coefs[j].append(num * z_num / (den * z_den))
        num *= s_num + k * s_den
        den *= (k + 1) * s_den
    return tuple(tuple(reversed(c)) for c in coefs)


def _zeta_values(s, plan, args):
    """hurwitz_zeta(s, a) at each a in args, given _zeta_plan(s), as a list."""
    top, limits, horners, sm1 = plan
    neg_s = -s
    low = 2.0 if s <= _TAYLOR_S_MAX else 0.0  # below it, the Taylor path
    taylor = None
    ceil, fsum, count = math.ceil, math.fsum, bisect.bisect_right
    out = []
    for a in args:
        if not a > 0.0:
            raise ValueError(f"hurwitz_zeta: need a > 0, got {a}")
        if a < low:
            if taylor is None:
                taylor = _zeta_taylor(s)
            # zeta(s, a) = a^-s + zeta(s, 1 + a) for a < 1; b = a' - 1
            # for the a' in [1, 2) evaluated, and a - 1 is exact
            if a < 1.0:
                b, head = a, a**neg_s
            else:
                b, head = a - 1.0, 0.0
            j = int(b * 8.0)
            h = (j + 1) * 0.125 - b
            p = 0.0
            for c in taylor[j]:
                p = p * h + c
            out.append(head + p)
            continue
        n = ceil(top - a)
        if n > 0:
            terms = [(a + k) ** neg_s for k in range(n)]
            z = a + n
        else:
            terms = []
            z = a
        w = 1.0 / z
        w2 = w * w
        h = 0.0
        for c in horners[count(limits, z)]:
            h = h * w2 + c
        zs1 = z ** (1.0 - s)
        terms.append(zs1 / sm1 + zs1 * w * (0.5 + w * h))
        out.append(fsum(terms))
    return out


def hurwitz_zeta(s, a):
    """Hurwitz zeta(s, a) = sum_{k>=0} (a+k)^(-s) for s > 1, a > 0.

    Two paths, chosen by a alone, with the seam at a = 2 (for s <= 64;
    larger s always takes the second):

    - a < 2, Taylor: for a < 1, a^-s is added and a + 1 evaluated (its
      offset from the eighth's end is taken from a, so 1 + a is never
      rounded).  [1, 2) is split into
      eighths, and zeta(s, c - h) = sum_k (s)_k/k! zeta(s+k, c) h^k is
      summed by Horner about the eighth's right end c, 0 < h <= 1/8.
      Every term is positive, and the series is cut where a geometric
      bound on the rest is under 2^-60 of zeta(s, c) (17 to 21 terms at
      s = 2, 23 to 30 at s = 13).  The coefficients are built per s on
      first use from the Euler-Maclaurin path (_zeta_taylor).
    - a >= 2, Euler-Maclaurin at z = a + N: the N terms before z summed
      directly, then z^(1-s)/(s-1) + z^(-s)/2 and M Bernoulli
      corrections through at most B_30, summed by Horner in 1/z^2.  N
      and M come from Johansson's remainder bound (see _zeta_plan)
      before anything is summed: N = max(0, ceil(z_15 - a)) is the
      fewest direct terms after which 15 corrections leave out under
      2^-60 of the value (z_15 = 8.0, 12.3 and 16.6 at s = 2, 7, 13),
      and M is the fewest corrections that do so at that z.

    The rest is rounding, charged as (s + 4) ulps of the value in
    tests/test_panels.py.  On Euler-Maclaurin, a + k rounds within an
    ulp, which moves (a + k)^(-s) by up to s ulps, and the powers, the
    Horner tail and the final math.fsum add a few more (mpmath: at most
    3.4 ulps for s <= 13, 10 at s = 60 next to a power of 2).  On the
    Taylor path, each coefficient is within a few ulps and the Horner sum
    of positive terms adds little (mpmath, 11,000 draws: at most 2.9
    ulps for s <= 13, 3.3 for s <= 64, and 0.32 of the charge).
    Tiny a with large s can overflow the double range.  The plan and the
    Taylor table for the last 64 s are cached.
    """
    return _zeta_values(s, _zeta_plan(s), (a,))[0]


def _taylor_plan(s, lower):
    """(limits, horners) for ln_gamma_taylor at s, given a lower bound on
    |ln Gamma(1+s+t)/t| over the t it is used at.

    horners[j] holds c_2, ..., c_K, c_k = (zeta(k) - s)/k and K = j + 2,
    highest first; limits[j] is the largest |t| (or a little less) at
    which the terms after c_K sum to under _TRUNC_REL of that bound.  For
    k > K, |c_k| <= zeta(2)/(K+1) (s = 0) or 3 2^-k/(K+1) (s = 1, as
    zeta(k) - 1 <= 2^-k (1 + 2/(k-1))), so those terms sum to at most
    zeta(2)/(K+1) |t|^K/(1 - |t|), or 3 2^-(K+1)/(K+1) |t|^K/(1 - |t|/2).
    """
    coefs = _LGAMMA_TAYLOR[s]
    limits = []
    for top in range(2, len(coefs) + 2):
        if s == 0:
            log_size, ratio = math.log(_ZETA_2 / (top + 1)), 1.0
        else:
            log_size, ratio = math.log(3.0 / (top + 1)) - (top + 1) * _LN_2, 2.0
        room = math.log(_TRUNC_REL * lower) - log_size
        limits.append(_geometric_limit(room, top, ratio))
    horners = tuple(tuple(reversed(coefs[: j + 1])) for j in range(len(coefs)))
    return tuple(limits), horners


# |ln Gamma(1+t)/t| >= 0.24 for |t| <= 0.5, |ln Gamma(2+t)/t| >= 0.17 for
# -0.65 <= t <= 0.5: the ranges ln_gamma and delta use.
_LGAMMA_PLANS = (_taylor_plan(0, 0.24), _taylor_plan(1, 0.17))


def ln_gamma_taylor(s, t):
    """ln Gamma(1+s+t)/t for s = 0 and |t| <= 0.5, or s = 1 and
    -0.65 <= t <= 0.5; s - gamma at t = 0.

    ln Gamma(1+s+t) = (s - gamma) t + sum_{k>=2} (-1)^k (zeta(k) - s) t^k/k,
    the Taylor form around the zeros of ln Gamma at 1 and 2.  Dividing by
    t gives D(t) = ln Gamma(1+t)/t directly for s = 0.  s - gamma and the
    coefficients (zeta(k) - s)/k are rounded from the double-double table.
    The sum is one Horner pass in -t over the fewest coefficients whose
    omitted rest is proven under 2^-60 of the value (_taylor_plan); a
    running sum from the largest term lost up to 8 ulps near t = -0.5
    with s = 1, where the sum is about half of 1 - gamma.  Past the range
    above every coefficient of the table is used.
    """
    limits, horners = _LGAMMA_PLANS[s]
    u = -t
    p = 0.0
    for c in horners[min(bisect.bisect_left(limits, abs(t)), len(horners) - 1)]:
        p = p * u + c
    return ((s - EULER_GAMMA_DD[0]) - EULER_GAMMA_DD[1]) - u * p


def _stirling_lgam(z):
    # z >= 8; Bernoulli terms through B_20 leave remainder ~1e-18
    acc = 0.0
    zpow = z
    z2 = z * z
    for i in range(10):
        acc += _B2I_STIRLING[i] / zpow
        zpow *= z2
    return (z - 0.5) * math.log(z) - z + _LN_SQRT_TWO_PI + acc


# Where ln_gamma's expansion point moves from 1 to 2.  On 30,000 mpmath
# points over [1.2, 1.5), in ulps of D(x - 1): 2.9 with the seam here, 3.4
# with the seam at 1.5 (both Horner sums).
_LGAMMA_SEAM = 1.4


def ln_gamma(x):
    """ln Gamma(x) for x > 0.

    Taylor series around the zeros at 1 and 2 on [0.5, 2.5], split at
    1.4, which keeps the *relative* error small where ln Gamma itself
    crosses zero; below,
    ln Gamma(x) = ln Gamma(x+1) - ln x.  On (2.5, 8) the argument is
    shifted down into (1.5, 2.5] by ln Gamma(x) = ln Gamma(x-k) +
    ln((x-1)...(x-k)): the product is at least x - 1 > 1.5, so nothing
    cancels (an upward shift to Stirling's range would subtract logs of
    about the size of the result).  Stirling from 8 on.
    """
    if x <= 0.0:
        raise ValueError(f"ln_gamma: need x > 0, got {x}")
    if 0.5 <= x < _LGAMMA_SEAM:
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


@functools.lru_cache(maxsize=64)
def _inv_factorials(n):
    """(1/n!, ..., 1/1!, 1/0!), each correctly rounded: _exp_partial_sum's
    coefficients, highest power first."""
    return tuple(1 / math.factorial(i) for i in range(n, -1, -1))


def _exp_partial_sum(coefs, y):
    """e^(-y) sum_{i<=n} y^i/i!, one Horner pass, given _inv_factorials(n)."""
    acc = 0.0
    for c in coefs:
        acc = acc * y + c
    return math.exp(-y) * acc


def upper_incomplete_gamma_int(n, x):
    """Gamma(n+1, x) = n! e^(-x) sum_{m=0}^n x^m/m!, the sum by Horner."""
    if n < 0:
        raise ValueError(f"upper_incomplete_gamma_int: need n >= 0, got {n}")
    if x < 0.0:
        raise ValueError(f"upper_incomplete_gamma_int: need x >= 0, got {x}")
    if n > 170:
        raise ValueError("upper_incomplete_gamma_int: n too large for double range")
    return float(math.factorial(n)) * _exp_partial_sum(_inv_factorials(n), x)


def _series_limit(m, n):
    """The largest y (or a little less) at which n terms of
    trunc_exp_factor's series leave out under _TRUNC_REL of it.

    Term i is y^i/((m+1)...(m+1+i)) and each is at most y/(m+2+n) times
    the one before from term n on, so the terms left out sum to at most
    y^n/((m+2)...(m+1+n)) / (1 - y/(m+2+n)) times term 0, itself at most
    the sum.
    """
    room = math.log(_TRUNC_REL) + math.lgamma(m + 2.0 + n) - math.lgamma(m + 2.0)
    return _geometric_limit(room, n, m + 2.0 + n)


@functools.lru_cache(maxsize=64)
def _trunc_exp_plan(m):
    """The m-only part of trunc_exp_factor: (m!, m + 1, edge, limits,
    coefs, _inv_factorials(m)).

    edge = m + 1 + 2 sqrt(m+1) is where the series gives way to the
    closed form.  limits[j] is _series_limit(m, j + 1), up to the first
    one at or past the edge, and coefs holds the series coefficients
    1/((m+1)...(m+1+i)) for i < len(limits), correctly rounded, highest
    first, so that the last j + 1 of them are the first j + 1 terms.  m!
    is a float where it fits one; past m = 170 the closed form raises
    OverflowError.
    """
    edge = m + 1 + 2.0 * math.sqrt(m + 1)
    limits = [_series_limit(m, 1)]
    while limits[-1] < edge:
        limits.append(_series_limit(m, len(limits) + 1))
    coefs = [1 / math.prod(range(m + 1, m + 2 + i)) for i in range(len(limits))]
    fact = math.factorial(m)
    if m <= 170:
        fact = float(fact)
    return fact, m + 1, edge, tuple(limits), tuple(reversed(coefs)), _inv_factorials(m)


def _trunc_exp_values(plan, ys):
    """trunc_exp_factor(m, y) at each y in ys, given _trunc_exp_plan(m)."""
    fact, mp1, edge, limits, coefs, inv_fact = plan
    exp, terms_for = math.exp, bisect.bisect_left
    last = len(coefs) - 1
    out = []
    for y in ys:
        if y < 0.0:
            raise ValueError("trunc_exp_factor requires y >= 0")
        if y <= edge:
            acc = 0.0
            for c in coefs[last - terms_for(limits, y) :]:
                acc = acc * y + c
            out.append(exp(-y) * acc)
        elif y > _EXP_UNDERFLOW:
            out.append(fact * y**-mp1)
        else:
            out.append(fact * y**-mp1 * (1.0 - _exp_partial_sum(inv_fact, y)))
    return out


def trunc_exp_factor(m, y):
    """E_m(y) = integral_0^1 u^m e^(-y u) du = [m! - Gamma(m+1, y)] / y^(m+1).

    Up to y = m + 1 + 2 sqrt(m+1), the all-positive series
    e^(-y) sum_{i>=0} y^i/((m+1)...(m+1+i)), summed by Horner in y to
    the fewest terms whose geometric tail bound is under 2^-60 of the sum
    (see _series_limit): at y = 0 one term, near the edge about 60.  Past
    it, Gamma(m+1, y)/m! (a Poisson tail, two deviations out) is small,
    so the closed form m! y^-(m+1) (1 - e^(-y) sum_{i<=m} y^i/i!), whose
    sum is one Horner pass over 1/i!, loses nothing to cancellation and
    costs m + 1 terms.  Once e^(-y) underflows (y > 745.2) Gamma(m+1, y)
    is 0 and the result is m!/y^(m+1).
    """
    return _trunc_exp_values(_trunc_exp_plan(m), (y,))[0]


def laplace_panel(m, x, nodes):
    """laplace_integrand(m, x, t) at each t in nodes, as a list."""
    at_zero = 0.5 if m == 1 else 0.0
    ems = _trunc_exp_values(
        _trunc_exp_plan(m), [x * t if t > 0.0 else 0.0 for t in nodes]
    )
    return [
        t**m / math.expm1(t) * em if t > 0.0 else at_zero for t, em in zip(nodes, ems)
    ]


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


def _exp_integral_series(x):
    """sum_{k>=2} (-x)^k/(k k!), stopped past k = x once a term is
    under 1e-18 of the running sum, and then summed by math.fsum."""
    u = -x
    terms = []
    acc = 0.0
    k = 2
    while True:
        u *= -x / k
        term = u / k
        terms.append(term)
        acc += term
        if abs(term) <= 1e-18 * (abs(acc) + 1e-300) and k > x:
            break
        k += 1
    return math.fsum(terms)


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
        return -_exp_integral_series(t)
    return EULER_GAMMA + math.log(t) - t + _gamma_zero_asymp(t)


def hz_route_panel(m, x, nodes):
    """hz_route_integrand(m, x, u) at each u in nodes, as a list."""
    s = m + 1.0
    zetas = _zeta_values(
        s, _zeta_plan(s), [x * u + 1.0 if u > 0.0 else 1.0 for u in nodes]
    )
    return [u**m * zeta if u > 0.0 else 0.0 for u, zeta in zip(nodes, zetas)]


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
    s = m + 1.0
    xp1 = 1.0 + x
    zetas = _zeta_values(s, _zeta_plan(s), [xp1 - x * t for t in nodes])
    return [(1.0 - t) ** m * zeta for t, zeta in zip(nodes, zetas)]
