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
among them, are those loops at one node.  HURWITZ's integrand has two
panel forms, each reaching zeta through `_zeta_values`: in u
(hz_route_panel) and in v = ln(a/b) of the zeta argument a
(hz_route_log_panel, which multiplies each node by its own Jacobian; it
has no scalar form).  The Hurwitz-zeta, E_m and ln Gamma Taylor sums,
and CLOSED's collected series in `_ddarith` (whose table sizes it with
`_geometric_limit`), fix their length before summing, from a proven
bound on what they leave out (under 2^-60 of the value, or of its
leading term), and are Horner passes with no test per term.  The Hurwitz-zeta values come from one
loop, `_zeta_values`, over (s, plan) pairs and arguments: the HURWITZ
panels pass one s and many a, CLOSED one a and every order it needs.

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
    "hz_route_log_panel",
    "hz_route_panel",
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

# ei_defect's seam: its one-sign series below, Gamma(0, t)'s asymptotic
# series above, whose truncation costs ei_defect 6e-16 relative at 16
# (4e-14 at 14)
_EI_SEAM = 16.0

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


def _check_order(where, name, n, lo=0):
    """Refuse an order that is not an int (2.0 included) or is below lo,
    before any cached plan or factorial sees it."""
    if not isinstance(n, int):
        raise ValueError(f"{where}: need an integer {name}, got {n}")
    if n < lo:
        raise ValueError(f"{where}: need {name} >= {lo}, got {n}")


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
    if not s > 1.0:
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
        shifted = _zeta_values(((t, _zeta_plan(t)),), [c + 1.0 for c in centres])
        for j, size in enumerate(sizes):
            if k < size:
                c = centres[j]
                z_num, z_den = (c**-s * c**-k + shifted[j]).as_integer_ratio()
                coefs[j].append(num * z_num / (den * z_den))
        num *= s_num + k * s_den
        den *= (k + 1) * s_den
    return tuple(tuple(reversed(c)) for c in coefs)


def _zeta_values(pairs, args):
    """hurwitz_zeta(s, a) for each (s, _zeta_plan(s)) in pairs and each a
    in args, as one list, s-major: the HURWITZ panels pass one s and the
    nodes, CLOSED one a = x + 1 and the orders s = m, ..., 2 it needs.
    Each value is the one hurwitz_zeta(s, a) returns, bit for bit."""
    ceil, fsum, count = math.ceil, math.fsum, bisect.bisect_right
    out = []
    for s, (top, limits, horners, sm1) in pairs:
        neg_s = -s
        low = 2.0 if s <= _TAYLOR_S_MAX else 0.0  # below it, the Taylor path
        taylor = None
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
    if not (math.isfinite(s) and math.isfinite(a)):
        raise ValueError(f"hurwitz_zeta: need finite s and a, got s = {s}, a = {a}")
    return _zeta_values(((s, _zeta_plan(s)),), (a,))[0]


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
    """ln Gamma(x) for x > 0; inf at x = inf.

    Taylor series around the zeros at 1 and 2 on [0.5, 2.5], split at
    1.4, which keeps the *relative* error small where ln Gamma itself
    crosses zero; below,
    ln Gamma(x) = ln Gamma(x+1) - ln x.  On (2.5, 8) the argument is
    shifted down into (1.5, 2.5] by ln Gamma(x) = ln Gamma(x-k) +
    ln((x-1)...(x-k)): the product is at least x - 1 > 1.5, so nothing
    cancels (an upward shift to Stirling's range would subtract logs of
    about the size of the result).  Stirling from 8 on.
    """
    if not x > 0.0:
        raise ValueError(f"ln_gamma: need x > 0, got {x}")
    if 0.5 <= x < _LGAMMA_SEAM:
        return (x - 1.0) * ln_gamma_taylor(0, x - 1.0)
    if x < 0.5:
        return x * ln_gamma_taylor(0, x) - math.log(x)
    if x >= 8.0:
        return _stirling_lgam(x) if x < math.inf else x
    prod = 1.0
    while x > 2.5:
        x -= 1.0  # exact: x < 8
        prod *= x
    return (x - 2.0) * ln_gamma_taylor(1, x - 2.0) + math.log(prod)


def digamma(x):
    """psi(x) = d/dx ln Gamma(x) for x > 0; inf at x = inf."""
    if not x > 0.0:
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
    _check_order("upper_incomplete_gamma_int", "n", n)
    if not 0.0 <= x < math.inf:
        raise ValueError(f"upper_incomplete_gamma_int: need 0 <= x < inf, got {x}")
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


def _negligible_sum_start(m):
    """A y >= m + 1 past which e^(-y) sum_{i<=m} y^i/i! <= 2^-56.

    For y >= m the terms y^i/i! rise with i, so the sum is at most
    (m + 1) e^(-y) y^m/m!, and that falls as y rises; the bisection
    keeps its upper end, where the log of that bound is at most
    -56 ln 2 - 1e-9, the 1e-9 covering the rounding of the logs.  Any
    sum under 2^-54 leaves 1.0 - sum at 1.0 when rounded.
    """
    room = -56.0 * _LN_2 - 1e-9 - math.log(m + 1.0) + math.lgamma(m + 1.0)

    def within(y):
        return m * math.log(y) - y <= room

    lo, hi = m + 1.0, 2.0 * (m + 1.0)
    while not within(hi):
        lo, hi = hi, 2.0 * hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if within(mid):
            hi = mid
        else:
            lo = mid
    return hi


@functools.lru_cache(maxsize=64)
def _trunc_exp_plan(m):
    """The m-only part of trunc_exp_factor: (m!, -(m + 1), seam, cut,
    limits, series, _inv_factorials(m)).

    seam = m + 1 is where the series gives way to the closed form (see
    trunc_exp_factor).  limits[j] is _series_limit(m, j + 1), up to the
    first one at or past the seam, and series[j] holds the first j + 1
    series coefficients 1/((m+1)...(m+1+i)), correctly rounded, highest
    first, so that a y with j limits below it sums series[j] by Horner
    and no node slices a tuple.  At m = 12 the longest is 45 terms.  Past
    cut, the smaller of _negligible_sum_start(m) and the 745.2 where
    e^(-y) underflows, the closed form is m!/y^(m+1): its Poisson sum is
    at most 2^-56 there, and 1.0 minus it rounds to 1.0.  m! is a float
    where it fits one; past m = 170 the closed form raises OverflowError.
    """
    seam = m + 1.0
    limits = [_series_limit(m, 1)]
    while limits[-1] < seam:
        limits.append(_series_limit(m, len(limits) + 1))
    coefs = [1 / math.prod(range(m + 1, m + 2 + i)) for i in range(len(limits))]
    series = tuple(tuple(reversed(coefs[: j + 1])) for j in range(len(coefs)))
    cut = min(_negligible_sum_start(m), _EXP_UNDERFLOW)
    fact = math.factorial(m)
    if m <= 170:
        fact = float(fact)
    return fact, -(m + 1), seam, cut, tuple(limits), series, _inv_factorials(m)


def _trunc_exp_values(m, x, ts, weighted):
    """E_m(x t) at each t in ts, as a list, in one loop: the
    trunc_exp_factor body.  If weighted, each is multiplied by
    t^m/(e^t - 1), and t <= 0 gives that product's limit at 0: the
    laplace_panel body."""
    fact, power, seam, cut, limits, series, inv_fact = _trunc_exp_plan(m)
    exp, expm1, terms_for = math.exp, math.expm1, bisect.bisect_left
    at_zero = 0.5 if m == 1 else 0.0
    out = []
    append = out.append
    for t in ts:
        if weighted:
            if t <= 0.0:
                append(at_zero)
                continue
            w = t**m / expm1(t)
        y = x * t
        if y <= seam:
            if y < 0.0:
                raise ValueError("trunc_exp_factor requires y >= 0")
            acc = 0.0
            for c in series[terms_for(limits, y)]:
                acc = acc * y + c
            em = exp(-y) * acc
        elif y > cut:
            em = fact * y**power
        else:
            acc = 0.0
            for c in inv_fact:
                acc = acc * y + c
            em = fact * y**power * (1.0 - exp(-y) * acc)
        append(w * em if weighted else em)
    return out


def trunc_exp_factor(m, y):
    """E_m(y) = integral_0^1 u^m e^(-y u) du = [m! - Gamma(m+1, y)] / y^(m+1).

    Up to y = m + 1, the all-positive series
    e^(-y) sum_{i>=0} y^i/((m+1)...(m+1+i)), summed by Horner in y to
    the fewest terms whose geometric tail bound is under 2^-60 of the sum
    (see _series_limit): at y = 0 one term, at the seam 45 at m = 12.
    Past it, the closed form m! y^-(m+1) (1 - Q) with the Poisson sum
    Q = e^(-y) sum_{i<=m} y^i/i!, one Horner pass over 1/i! (m + 1
    terms).  Q = P(Pois(y) <= m) falls as y rises, and at the integer
    mean y = m + 1 it is under 1/2 (the Poisson median is the mean for
    an integer mean: Ramanujan's problem, Choi, Proc. AMS 1994), so
    1 - Q >= 1/2 on the whole closed-form side: its subtraction loses at
    most a bit to cancellation.  Once Q is proven at most 2^-56
    (_negligible_sum_start), or e^(-y) underflows (y > 745.2), 1.0 - Q
    rounds to 1.0 and the result is m!/y^(m+1), with no sum.
    """
    _check_order("trunc_exp_factor", "m", m)
    if not 0.0 <= y < math.inf:
        raise ValueError("trunc_exp_factor requires 0 <= y < inf")
    return _trunc_exp_values(m, y, (1.0,), False)[0]


def laplace_panel(m, x, nodes):
    """laplace_integrand(m, x, t) at each t in nodes, as a list."""
    _check_order("laplace_panel", "m", m)
    return _trunc_exp_values(m, x, nodes, True)


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
    _check_order("laplace_tail_weight", "m", m)
    scale = -math.expm1(-big_t)
    bound = upper_incomplete_gamma_int(m, big_t) / ((m + 1) * scale)
    if x * big_t > m + 1:
        decay = math.factorial(m) * x ** -(m + 1) * math.exp(-big_t) / (big_t * scale)
        bound = min(bound, decay)
    return bound


def _ei_defect_series(t):
    """ei_defect(t) = -e^(-t) sum_{n>=2} (n - H_n) t^n/n!, H_n = 1 + ... + 1/n.

    e^t Ein(t) and sum_{n>=1} H_n t^n/n! both solve y' = y + (e^t - 1)/t
    with y(0) = 0, and t = e^(-t) sum_{n>=1} n t^n/n!; since n > H_n for
    n >= 2 every term has one sign and nothing cancels.  The term ratios
    after term n are below r = t (w + 1)/((n + 1) w), w = n - H_n, which
    falls with n, so the sum stops once the rest's bound term r/(1 - r)
    is under 2^-60 of it.
    """
    u = t  # t^n/n!
    harmonic = 1.0
    acc = 0.0
    n = 1
    while True:
        n += 1
        u *= t / n
        harmonic += 1.0 / n
        w = n - harmonic
        term = w * u
        acc += term
        if n > t:
            r = t * (w + 1.0) / ((n + 1.0) * w)
            if r < 1.0 and term * r <= 2.0**-60 * (1.0 - r) * acc:
                return -math.exp(-t) * acc


def _gamma_zero_asymp(x):
    """Gamma(0, x) ~ e^(-x)/x sum_k (-1)^k k!/x^k for x > _EI_SEAM.

    The series diverges but is alternating with terms falling while
    k < x, and its error is below the first term left out; it is summed
    up to its smallest term, or until a term is under 2^-53.  That term
    is 1.1e-6 of the sum at x = 16, where Gamma(0, x) is 5.2e-10 of
    ei_defect, so ei_defect loses at most 6e-16 to it there.
    """
    inv = 1.0 / x
    term = 1.0
    acc = 1.0
    k = 1
    while k < x and abs(term) > 2.0**-53:
        term *= -k * inv
        acc += term
        k += 1
    return math.exp(-x) / x * acc


def ei_defect(t):
    """gamma - t + Gamma(0, t) + ln t, computed without cancellation.

    Up to t = _EI_SEAM it is `_ei_defect_series`, whose terms share one
    sign; beyond, the direct form with Gamma(0, t) from its asymptotic
    series.  Against mpmath (3,000 points on (0, 33]) it is within 1.4e-15
    relative up to the seam and 4e-16 above it.
    """
    if not 0.0 < t < math.inf:
        raise ValueError("ei_defect requires 0 < t < inf")
    if t <= _EI_SEAM:
        return _ei_defect_series(t)
    return EULER_GAMMA + math.log(t) - t + _gamma_zero_asymp(t)


def hz_route_panel(m, x, nodes):
    """hz_route_integrand(m, x, u) at each u in nodes, as a list."""
    s = m + 1.0
    zetas = _zeta_values(
        ((s, _zeta_plan(s)),), [x * u + 1.0 if u > 0.0 else 1.0 for u in nodes]
    )
    return [u**m * zeta if u > 0.0 else 0.0 for u, zeta in zip(nodes, zetas)]


def hz_route_integrand(m, x, u):
    """u^m * zeta(m+1, x*u + 1): the integrand of the moment-integral route."""
    return hz_route_panel(m, x, (u,))[0]


def hz_route_log_panel(m, x, nodes):
    """hz_route_integrand in v = ln(a/b), a = x u + 1 the zeta argument,
    times the Jacobian, at each v in nodes, as a list: for x > 0, b = 1,
    u = expm1(v)/x and du/dv = e^v/x; for x < 0, b = 1 + x (exact), the
    reflected variable s = 1 - u = (1 + x) expm1(v)/|x| and
    ds/dv = (1 + x) e^v/|x|.  Each node carries its own Jacobian, so no
    factor |x|^(-m-1) is formed outside the sum (it leaves the double
    range at large x).  Near the pole, v ~ 0, the zeta argument keeps
    full relative precision however close x is to -1: 1 + x is exact
    (Sterbenz) and e^v carries only relative rounding, where x u + 1 at a
    node u next to 1 would carry that node's 1e-16 absolute rounding.
    """
    s = m + 1.0
    exp, expm1 = math.exp, math.expm1
    if x > 0.0:
        scale = x
        args = [exp(v) for v in nodes]
        us = [expm1(v) / x for v in nodes]
    else:
        xp1 = 1.0 + x
        scale = -x
        args = [xp1 * exp(v) for v in nodes]
        us = [1.0 - xp1 * expm1(v) / scale for v in nodes]
    zetas = _zeta_values(((s, _zeta_plan(s)),), args)
    return [u**m * zeta * (a / scale) for u, zeta, a in zip(us, zetas, args)]
