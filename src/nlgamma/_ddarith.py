"""Double-double arithmetic for one hot spot: CLOSED below |x| = 0.125.

The product-rule formula for the m-th derivative of ln(Gamma(x+1))/x
cancels catastrophically as x -> 0: the j-th term grows like
j!/|x|^(j+1) while the sum stays O(1).  Below |x| = 0.125 the terms are
therefore accumulated in ~32-digit double-double arithmetic (Dekker
1971; the Hida-Li-Bailey QD operations).

The polygamma values come from their Taylor series around 1,

    psi^(j)(1 + x) = sum_{p>=0} c_{j,p} x^p,
    c_{j,p} = (-1)^k zeta(k) (k-1)!/(k-1-j)!,   k = p + j + 1,

with zeta(1) read as Euler's gamma (the k = 1 term, for j <= 0), and
ln Gamma(1 + x)/x as the order j = -1 (c_{-1,p} = (-1)^k zeta(k)/k,
k = p + 1).  Each order's coefficients are rounded to double-double
once, the first time the order is used (`_order_table`), and the series
is summed by one Horner pass whose step is a double-double x double
multiply and a double-double add.

Truncation.  For p >= 1, |c_{j,p+1}/c_{j,p}| <= rho_p = (p + j+ + 1)/(p + 1)
with j+ = max(j, 0), because zeta decreases; rho_p decreases in p.  So
the tail omitted after N terms is bounded geometrically,

    sum_{p>=N} |c_{j,p}| h^p <= |c_{j,N}| h^N / (1 - rho_N h),   |x| <= h,

and N is the least count that puts this bound under 2^-112 |c_{j,0}|
for h the top of |x|'s binade (capped at 0.125).  |psi^(j)(1 + x)| stays
above |c_{j,0}|/5 for |x| <= 0.125 and j <= 11, so the dropped tail is
under 1e-33 of the value, well below the rounding of the Horner pass.

Rounding.  The standard Horner bound gives each order an error of at
most 2N 2^-104 sum_p |c_{j,p}| |x|^p.  Carried through the Leibniz sum
with the rounding of x^(j+1) and of the sum itself, that a-priori bound
is up to 6-8x the estimate returned here, which charges 2^-104 of the
largest Leibniz term per term: the estimate is measured, not proven.
Against mpmath the errors stay under 0.45 of it (tests/test_ddarith.py).

Only the handful of operations that path needs are implemented.
A value is an (hi, lo) tuple with |lo| <= ulp(hi)/2.
"""

from __future__ import annotations

import functools
import math

from ._ddconsts import EULER_GAMMA_DD, ZETA_DD

_SPLITTER = 134217729.0  # 2^27 + 1, Dekker splitting constant

K_MAX = len(ZETA_DD) - 1
X_MAX = 0.125  # the CLOSED seam; the truncation table covers |x| <= X_MAX
TAIL_REL = 2.0**-112  # omitted Taylor tail, relative to |c_{j,0}|
# Smallest |x|^(m+1) served: below it the low part of x^(j+1), and the
# rounding error of its products, fall under the normal range (2^-1022
# = 2^-969 * 2^-53), and the values miss their estimates by up to 1e12.
POW_MIN = 2.0**-969


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a, b):
    p = a * b
    ca = _SPLITTER * a
    ahi = ca - (ca - a)
    alo = a - ahi
    cb = _SPLITTER * b
    bhi = cb - (cb - b)
    blo = b - bhi
    err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, err


def add(x, y):
    s, e = _two_sum(x[0], y[0])
    e += x[1] + y[1]
    hi, lo = _two_sum(s, e)
    return (hi, lo)


def neg(x):
    return (-x[0], -x[1])


def mul(x, y):
    p, e = _two_prod(x[0], y[0])
    e += x[0] * y[1] + x[1] * y[0]
    hi, lo = _two_sum(p, e)
    return (hi, lo)


def mul_d(x, a):
    p, e = _two_prod(x[0], a)
    e += x[1] * a
    hi, lo = _two_sum(p, e)
    return (hi, lo)


def div(x, y):
    q1 = x[0] / y[0]
    r = add(x, neg(mul_d(y, q1)))
    q2 = (r[0] + r[1]) / y[0]
    hi, lo = _two_sum(q1, q2)
    return (hi, lo)


def from_int(n):
    """Exact conversion of a (possibly > 2^53) Python int."""
    hi = float(n)
    lo = float(n - int(hi))
    return (hi, lo)


def _tail(coeffs, j, n, h):
    """The geometric bound on sum_{p>=n} |c_{j,p}| h^p, the tail that n
    Horner terms omit at |x| <= h (n >= 1); inf where it does not apply."""
    rho_h = h * (n + max(j, 0) + 1) / (n + 1)
    if n >= len(coeffs) or rho_h >= 1.0:
        return math.inf
    return abs(coeffs[n][0]) * h**n / (1.0 - rho_h)


@functools.lru_cache(maxsize=None)
def _order_table(j):
    """(c_{j,0..P}, terms) for order j >= -1, built on first use.

    c_{j,p} is (-1)^k ZETA_DD[k] times the exact integer
    (k-1)!/(k-1-j)!, or divided by k for j = -1, in one double-double
    operation.  The last entry is read only by the tail bound.  terms[i] is the Horner length for |x| <= X_MAX * 2^-i; the
    last entry, 1, serves every smaller |x|.
    """
    coeffs = []
    for k in range(max(j, 0) + 1, K_MAX + 1):
        if k == 1:
            c = neg(EULER_GAMMA_DD)
        elif j < 0:
            c = div(ZETA_DD[k], (float(k), 0.0))
        else:
            c = mul(ZETA_DD[k], from_int(math.prod(range(k - j, k))))
        coeffs.append(neg(c) if k % 2 and k > 1 else c)
    limit = TAIL_REL * abs(coeffs[0][0])
    n = len(coeffs) - 1
    if _tail(coeffs, j, n, X_MAX) > limit:
        raise ValueError(f"order {j} needs more zeta values than ZETA_DD holds")
    terms = []
    h = X_MAX
    while True:
        while n > 1 and _tail(coeffs, j, n - 1, h) <= limit:
            n -= 1
        terms.append(n)
        if n == 1:
            return tuple(coeffs), tuple(terms)
        h *= 0.5


def _horner(coeffs, n, x, xhi, xlo):
    """sum_{p<n} coeffs[p] x^p; (xhi, xlo) is x's Dekker split."""
    hi, lo = coeffs[n - 1]
    for chi, clo in reversed(coeffs[: n - 1]):
        # (hi, lo) * x, left unnormalised as p + e ...
        p = hi * x
        ca = _SPLITTER * hi
        ahi = ca - (ca - hi)
        alo = hi - ahi
        e = ((ahi * xhi - p) + ahi * xlo + alo * xhi) + alo * xlo + lo * x
        # ... plus (chi, clo)
        s = p + chi
        bb = s - p
        e = ((p - (s - bb)) + (chi - bb)) + (e + clo)
        hi = s + e
        bb = hi - s
        lo = (s - (hi - bb)) + (e - bb)
    return hi, lo


def closed_product_rule_dd(m, x):
    """Leibniz expansion of d^m/dx^m [ln Gamma(x+1) / x] in double-double.

    Valid for 0 < |x| <= 0.125 and 1 <= m <= 12, with |x|^(m+1) >= POW_MIN.
    Returns (value, abs_err_est).
    """
    if not 0.0 < abs(x) <= X_MAX:
        raise ValueError(f"double-double CLOSED needs 0 < |x| <= {X_MAX}, got {x}")
    if abs(x) ** (m + 1) < POW_MIN:
        raise ValueError(
            f"domain error: double-double CLOSED needs |x|^(m+1) >= 2^-969, "
            f"got x = {x} at m = {m}"
        )
    binade = max(-3 - math.frexp(x)[1], 0)  # |x| <= X_MAX * 2^-binade
    ca = _SPLITTER * x
    xhi = ca - (ca - x)
    xlo = x - xhi
    xpow = (x, 0.0)  # x^(j+1)
    total = (0.0, 0.0)
    magnitude = 0.0
    for j in range(m + 1):
        coeffs, terms = _order_table(m - j - 1)
        psi = _horner(coeffs, terms[min(binade, len(terms) - 1)], x, xhi, xlo)
        if j == m:
            psi = mul_d(psi, x)  # ln Gamma(1 + x) = x * (its series over x)
        term = div(mul_d(psi, float(math.perm(m, j))), xpow)
        if j % 2:
            term = neg(term)
        total = add(total, term)
        magnitude = max(magnitude, abs(term[0]))
        xpow = mul_d(xpow, x)
    value = total[0] + total[1]
    # each term carries ~1e-32 relative noise; cancellation leaves its trace
    err = 2.0 * (abs(value) * 1.1e-16 + magnitude * (m + 1) * 5.0e-32)
    return value, err
