"""CLOSED on |x| <= 0.26: the Leibniz sum, collected once per m.

The product-rule formula for the m-th derivative of ln(Gamma(x+1))/x,

    D^(m)(x) = sum_{i=0}^m (-1)^i m!/(m-i)! psi^(m-i-1)(1+x)/x^(i+1),

cancels catastrophically as x -> 0: the i-th term grows like
i!/|x|^(i+1) while the sum stays O(1).  Each polygamma has its Taylor
series around 1,

    psi^(j)(1 + x) = sum_{p>=0} zeta(k) w(j, p) x^p,
    w(j, p) = (-1)^k (k-1)!/(k-1-j)!,   k = p + j + 1,

with ln Gamma(1 + x) as the order j = -1, where w(-1, p) = (-1)^k/k.
Put into the Leibniz sum, the power x^n collects p = n + i + 1 from
term i, and k = n + m + 1 for every i, so one zeta value carries each
power:

    D^(m)(x) = sum_n zeta(n+m+1) B(m, n) x^n,
    B(m, n) = sum_{i=0}^m (-1)^i m!/(m-i)! w(m-i-1, n+i+1).

B(m, n) is exactly 0 for every n < 0: the negative powers that the
double sum cancels are zero, and the cancellation is all there is to
the catastrophe.  For n >= 0, B(m, n) = (-1)^k (k-1)!/((k-1-m)! k), the
factor the SERIES route writes down directly (tests/test_ddarith.py
checks both in integers for m = 1..12).  Here B is summed by the
Leibniz bracket, as integers over k, and SERIES keeps its own formula,
so the CLOSED-SERIES pair still compares two derivations of the
coefficients, and the two share no function.

_table(m) builds, on first use, a_n = zeta(k) B(m, n) for
n = 0..K_MAX-m-1 from the double-double `ZETA_DD`, each rounded once by
an int/int division, and keeps as many as |x| = X_MAX needs.  A value is
then one Horner pass in double precision over the first N of them, N
fixed before summing from a proven bound on what is left out, as the
kernels fix their series: |a_(n+1)/a_n| <= k/(k-m), which falls with k,
so from n = N on each term is at most |x|/c times the one before,
c = (N+1)/(N+m+1), and they sum to at most |a_N| |x|^N/(1 - |x|/c).
_table keeps, for each N, the largest |x| at which that is under
2^-60 |a_0| (`kernels._geometric_limit`), and `bisect` picks N: 4 terms
at |x| = 1e-6, 21 (m = 1) to 31 (m = 12) at 0.125, 32 to 52 at 0.26.
The estimate is a bound, the sum of

- Horner's running error bound (Higham, Accuracy and Stability of
  Numerical Algorithms, 2nd ed., Algorithm 5.1), with the unit roundoff
  taken as 1.2e-16 > 2^-53 to cover the second-order terms and the
  rounding of the bound itself;
- the coefficients' rounding and the 1e-32 relative error of
  `ZETA_DD`, (1.2e-16 + 1e-32) sum_n |a_n| |x|^n over the terms kept;
- the terms left out: 2^-60 |a_0|, or where every term of the table is
  kept (m = 12 past |x| = 0.2585), the tail past K_MAX,
  |a_(L-1)| h^(L-1) r/(1 - r) at |x| <= h = X_MAX,
  r = h K_MAX/(K_MAX - m), with L terms kept;
- N 2^-1074, for products that underflow (the first-order model does
  not hold for subnormals; each such product errs by 2^-1075 at most).

On 2,484 draws with |x| <= 0.26 (x = 0, the edges 5e-324, 0.125 and
0.26 of each sign, and for each m 100 draws log-uniform on
5e-324 <= |x| <= 0.26 and 100 uniform), against a 60-digit Taylor
oracle, the errors stay under 0.76 of it and it stays under 1.5e-13 of
the value (m = 12, x = 0.26; 4.5e-15 below |x| = 0.125, 2.5e-16 at the
median).  At the 2,004 points where N changes (each limit and the next
double, both signs, m = 1..12) the errors stay under 0.76 of it too.

X_MAX = 0.26 is the package's one Taylor seam: CLOSED takes this sum on
|x| <= X_MAX, and SERIES's cap, delta()'s Taylor branch and the split
of its moment integrals read the same constant.  It is not moved
further out: the Horner rounding grows like ((1+x)/(1-x))^(m+1), about
1e-10 of the value at m = 12, x = 0.5.

The module and function names predate this form (the sum used to be
accumulated in double-double); perfbench's tracer patches
`_ddarith.closed_product_rule_dd` by name, so both stay.
"""

from __future__ import annotations

import bisect
import functools
import math

from ._backend.kernels import _TRUNC_REL, _geometric_limit
from ._ddconsts import ZETA_DD

K_MAX = len(ZETA_DD) - 1
X_MAX = 0.26  # the package's one Taylor seam; the tail bound covers |x| <= X_MAX
_U = 1.2e-16  # unit roundoff, with room for the second-order terms
_ZETA_REL = 1e-32  # relative error of a ZETA_DD entry


def _weight(j, k):
    """k w(j, p) as an exact integer, k = p + j + 1 >= 1: 0 for p < 0."""
    w = k * math.perm(k - 1, j) if j >= 0 else 1
    return -w if k % 2 else w


def _bracket(m, n):
    """k B(m, n) as an exact integer, k = n + m + 1 >= 1."""
    k = n + m + 1
    return sum((-1) ** i * math.perm(m, i) * _weight(m - i - 1, k) for i in range(m + 1))


@functools.lru_cache(maxsize=None)
def _table(m):
    """(coefs, limits, floors) for 1 <= m <= 12.

    coefs holds a_(L-1), ..., a_0, highest power first.  The first N
    terms serve |x| <= limits[N-1]: up to there the terms from a_N on are
    proven to sum to under _TRUNC_REL |a_0|, which floors[N-1] charges,
    with N 2^-1074 for products that underflow.  The limits are raised
    to the one before if need be, so that they ascend, and stop at the
    first that reaches X_MAX.  If none does, the last length keeps every
    term of the table, its limit is X_MAX and its floor charges the tail
    past K_MAX there.
    """
    coefs = []
    for n in range(K_MAX - m):
        k = n + m + 1
        hi, lo = ZETA_DD[k]
        p, q = hi.as_integer_ratio()
        r, s = lo.as_integer_ratio()
        coefs.append((p * s + r * q) * _bracket(m, n) / (q * s * k))
    omitted = _TRUNC_REL * abs(coefs[0])
    limits, floors = [], []
    for n in range(1, len(coefs)):
        # terms n, n + 1, ... fall by at least c = (n+1)/(n+m+1) each
        room = math.log(omitted / abs(coefs[n]))
        y = _geometric_limit(room, n, (n + 1) / (n + m + 1))
        limits.append(max(y, limits[-1]) if limits else y)
        floors.append(omitted + n * 2.0**-1074)
        if limits[-1] >= X_MAX:
            break
    else:
        ratio = X_MAX * K_MAX / (K_MAX - m)
        tail = abs(coefs[-1]) * X_MAX ** (len(coefs) - 1) * ratio / (1.0 - ratio)
        limits.append(X_MAX)
        floors.append(tail + len(coefs) * 2.0**-1074)
    del coefs[len(limits) :]
    return tuple(reversed(coefs)), tuple(limits), tuple(floors)


def closed_product_rule_dd(m, x):
    """d^m/dx^m [ln Gamma(x+1) / x] for |x| <= 0.26 and 1 <= m <= 12,
    by the collected Leibniz series over the fewest terms _table proves
    enough at |x|; at x = 0 that is a_0, the limit rounded once.
    Returns (value, abs_err_est)."""
    if not abs(x) <= X_MAX:
        raise ValueError(f"small-x CLOSED needs |x| <= {X_MAX}, got {x}")
    coefs, limits, floors = _table(m)
    ax = abs(x)
    n = bisect.bisect_left(limits, ax)
    start = len(coefs) - 1 - n
    y = coefs[start]
    size = abs(y)  # sum |a_n| |x|^n
    run = size / 2.0  # Higham's running bound
    for c in coefs[start + 1 :]:
        y = y * x + c
        size = size * ax + abs(c)
        run = run * ax + abs(y)
    err = _U * (2.0 * run - abs(y)) + (_U + _ZETA_REL) * size + floors[n]
    return y, err
