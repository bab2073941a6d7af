"""Gauss 2F1 evaluation for the parameter families this library needs.

Covered: the a = 1 family (1, b; c; z) for real b, c; the diagonal
family (p, p; p+1; z), by its series for z > 0 and through the a = 1
family for z < 0; general real parameters at arguments reachable
from those via the Pfaff map z -> z/(z-1); z = 1 with positive parameter
excess via the Gauss summation theorem.  Near-unit arguments of the
a = 1 family with integer c - b >= 1 switch to the logarithmic expansion
in (1 - z).  Everything else raises: full connection-formula machinery is
out of scope.

Every series the package sums has a, b, c > 0 and 0 < z < 1 once Pfaff
has mapped z < 0 into (0, 1), so all its terms are positive.  There
`_series` fixes its length before summing, from a proven bound on the
rest (under 1e-17 of the sum), and sums by one Horner pass; only a
non-positive parameter or z outside (0, 1) keeps the term-by-term loop.
"""

from __future__ import annotations

import math

from . import quad
from ._backend.kernels import EULER_GAMMA, digamma, ln_gamma
from .report import IdentityResidual

__all__ = [
    "ConvergenceError",
    "gauss_2f1",
    "hyp_identity_residual",
    "hyp_recurrence_descent",
    "pochhammer",
    "D25_TRIPLES",
]

MAX_SERIES_TERMS = 100_000
_LOG_BRANCH_Z = 0.9

# ln of the rest the all-positive series may leave out: 1e-17 of a sum
# that is at least 1, halved for the rounding of math.lgamma
_LOG_REST = math.log(0.5e-17)
# extra terms worth summing to save a further lgamma step
_LENGTH_SLACK = 8

# derivative-rule check points: (a, b, c) with x in {0.5, 2}
D25_TRIPLES = ((1.0, 2.0, 5.0), (2.0, 2.0, 3.0), (1.0, 4.0, 6.0))

_IDENTITY_QUAD_CFG = quad.QuadConfig(
    rel_tol=1e-12, abs_tol=5e-300, max_subdivisions=400
)


class ConvergenceError(ArithmeticError):
    """A series failed to reach tolerance within its term budget."""


def pochhammer(a, j):
    """Rising factorial (a)_j = a (a+1) ... (a+j-1); (a)_0 = 1."""
    if j < 0:
        raise ValueError("pochhammer: need j >= 0")
    out = 1.0
    for i in range(j):
        out *= a + i
    return out


def _is_nonpositive_int(v):
    return v <= 0.0 and v == math.floor(v)


def _positive_length(a, b, c, z):
    """Number of terms after which the rest of the all-positive series
    (a, b, c > 0, 0 < z < 1) is proven under 1e-17 of its sum.

    Past term k the ratios t_(j+1)/t_j = z (a+j)/(j+1) (b+j)/(c+j) are at
    most rho_k = z max(1, (a+k)/(k+1)) max(1, (b+k)/(c+k)), each factor
    being monotone in j, so where rho_k < 1 the rest from term k on is at
    most t_k/(1 - rho_k) and t_(k+j) <= t_k rho_k^j.  ln t_k is taken
    from math.lgamma; the target is halved to absorb its rounding.  From
    the first k with rho_k < 1 (k = 0 when a <= 1 and b <= c, as on every
    HYP call), each step stops at k if its rest is under the target, or
    at the length the rho_k^j bound proves if that is within
    _LENGTH_SLACK terms of the shortest the ratio at k allows; otherwise
    it moves k to that shortest length and looks again.  The sum is at
    least 1 and at least t_k at the first k.  Raises ConvergenceError
    past MAX_SERIES_TERMS.
    """
    k = 0
    rho = z * max(1.0, a) * max(1.0, b / c)
    while rho >= 1.0:
        k = 2 * k + 1
        if k >= MAX_SERIES_TERMS:
            break
        rho = z * max(1.0, (a + k) / (k + 1.0)) * max(1.0, (b + k) / (c + k))
    lz = math.log(z)
    lg = math.lgamma
    base = lg(c) - lg(a) - lg(b)
    log_t = 0.0
    if k:
        log_t = base + lg(a + k) + lg(b + k) - lg(c + k) - lg(k + 1.0) + k * lz
    target = _LOG_REST + max(log_t, 0.0)
    while k < MAX_SERIES_TERMS:
        over = log_t - math.log1p(-rho) - target
        if over <= 0.0:
            return k
        # ln of the smaller of z and the ratio at k, taken factor by factor
        # so that nothing underflows at a tiny z, a or b
        log_g = math.log(a + k) + math.log(b + k)
        log_g -= math.log(c + k) + math.log(k + 1.0)
        slope = lz + min(0.0, log_g)
        proven = k + math.ceil(over / -math.log(rho))
        k += max(1, math.ceil(over / -slope))
        if proven - k <= _LENGTH_SLACK:
            k = proven
            if k < MAX_SERIES_TERMS:
                return k
            break
        log_t = base + lg(a + k) + lg(b + k) - lg(c + k) - lg(k + 1.0) + k * lz
        rho = z * max(1.0, (a + k) / (k + 1.0)) * max(1.0, (b + k) / (c + k))
    raise ConvergenceError(
        f"2F1 series needs over {MAX_SERIES_TERMS} terms: a={a} b={b} c={c} z={z}"
    )


def _series(a, b, c, z):
    """Defining series sum_k (a)_k (b)_k / ((c)_k k!) z^k, |z| < 1.

    For a, b, c > 0 and 0 < z < 1 every term is positive: the length is
    fixed first by `_positive_length`'s proven bound on the rest (under
    1e-17 of the sum), and the terms are summed by one Horner pass.  All
    its roundings are relative to positive partial sums; against mpmath
    it is within 4e-15 on the families the package reaches.

    Otherwise the terms may change sign, and the loop keeps every term for
    a final fsum.  The term ratios tend to |z|, eventually from one side,
    so the rest after a term is at most |term| r/(1-r) with r the larger
    of the last ratio and |z|; the sum stops once that is below 1e-17 of
    it.
    """
    if a > 0.0 and b > 0.0 and c > 0.0 and 0.0 < z < 1.0:
        k = _positive_length(a, b, c, z) - 2.0
        acc = 1.0
        while k >= 0.0:
            acc = 1.0 + acc * (a + k) * (b + k) * z / ((c + k) * (k + 1.0))
            k -= 1.0
        return acc
    term = 1.0
    terms = [term]
    acc = term
    for k in range(1, MAX_SERIES_TERMS):
        prev = abs(term)
        term *= (a + k - 1.0) * (b + k - 1.0) * z / ((c + k - 1.0) * k)
        terms.append(term)
        acc += term
        r = max(abs(term) / prev, abs(z)) if prev else abs(z)
        if abs(term) * r <= 1e-17 * (1.0 - r) * (abs(acc) + 1e-300):
            return math.fsum(terms)
    raise ConvergenceError(
        f"2F1 series stalled: a={a} b={b} c={c} z={z}"
    )


def _log_branch(b, c, z):
    """(1, b; c; z) for z near 1 and integer c - b >= 1.

    DLMF 15.8.10 with a = 1, m = c - b - 1 and w = 1 - z:

      (b+m)/m! sum_{k<m} (b)_k (m-k-1)! (-w)^k
        - (-w)^m (b)_(m+1)/m! sum_{k>=0} ((b+m)_k/k!)
              [ln w - psi(k+1) + psi(b+m+k)] w^k

    (the psi(a+m+k) and psi(k+m+1) of the general form cancel at a = 1).
    As w -> 0 the finite sum tends to the Gauss sum (b+m)/m and the
    logarithmic part is of order w^m ln w.
    """
    m = round(c - b) - 1
    w = 1.0 - z
    lnw = math.log(w)
    fact_m = math.factorial(m)
    terms = [
        (b + m) * pochhammer(b, k) * math.factorial(m - k - 1) / fact_m * (-w) ** k
        for k in range(m)
    ]
    acc = math.fsum(terms)
    psi1 = -EULER_GAMMA  # psi(1)
    psib = digamma(b + m)
    coef = -((-w) ** m) * pochhammer(b, m + 1) / fact_m
    wk = 1.0
    for k in range(MAX_SERIES_TERMS):
        term = coef * (lnw - psi1 + psib) * wk
        terms.append(term)
        acc += term
        if abs(term) <= 1e-17 * (abs(acc) + 1e-300) and k > 2:
            return math.fsum(terms)
        coef *= (b + m + k) / (k + 1.0)
        wk *= w
        psi1 += 1.0 / (k + 1.0)
        psib += 1.0 / (b + m + k)
    raise ConvergenceError(f"log branch stalled: b={b} c={c} z={z}")


def _gauss_sum(a, b, c):
    """2F1(a, b; c; 1) = Gamma(c)Gamma(c-a-b) / (Gamma(c-a)Gamma(c-b))."""
    if c - a - b <= 0.0:
        raise ValueError("2F1 at z=1 needs parameter excess c - a - b > 0")
    if c <= 0.0 or c - a <= 0.0 or c - b <= 0.0:
        raise ValueError("2F1 at z=1: gamma-function form needs positive args")
    return math.exp(ln_gamma(c) + ln_gamma(c - a - b) - ln_gamma(c - a) - ln_gamma(c - b))


def _diagonal_family(p, c, z):
    """(p, p; p+1; z) with p = c - 1 >= 2, for z <= 0.9.

    0 < z <= 0.9 uses the plain series, whose terms are all positive.
    For z < 0 they alternate and cancel (at p = 12 the series is off by
    1.1e-12 relative at z = -0.5 and 8.6e-4 at -0.9), so the first
    parameter is lowered once through the elementary relation

      (p-1)/p * F(p, p; p+1; z) = (1-z)^(-(p-1)) - (1/p) F(p-1, p; p+1; z)

    and the remaining function drops to the a = 1 family by the Euler
    transform F(p-1, p; p+1; z) = (1-z)^(2-p) F(2, 1; p+1; z); against
    mpmath that is within 1.2e-15 relative for p = 2..12 on [-0.9, 0).
    Further out the two sides of the relation cancel more as z/(z-1)
    nears 1: 4.14e-15 at p = 12, z = -9.05, the worst of 33,000 points
    with p = 2..12 and z in [-30, 0.9].
    For z > 0 the two sides of the relation cancel instead, so past 0.9
    the family is refused.
    """
    if 0.0 < z <= _LOG_BRANCH_Z:
        return _series(p, p, c, z)
    if z > 0.0:
        raise ValueError("diagonal 2F1 family implemented for z <= 0.9 only")
    w = 1.0 - z
    mid = w ** (2.0 - p) * gauss_2f1(1.0, 2.0, c, z)
    return (p / (p - 1.0)) * (w ** (1.0 - p) - mid / p)


def gauss_2f1(a, b, c, z):
    """2F1(a, b; c; z) on the implemented families (see module docstring).

    Relative error ~1e-12 across z in [-50, 0] and z in [0, 1) (the
    diagonal family within 1.2e-15 of mpmath on [-0.9, 0) for p = 2..12);
    z = 1 needs c - a - b > 0.  Raises ValueError outside the implemented
    families and ConvergenceError if a series stalls.
    """
    if _is_nonpositive_int(c):
        raise ValueError(f"gauss_2f1: c must not be a non-positive integer, got {c}")
    if z > 1.0:
        raise ValueError(f"gauss_2f1: z must be <= 1, got {z}")
    if a == 0.0 or b == 0.0 or z == 0.0:
        return 1.0
    if z == 1.0:
        return _gauss_sum(a, b, c)
    if b == 1.0 and a != 1.0:
        a, b = b, a
    if a == b and c == a + 1.0 and a >= 2.0:
        return _diagonal_family(a, c, z)
    if z < 0.0:
        # Pfaff: (1-z)^(-a) F(a, c-b; c; z/(z-1)); keeps a = 1 in family
        w = z / (z - 1.0)
        return (1.0 - z) ** (-a) * gauss_2f1(a, c - b, c, w)
    if z <= _LOG_BRANCH_Z:
        return _series(a, b, c, z)
    # the log branch is exact for integer c - b only: allow the rounding of
    # c and b, not more (an offset of 9e-13 cost 6.8e-13 relative)
    if a == 1.0 and c - b >= 0.5 and abs(c - b - round(c - b)) <= 1e-15 * c:
        return _log_branch(b, c, z)
    # the defining series converges for any |z| < 1; close to 1 it merely
    # slows down, and the term budget flags a genuine stall
    return _series(a, b, c, z)


def hyp_recurrence_descent(n, x):
    """Walk F(a, n+2; n+3; -x) from a = n+2 down to a = 1.

    The first step uses the moment-integral recurrence

        F(n+1, n+2; n+3; -x) = (n+2)(x+1)^(-(n+1)) - (n+1) F(n+2, n+2; n+3; -x),

    later steps the Gauss contiguous relation

        (c-a) F(a-1) + (2a - c + (b-a) z) F(a) + a (z-1) F(a+1) = 0.

    Returns the descended value of F(1, n+2; n+3; -x).
    """
    z = -x
    b = n + 2.0
    c = n + 3.0
    f_top = gauss_2f1(n + 2.0, n + 2.0, c, z)  # a = n+2
    if n == 0:
        # a = n+1 is already 1
        return (n + 2.0) * (x + 1.0) ** (-(n + 1.0)) - (n + 1.0) * f_top
    f_hi = f_top
    f_lo = (n + 2.0) * (x + 1.0) ** (-(n + 1.0)) - (n + 1.0) * f_top  # a = n+1
    a = n + 1.0
    while a > 1.0:
        f_prev = -((2.0 * a - c + (b - a) * z) * f_lo + a * (z - 1.0) * f_hi) / (c - a)
        f_hi, f_lo = f_lo, f_prev
        a -= 1.0
    return f_lo


def _moment_integral(n, x, power):
    """integral_0^1 u^(n+1) / (x u + 1)^power du by quadrature."""
    r = quad.integrate_finite(
        quad.pointwise(lambda u: u ** (n + 1) / (x * u + 1.0) ** power),
        0.0,
        1.0,
        _IDENTITY_QUAD_CFG,
    )
    return r.value


def _inner_integral(n, x):
    """The inner integral of A5 and A6, integral_0^x (1 - v^n) / (v + 1) dv,
    by quadrature (0 at x = 0)."""
    r = quad.integrate_finite(
        quad.pointwise(lambda v: (1.0 - v**n) / (v + 1.0)),
        0.0,
        x,
        _IDENTITY_QUAD_CFG,
    )
    return r.value


def hyp_identity_residual(identity, n, x, abc=None):
    """Evaluate both sides of a named hypergeometric identity.

    Tags: A1 (Euler transform of the diagonal family), A2 (moment
    integral vs the diagonal family), A4 (second-moment base relation),
    A5 (logarithmic form of A4; inner integral by quadrature), A6 (the
    inequality chain; residual is the smaller slack), T26 (argument
    transformation z = x/(x+1) vs -x), D25 (central finite difference of
    the derivative rule at parameters abc).
    """
    if n < 0:
        raise ValueError("hyp_identity_residual: need n >= 0")
    if x < 0.0:
        raise ValueError("hyp_identity_residual: need x >= 0")
    point = {"n": n, "x": x}
    if identity == "A1":
        lhs = gauss_2f1(n + 2.0, n + 2.0, n + 3.0, -x)
        rhs = (1.0 + x) ** (-(n + 1.0)) * gauss_2f1(1.0, 1.0, n + 3.0, -x)
        return IdentityResidual.build("A1", point, lhs, rhs, 1e-10, relative_to=1e-300)
    if identity == "A2":
        lhs = gauss_2f1(n + 2.0, n + 2.0, n + 3.0, -x) / (n + 2.0)
        rhs = _moment_integral(n, x, n + 2)
        return IdentityResidual.build("A2", point, lhs, rhs, 1e-10, relative_to=1e-300)
    if identity == "A4":
        lhs = _moment_integral(n, x, 2)
        rhs = 1.0 / (1.0 + x) - ((n + 1.0) / (n + 2.0)) * gauss_2f1(
            1.0, n + 2.0, n + 3.0, -x
        )
        return IdentityResidual.build("A4", point, lhs, rhs, 1e-9, relative_to=1e-300)
    if identity == "A5":
        lhs = _moment_integral(n, x, 2)
        if x == 0.0:
            rhs = 1.0 / (n + 2.0)  # removable limit of the closed form
        else:
            inner = _inner_integral(n, x)
            rhs = (
                ((n + 1.0) / x ** (n + 1.0)) * (math.log1p(x) - inner)
                - 1.0 / (x + 1.0)
            ) / x
        return IdentityResidual.build("A5", point, lhs, rhs, 1e-9, relative_to=1e-300)
    if identity == "A6":
        if x > 1.0:
            raise ValueError("A6 holds on x in [0, 1]")
        s1 = _inner_integral(n, x)
        s2 = x - x ** (n + 1.0) / (n + 1.0)
        slack = min(s2 - s1, x - s2)
        return IdentityResidual(
            identity="A6",
            point=point,
            lhs=s1,
            rhs=s2,
            residual=slack,
            tolerance=0.0,
            passed=slack >= 0.0,
        )
    if identity == "T26":
        # F(1, n+1; n+3; x/(x+1)) = (x+1) F(1, 2; n+3; -x); the right side
        # is evaluated through its Euler integral so the two sides do not
        # share a code path:  F(1,2;c;z) = (c-1)(c-2) int_0^1 t(1-t)^(c-3)/(1-zt) dt
        lhs = gauss_2f1(1.0, n + 1.0, n + 3.0, x / (x + 1.0))
        euler = quad.integrate_finite(
            quad.pointwise(lambda t: t * (1.0 - t) ** n / (1.0 + x * t)),
            0.0,
            1.0,
            _IDENTITY_QUAD_CFG,
        ).value
        rhs = (x + 1.0) * (n + 1.0) * (n + 2.0) * euler
        return IdentityResidual.build("T26", point, lhs, rhs, 1e-10, relative_to=1e-300)
    if identity == "D25":
        a, b, c = abc if abc is not None else D25_TRIPLES[n % len(D25_TRIPLES)]
        h = 1e-5
        lhs = (gauss_2f1(a, b, c, -(x + h)) - gauss_2f1(a, b, c, -(x - h))) / (2.0 * h)
        rhs = -(a * b / c) * gauss_2f1(a + 1.0, b + 1.0, c + 1.0, -x)
        pt = dict(point, a=a, b=b, c=c)
        return IdentityResidual.build("D25", pt, lhs, rhs, 1e-6, relative_to=1e-300)
    raise ValueError(f"unknown identity tag: {identity}")
