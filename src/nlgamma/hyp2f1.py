"""Gauss 2F1 evaluation for the parameter families this library needs.

Covered: a, b, c > 0 at any z < 1 where the series (or the log branch)
ends within MAX_SERIES_TERMS terms, and the exits that need no series:
F = 1 at z = 0 or for a zero a or b, and z = 1 by the Gauss summation
theorem where c - a - b > 0.  Any other non-positive parameter raises
ValueError: full connection-formula machinery is out of scope.

One reduction and two evaluators.  z < 0 is mapped into (0, 1) by Pfaff,
F(a, b; c; z) = (1-z)^(-a) F(a, c-b; c; z/(z-1)), so there c - b must be
positive as well (c = b gives F = (1-z)^(-a)).  On (0, 1) every term of
the defining series is positive: `_series` fixes its length from a proven
bound on the rest (under 1e-17 of the sum) and sums it by one Horner
pass.  For the a = 1 family with integer c - b, where that length passes
_LOG_BRANCH_TERMS, `_log_branch` expands in 1 - z instead (DLMF 15.8.10).
The diagonal family (p, p; p+1; z) takes the same path: for z < 0, after
Pfaff and the b = 1 swap, it is (1-z)^(-p) F(1, p; p+1; z/(z-1)), and
past z = 0.9, by Euler's transform, (1-z)^(1-p) F(1, 1; p+1; z).
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
# the a = 1 family with integer c - b takes the log branch where the
# series would need more terms than this
_LOG_BRANCH_TERMS = 512

# ln of the rest the all-positive series may leave out: 1e-17 of a sum
# that is at least 1, halved for the rounding of math.lgamma
_LOG_REST = math.log(0.5e-17)
# extra terms worth summing to save a further lgamma step
_LENGTH_SLACK = 8

# derivative-rule check points: (a, b, c) with x in {0.5, 2}
D25_TRIPLES = ((1.0, 2.0, 5.0), (2.0, 2.0, 3.0), (1.0, 4.0, 6.0))

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
    """Defining series sum_k (a)_k (b)_k / ((c)_k k!) z^k for a, b, c > 0
    and 0 < z < 1, where every term is positive.

    The length is fixed first by `_positive_length`'s proven bound on the
    rest (under 1e-17 of the sum), and the terms are summed by one Horner
    pass.  All its roundings are relative to positive partial sums, but
    they add up over the length: within 4e-15 of mpmath up to the 512
    terms gauss_2f1 lets the a = 1 family take, 6.1e-15 at the 7,816
    terms of (12, 12; 13; 0.99).
    """
    return _horner(a, b, c, z, _positive_length(a, b, c, z))


def _horner(a, b, c, z, n):
    """The first n terms of the defining series, by one Horner pass."""
    k = n - 2.0
    acc = 1.0
    while k >= 0.0:
        acc = 1.0 + acc * (a + k) * (b + k) * z / ((c + k) * (k + 1.0))
        k -= 1.0
    return acc


def _log_branch(b, c, z):
    """(1, b; c; z) for z near 1 and integer c - b >= 1, where the series
    is long.

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


def gauss_2f1(a, b, c, z):
    """2F1(a, b; c; z) on the implemented domain (see module docstring).

    Against mpmath on z in [-30, 0.9]: the a = 1 family with integer
    b <= 13 and c - b <= 14 within 2.5e-15 relative (20,000 draws), the
    diagonal (p, p; p+1; z) for p = 2..12 within 4.2e-15 (35,000 draws;
    for z < 0 the roundings of z/(z-1) and of (1-z)^(-p) add to the
    evaluator's).  Past 0.9 the diagonal with p > 1 goes through Euler's
    transform to (1, 1; p+1; z): within 3.0e-16 for p = 2..12 up to
    z = 1 - 1e-15 (3,000 draws).  z = 1 needs c - a - b > 0.
    Raises ValueError outside the domain (a non-finite argument included)
    and ConvergenceError where the series would pass its term budget.
    """
    for name, v in zip("abcz", (a, b, c, z)):
        if not math.isfinite(v):
            raise ValueError(f"gauss_2f1: {name} must be finite, got {v}")
    if _is_nonpositive_int(c):
        raise ValueError(f"gauss_2f1: c must not be a non-positive integer, got {c}")
    if z > 1.0:
        raise ValueError(f"gauss_2f1: z must be <= 1, got {z}")
    if a == 0.0 or b == 0.0 or z == 0.0:
        return 1.0
    if z == 1.0:
        return _gauss_sum(a, b, c)
    if a <= 0.0 or b <= 0.0 or c <= 0.0:
        raise ValueError(
            f"gauss_2f1: implemented for a, b, c > 0 only, got a={a} b={b} c={c}"
        )
    if b == 1.0 and a != 1.0:
        a, b = b, a
    if z < 0.0:
        # Pfaff: (1-z)^(-a) F(a, c-b; c; z/(z-1)); keeps a = 1 in family
        w = z / (z - 1.0)
        return (1.0 - z) ** (-a) * gauss_2f1(a, c - b, c, w)
    if z > 0.9 and a == b and c == a + 1.0 and a > 1.0:
        # Euler: the diagonal is (1-z)^(1-p) F(1, 1; p+1; z), short or on
        # the log branch, where its own series runs to thousands of terms;
        # 1 - z is exact past z = 1/2
        return (1.0 - z) ** (1.0 - a) * gauss_2f1(1.0, 1.0, c, z)
    # the log branch is exact for integer c - b only: allow the rounding of
    # c and b, not more (an offset of 9e-13 cost 6.8e-13 relative).  Where
    # w = 1 - z is not small, its bracket ln w - psi(1) + psi(b+m) and its
    # two parts cancel (4.1e-15 relative at (1, 10; 12; 0.901)), so it
    # serves only where the series would be long.
    if a == 1.0 and c - b >= 0.5 and abs(c - b - round(c - b)) <= 1e-15 * c:
        try:
            n = _positive_length(a, b, c, z)
        except ConvergenceError:
            n = MAX_SERIES_TERMS
        if n > _LOG_BRANCH_TERMS:
            return _log_branch(b, c, z)
        return _horner(a, b, c, z, n)
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
    f_hi = gauss_2f1(n + 2.0, n + 2.0, c, z)  # a = n+2
    f_lo = (n + 2.0) * (x + 1.0) ** (-(n + 1.0)) - (n + 1.0) * f_hi  # a = n+1
    a = n + 1.0
    while a > 1.0:
        f_prev = -((2.0 * a - c + (b - a) * z) * f_lo + a * (z - 1.0) * f_hi) / (c - a)
        f_hi, f_lo = f_lo, f_prev
        a -= 1.0
    return f_lo


def _identity_quad(g, end):
    """integral_0^end of the scalar g by quadrature, a QuadResult."""
    return quad.integrate_finite(quad.pointwise(g), 0.0, end, rel_tol=1e-12, abs_tol=5e-300)


def _moment_integral(n, x, power):
    """integral_0^1 u^(n+1) / (x u + 1)^power du by quadrature."""
    return _identity_quad(lambda u: u ** (n + 1) / (x * u + 1.0) ** power, 1.0)


def _inner_integral(n, x):
    """The inner integral of A5 and A6, integral_0^x (1 - v^n) / (v + 1) dv,
    by quadrature (0 at x = 0)."""
    return _identity_quad(lambda v: (1.0 - v**n) / (v + 1.0), x)


def hyp_identity_residual(identity, n, x, abc=None):
    """Evaluate both sides of a named hypergeometric identity.

    Tags: A1 (Euler transform of the diagonal family), A2 (moment
    integral vs the diagonal family), A4 (second-moment base relation),
    A5 (logarithmic form of A4; inner integral by quadrature), A6 (the
    inequality chain; residual is the smaller slack), T26 (argument
    transformation z = x/(x+1) vs -x), D25 (central finite difference of
    the derivative rule at the parameters abc, which it must be given).
    A check whose quadrature did not converge fails.
    """
    if n < 0:
        raise ValueError("hyp_identity_residual: need n >= 0")
    if not 0.0 <= x < math.inf:
        raise ValueError(f"hyp_identity_residual: need 0 <= x < inf, got {x}")
    point = {"n": n, "x": x}
    if identity == "A1":
        lhs = gauss_2f1(n + 2.0, n + 2.0, n + 3.0, -x)
        rhs = (1.0 + x) ** (-(n + 1.0)) * gauss_2f1(1.0, 1.0, n + 3.0, -x)
        return IdentityResidual.build("A1", point, lhs, rhs, 1e-10, relative_to=1e-300)
    if identity == "A2":
        lhs = gauss_2f1(n + 2.0, n + 2.0, n + 3.0, -x) / (n + 2.0)
        q = _moment_integral(n, x, n + 2)
        return IdentityResidual.build("A2", point, lhs, q.value, 1e-10, 1e-300, q.converged)
    if identity == "A4":
        q = _moment_integral(n, x, 2)
        rhs = 1.0 / (1.0 + x) - ((n + 1.0) / (n + 2.0)) * gauss_2f1(
            1.0, n + 2.0, n + 3.0, -x
        )
        return IdentityResidual.build("A4", point, q.value, rhs, 1e-9, 1e-300, q.converged)
    if identity == "A5":
        q = _moment_integral(n, x, 2)
        converged = q.converged
        if x == 0.0:
            rhs = 1.0 / (n + 2.0)  # removable limit of the closed form
        else:
            inner = _inner_integral(n, x)
            converged = converged and inner.converged
            rhs = (
                ((n + 1.0) / x ** (n + 1.0)) * (math.log1p(x) - inner.value)
                - 1.0 / (x + 1.0)
            ) / x
        return IdentityResidual.build("A5", point, q.value, rhs, 1e-9, 1e-300, converged)
    if identity == "A6":
        if x > 1.0:
            raise ValueError("A6 holds on x in [0, 1]")
        inner = _inner_integral(n, x)
        s1 = inner.value
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
            converged=inner.converged,
        )
    if identity == "T26":
        # F(1, n+1; n+3; x/(x+1)) = (x+1) F(1, 2; n+3; -x); the right side
        # is evaluated through its Euler integral so the two sides do not
        # share a code path:  F(1,2;c;z) = (c-1)(c-2) int_0^1 t(1-t)^(c-3)/(1-zt) dt
        lhs = gauss_2f1(1.0, n + 1.0, n + 3.0, x / (x + 1.0))
        euler = _identity_quad(lambda t: t * (1.0 - t) ** n / (1.0 + x * t), 1.0)
        rhs = (x + 1.0) * (n + 1.0) * (n + 2.0) * euler.value
        return IdentityResidual.build("T26", point, lhs, rhs, 1e-10, 1e-300, euler.converged)
    if identity == "D25":
        a, b, c = abc
        h = 1e-5
        lhs = (gauss_2f1(a, b, c, -(x + h)) - gauss_2f1(a, b, c, -(x - h))) / (2.0 * h)
        rhs = -(a * b / c) * gauss_2f1(a + 1.0, b + 1.0, c + 1.0, -x)
        pt = dict(point, a=a, b=b, c=c)
        return IdentityResidual.build("D25", pt, lhs, rhs, 1e-6, relative_to=1e-300)
    raise ValueError(f"unknown identity tag: {identity}")
