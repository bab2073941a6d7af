"""Shared fixtures."""

import math
import sys
from pathlib import Path

import pytest

from nlgamma import quad
from nlgamma.delta import _hurwitz_row, _laplace_row


@pytest.fixture
def starved_quad(monkeypatch):
    """Allow every quad.integrate_finite call of the test one split,
    whatever tolerances its caller asks for.  LAPLACE's and HURWITZ's
    per-m rows built meanwhile are dropped afterwards."""
    monkeypatch.setattr(quad, "_MAX_SPLITS", 1)
    yield
    _laplace_row.cache_clear()
    _hurwitz_row.cache_clear()


@pytest.fixture(scope="session")
def mp_deriv():
    """D^(m)(x) by perfbench/reference.py's mpmath Leibniz sum (the test is
    skipped without mpmath):

        sum_j C(m,j) psi^(m-j-1)(x+1) (-1)^j j! / x^(j+1),

    with psi^(-1) = ln Gamma, at 60 digits.  Near x = 0 the terms cancel
    by a factor of about |x|^(-m-1), so the precision grows by that many
    digits; at x = 0 the limit (-1)^(m-1) m! zeta(m+1)/(m+1) is returned."""
    pytest.importorskip("mpmath")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    from reference import _leibniz

    def deriv(m, x):
        lost = (m + 1) * max(0.0, -math.log10(abs(x))) if x else 0.0
        return float(_leibniz(m, x, 60 + int(lost)))

    return deriv


@pytest.fixture(scope="session")
def mp_taylor_deriv():
    """D^(m)(x) for |x| <= 0.26 at 60 digits by its Taylor series at 0
    (mpmath; the test is skipped without it):

        sum_{k>m} (-1)^k zeta(k) (k-1)!/((k-1-m)! k) x^(k-1-m),

    to k = 260, where the terms left out are under 1e-120 of the first.
    Unlike mp_deriv, nothing cancels, so |x| down to 5e-324 costs no
    extra digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        zetas = [None, None] + [mpmath.zeta(k) for k in range(2, 261)]

    def deriv(m, x):
        assert abs(x) <= 0.26
        with mpmath.workdps(60):
            xm = mpmath.mpf(x)
            total = mpmath.mpf(0)
            for k in range(260, m, -1):
                c = zetas[k] * math.perm(k - 1, m) / k
                total = total * xm + (-c if k % 2 else c)
            return total

    return deriv


@pytest.fixture(scope="session")
def mp_unit_split():
    """integral_start^inf phi({t}) g(t) dt at 40 digits (mpmath; the test
    is skipped without it), for phi(y) = sum_i coeffs[i] y^i and g one
    factor (t + c)^(-p), p > 1, or two with integer powers.

    g is split into terms w (t + a)^(-s): itself for one factor, partial
    fractions for two.  The integral is integral_0^1 phi(y) sum_l
    g(y + l + start) dy.  Its l = 0 part, which holds any pole close to
    start, is exact over phi's coefficients in powers of y + a.  The rest
    is a Hurwitz zeta zeta(s, y + a + 1) per term (the two s = 1 terms
    carry opposite weights, so together they sum to a difference of
    digammas).  Its poles lie at y <= -1, so on [0, 1] it is analytic in
    the Bernstein ellipse of parameter 3 + sqrt(8), and 20-point
    Gauss-Legendre errs by about (3 + sqrt(8))^-40 = 1e-30 of its size.
    The partial fractions cancel by about ((1 + start + max c)/|c1 -
    c2|)^(p1 + p2 - 1), which the 40 digits must absorb: callers keep
    the two c apart."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        nodes = mpmath.gauss_quadrature(20, "legendre")

    def terms(factors):
        if len(factors) == 1:
            ((c, p),) = factors
            return [(mpmath.mpf(1), mpmath.mpf(c), mpmath.mpf(p))]
        (c1, p1), (c2, p2) = factors
        p1, p2 = int(p1), int(p2)
        d = mpmath.mpf(c2) - mpmath.mpf(c1)

        def weight(i, p, q, gap):
            # coefficient of (t + c)^(-i) in (t + c)^(-p) (t + c + gap)^(-q)
            return (-1) ** (p - i) * mpmath.binomial(q + p - i - 1, p - i) * gap ** (
                i - p - q
            )

        return [(weight(i, p1, p2, d), mpmath.mpf(c1), i) for i in range(1, p1 + 1)] + [
            (weight(j, p2, p1, -d), mpmath.mpf(c2), j) for j in range(1, p2 + 1)
        ]

    def first_unit(coeffs, a, s):
        # integral_0^1 phi(y) (y + a)^(-s) dy, phi in powers of u = y + a
        total = mpmath.mpf(0)
        for j in range(len(coeffs)):
            b = mpmath.fsum(
                coeffs[i] * mpmath.binomial(i, j) * (-a) ** (i - j)
                for i in range(j, len(coeffs))
            )
            e = j + 1 - s
            total += b * (mpmath.log1p(1 / a) if e == 0 else ((a + 1) ** e - a**e) / e)
        return total

    def unit_split(coeffs, factors, start=0.0):
        with mpmath.workdps(40):
            cs = [mpmath.mpf(a) for a in coeffs]
            parts = [(w, start + c, s) for w, c, s in terms(factors)]
            first = mpmath.fsum(w * first_unit(cs, a, s) for w, a, s in parts)

            def later(y):
                total = mpmath.fsum(
                    -w * mpmath.digamma(y + a + 1) if s == 1 else w * mpmath.zeta(s, y + a + 1)
                    for w, a, s in parts
                )
                return mpmath.polyval(cs[::-1], y) * total

            rest = mpmath.fsum(w * later((u + 1) / 2) for u, w in zip(*nodes)) / 2
            return float(first + rest)

    return unit_split
