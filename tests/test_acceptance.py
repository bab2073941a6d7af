"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with `pytest -s` to see
them all) and asserts the stated tolerance.  Everything here runs at
desk scale; the slowest criterion is the route-agreement grid.
"""

import math

import pytest

from nlgamma import hyp2f1
from nlgamma.delta import (
    Route,
    asymptotic_leading,
    check_complete_monotonicity,
    delta,
    delta_deriv,
    delta_deriv_at_one,
    delta_deriv_half_integer,
    frac_rep_prop2,
    integral_delta,
    integral_delta_squared,
    recurrence_residual,
)
from nlgamma.quad import p1_integral
from nlgamma.specfun import CONSTANTS, hurwitz_zeta, polygamma, riemann_zeta

G = CONSTANTS.euler_gamma
X_GRID = (-0.9, -0.5, -0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0)


def report(num, name, passed, detail):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


def test_c01_route_agreement():
    """All applicable route pairs within max(1e-8 rel, 1e-10 abs)."""
    worst = 0.0
    worst_at = None
    for m in range(1, 9):
        for x in X_GRID:
            routes = [Route.CLOSED, Route.HURWITZ, Route.HYP]
            if x >= 0.0:
                routes.append(Route.LAPLACE)
            vals = [delta_deriv(m, x, r) for r in routes]
            for i in range(len(vals)):
                for j in range(i + 1, len(vals)):
                    a, b = vals[i], vals[j]
                    tol = max(1e-8 * max(abs(a.value), abs(b.value)), 1e-10)
                    q = abs(a.value - b.value) / tol
                    if q > worst:
                        worst = q
                        worst_at = (m, x, a.route.value, b.route.value)
    report(1, "route-agreement", worst <= 1.0, f"worst gap/tol {worst:.3f} at {worst_at}")


def test_c02_special_values():
    """Values at x = 0 and the first two closed forms at x = 1, 1e-11 rel."""
    worst = abs(delta(0.0) + G) / G
    for m in range(1, 9):
        exact = (
            (-1.0) ** (m - 1) * math.factorial(m) * CONSTANTS.zeta_values[m + 1] / (m + 1)
        )
        got = delta_deriv(m, 0.0).value
        worst = max(worst, abs(got - exact) / abs(exact))
    d1 = delta_deriv(1, 1.0, Route.CLOSED).value
    worst = max(worst, abs(d1 - (1.0 - G)) / (1.0 - G))
    d2 = delta_deriv(2, 1.0, Route.CLOSED).value
    exact2 = math.pi**2 / 6.0 - 3.0 + 2.0 * G
    worst = max(worst, abs(d2 - exact2) / abs(exact2))
    report(2, "special-values", worst <= 1e-11, f"worst rel {worst:.2e}")


def test_c03_recurrence():
    """Order-lowering recurrence residual <= 1e-9 relative, m in 2..10."""
    worst = 0.0
    for m in range(2, 11):
        for x in X_GRID:
            r = recurrence_residual(m, x)
            worst = max(worst, abs(r.residual) / max(abs(r.lhs), abs(r.rhs), 1e-300))
    report(3, "recurrence", worst <= 1e-9, f"worst rel residual {worst:.2e}")


def test_c04_fractional_part_representation():
    """Fractional-part form within 1e-6 absolute (m 1..4, k 1..5); the
    closed sums at x = 1 within 1e-11 of the CLOSED route (m 1..8)."""
    worst_abs = 0.0
    for m in range(1, 5):
        for k in range(1, 6):
            lhs, rhs = frac_rep_prop2(m, k)
            worst_abs = max(worst_abs, abs(lhs.value - rhs.value))
    worst_rel = 0.0
    for m in range(1, 9):
        a = delta_deriv_at_one(m)
        b = delta_deriv(m, 1.0, Route.CLOSED).value
        worst_rel = max(worst_rel, abs(a - b) / abs(b))
    ok = worst_abs <= 1e-6 and worst_rel <= 1e-11
    report(
        4,
        "fractional-part-representation",
        ok,
        f"worst abs gap {worst_abs:.2e}, closed-sum rel {worst_rel:.2e}",
    )


def test_c05_half_integer_closed_form():
    """Half-argument closed form within 1e-10 relative of CLOSED, m 1..10."""
    worst = 0.0
    for m in range(1, 11):
        a = delta_deriv_half_integer(m)
        b = delta_deriv(m, -0.5, Route.CLOSED).value
        worst = max(worst, abs(a - b) / abs(b))
    report(5, "half-integer-closed-form", worst <= 1e-10, f"worst rel {worst:.2e}")


def test_c06_asymptotics():
    """Leading-term ratio gap <= 5e-3 at x = 1e4 and monotone shrinking."""
    worst = 0.0
    monotone = True
    for m in range(1, 5):
        gaps = []
        for x in (1e2, 1e3, 1e4):
            v = delta_deriv(m, x, Route.CLOSED).value
            gaps.append(abs(v / asymptotic_leading(m, x) - 1.0))
        monotone = monotone and gaps[0] > gaps[1] > gaps[2]
        worst = max(worst, gaps[2])
    report(
        6,
        "asymptotics",
        worst <= 5e-3 and monotone,
        f"gap at 1e4 {worst:.2e}, monotone {monotone}",
    )


def test_c07_moment_integrals():
    """The three forms of the first moment and two of the second agree
    pairwise within 1e-8."""
    q, s, e = integral_delta()
    gaps = [abs(q.value - s), abs(q.value - e.value), abs(s - e.value)]
    q2, s2 = integral_delta_squared()
    gaps.append(abs(q2.value - s2))
    worst = max(gaps)
    report(7, "moment-integrals", worst <= 1e-8, f"worst pairwise gap {worst:.2e}")


def test_c08_appendix_identities():
    """Hypergeometric identity residuals <= 1e-9 relative; slack chain
    nonnegative on [0, 1]."""
    worst = 0.0
    grids = {
        "A1": (0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 15.0, 20.0),
        "A2": (0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 15.0, 20.0),
        "A4": (0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 15.0, 20.0),
        "A5": (0.0, 0.5, 1.0, 2.5, 5.0, 7.5, 10.0, 15.0, 20.0),
        "T26": (0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 15.0, 20.0),
    }
    for tag, xs in grids.items():
        for n in range(0, 9):
            for x in xs:
                r = hyp2f1.hyp_identity_residual(tag, n, x)
                worst = max(worst, abs(r.residual) / max(abs(r.lhs), abs(r.rhs), 1e-300))
    for abc in hyp2f1.D25_TRIPLES:
        for x in (0.5, 2.0):
            r = hyp2f1.hyp_identity_residual("D25", 0, x, abc=abc)
            worst = max(worst, abs(r.residual) / max(abs(r.lhs), abs(r.rhs)))
    slack_ok = True
    for n in range(0, 7):
        for i in range(11):
            slack_ok = slack_ok and hyp2f1.hyp_identity_residual("A6", n, i / 10.0).passed
    report(
        8,
        "appendix-identities",
        worst <= 1e-9 and slack_ok,
        f"worst rel residual {worst:.2e}, slack nonnegative {slack_ok}",
    )


def test_c09_complete_monotonicity_scan():
    """Zero sign violations for m 1..8 on a 40-point mixed grid in (-0.9, 100]."""
    lin = [-0.9 + (1.0 + 0.9) * i / 19 for i in range(20)]  # linear on [-0.9, 1]
    logs = [10.0 ** (2.0 * (i + 1) / 20.0) for i in range(20)]  # log on (1, 100]
    grid = lin + logs
    assert len(grid) == 40
    rep = check_complete_monotonicity(8, grid)
    report(
        9,
        "complete-monotonicity-scan",
        rep.n_fail == 0,
        f"{len(rep.checks)} sign checks, {rep.n_fail} violations",
    )


def test_c10_primitive_suite():
    """Telescoping (1e-13), shift equation (1e-12), half-argument
    polygamma (1e-12), and the sawtooth integral forms (1e-9/1e-10)."""
    worst_tel = 0.0
    for s in (1.5, 2.0, 3.25, 10.0):
        for a in (0.1, 0.5, 1.0, 2.5, 7.0):
            lhs = hurwitz_zeta(s, a) - hurwitz_zeta(s, a + 1.0)
            worst_tel = max(worst_tel, abs(lhs - a**-s) / max(hurwitz_zeta(s, a), a**-s))
    worst_shift = 0.0
    for j in range(0, 7):
        for x in (0.1, 0.5, 1.0, 3.0, 10.0):
            lhs = polygamma(j, x + 1.0) - polygamma(j, x)
            rhs = (-1.0) ** j * math.factorial(j) / x ** (j + 1)
            scale = max(abs(polygamma(j, x + 1.0)), abs(polygamma(j, x)), abs(rhs))
            worst_shift = max(worst_shift, abs(lhs - rhs) / scale)
    worst_half = 0.0
    for n in range(1, 9):
        expected = (
            (-1.0) ** (n + 1)
            * math.factorial(n)
            * (2.0 ** (n + 1) - 1.0)
            * riemann_zeta(n + 1.0)
        )
        worst_half = max(worst_half, abs(polygamma(n, 0.5) - expected) / abs(expected))
    worst_saw = 0.0
    for s in (2.0, 3.0, 5.0):
        for a in (1.0, 1.5, 3.0):
            r = p1_integral(((a, s + 1.0),))
            lhs = a**-s / 2.0 + a ** (1.0 - s) / (s - 1.0) - s * r.value
            worst_saw = max(worst_saw, abs(lhs - hurwitz_zeta(s, a)))
    r = p1_integral(((1.0, 4.0),))
    riemann_gap = abs(0.5 + 0.5 - 3.0 * r.value - riemann_zeta(3.0))
    ok = (
        worst_tel <= 1e-13
        and worst_shift <= 1e-12
        and worst_half <= 1e-12
        and worst_saw <= 1e-9
        and riemann_gap <= 1e-10
    )
    report(
        10,
        "primitive-suite",
        ok,
        f"telescoping {worst_tel:.1e}, shift {worst_shift:.1e}, "
        f"half {worst_half:.1e}, sawtooth {worst_saw:.1e}, zeta3 {riemann_gap:.1e}",
    )
