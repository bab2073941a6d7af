"""Named verification suites.

Each suite runs a fixed grid of identity checks and returns a
VerificationReport; the CLI exposes them via `verify --suite NAME`.
Each check carries the tolerance stated with its identity.  `run_suite`'s
`tol` (`verify --tol`) re-judges every check made by
`IdentityResidual.build` against `tol` times the scale that check was
built with; the hand-built checks (signs, inequalities, `A6` and the
asymptotic suite's truncation gaps) have no scale and keep their own.
A check with a quadrature behind it that did not converge fails, under
any `tol`.
"""

from __future__ import annotations

import dataclasses
import math
import time

from . import hyp2f1, quad, specfun
from .delta import (
    Route,
    asymptotic_leading,
    delta,
    delta_deriv,
    delta_deriv_at_one,
    delta_deriv_half_integer,
    frac_rep_prop2,
    integral_delta,
    integral_delta_squared,
    recurrence_residual,
)
from .report import IdentityResidual, VerificationReport

__all__ = ["SUITES", "run_suite"]

ROUTE_GRID_X = (-0.9, -0.5, -0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0)
APPENDIX_GRID_X = (0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 15.0, 20.0)
# A5 multiplies the gap between ln(1+x) and its integral form by x^(-n-1),
# which swamps double precision for x < ~0.3 at large n; sample it away
# from that corner (the identity is exercised, the amplification is not).
A5_GRID_X = (0.0, 0.5, 1.0, 2.5, 5.0, 7.5, 10.0, 15.0, 20.0)


def suite_routes():
    """Pairwise route agreement plus the exact special values."""
    rep = VerificationReport(suite="routes")
    for m in range(1, 9):
        for x in ROUTE_GRID_X:
            routes = [Route.CLOSED, Route.HURWITZ, Route.HYP]
            if x >= 0.0:
                routes.append(Route.LAPLACE)
            vals = [delta_deriv(m, x, r) for r in routes]
            for i in range(len(vals)):
                for j in range(i + 1, len(vals)):
                    a, b = vals[i], vals[j]
                    rep.add(
                        IdentityResidual.build(
                            f"route_{a.route.value}_vs_{b.route.value}",
                            {"m": m, "x": x},
                            a.value,
                            b.value,
                            # max(1e-8 relative, 1e-10 absolute)
                            1e-8,
                            1e-2,
                            a.converged and b.converged,
                        )
                    )
    g = specfun.CONSTANTS.euler_gamma
    rep.add(
        IdentityResidual.build(
            "delta_at_zero", {"x": 0.0}, delta(0.0), -g, 1e-11, 1e-300
        )
    )
    for m in range(1, 9):
        exact = (
            (1.0 if (m - 1) % 2 == 0 else -1.0)
            * math.factorial(m)
            * specfun.CONSTANTS.zeta_values[m + 1]
            / (m + 1.0)
        )
        for route in (Route.HURWITZ, Route.HYP, Route.SERIES):
            r = delta_deriv(m, 0.0, route)
            rep.add(
                IdentityResidual.build(
                    f"deriv_at_zero_{route.value}",
                    {"m": m},
                    r.value,
                    exact,
                    1e-11,
                    1e-300,
                    r.converged,
                )
            )
    rep.add(
        IdentityResidual.build(
            "deriv1_at_one",
            {"m": 1},
            delta_deriv(1, 1.0, Route.CLOSED).value,
            1.0 - g,
            1e-11,
            1e-300,
        )
    )
    rep.add(
        IdentityResidual.build(
            "deriv2_at_one",
            {"m": 2},
            delta_deriv(2, 1.0, Route.CLOSED).value,
            math.pi**2 / 6.0 - 3.0 + 2.0 * g,
            1e-11,
            1e-300,
        )
    )
    return rep


def suite_recurrence():
    """Order-lowering recurrence residuals, base CLOSED."""
    rep = VerificationReport(suite="recurrence")
    for m in range(2, 11):
        for x in ROUTE_GRID_X:
            rep.add(recurrence_residual(m, x))
    return rep


def suite_prop2():
    """Fractional-part representation and the x = 1 closed sums."""
    rep = VerificationReport(suite="prop2")
    for m in range(1, 5):
        for k in range(1, 6):
            lhs, rhs = frac_rep_prop2(m, k)
            tolerance = min(1e-6, lhs.abs_err_est + rhs.abs_err_est + 1e-12)
            rep.add(
                IdentityResidual.build(
                    "frac_rep", {"m": m, "k": k}, lhs.value, rhs.value, tolerance,
                    converged=lhs.converged and rhs.converged,
                )
            )
    for m in range(1, 9):
        rep.add(
            IdentityResidual.build(
                "closed_sum_at_one",
                {"m": m},
                delta_deriv_at_one(m),
                delta_deriv(m, 1.0, Route.CLOSED).value,
                1e-11,
                1e-300,
            )
        )
    return rep


def suite_prop4():
    """The moment integrals of D and D^2 over [0, 1], all routes pairwise."""
    rep = VerificationReport(suite="prop4")
    t = 1e-8
    q, s, e = integral_delta()
    q2, s2 = integral_delta_squared()
    for name, lhs, rhs, quads in (
        ("int_delta_quad_vs_series", q.value, s, (q,)),
        ("int_delta_quad_vs_ei", q.value, e.value, (q, e)),
        ("int_delta_series_vs_ei", s, e.value, (e,)),
        ("int_delta_sq_quad_vs_series", q2.value, s2, (q2,)),
    ):
        converged = all(r.converged for r in quads)
        rep.add(IdentityResidual.build(name, {}, lhs, rhs, t, converged=converged))
    rep.add(
        IdentityResidual(
            identity="int_delta_sq_positive",
            point={},
            lhs=q2.value,
            rhs=0.0,
            residual=q2.value,
            tolerance=0.0,
            passed=q2.value > 0.0,
            converged=q2.converged,
        )
    )
    rep.add(
        IdentityResidual(
            identity="cauchy_schwarz",
            point={},
            lhs=q2.value,
            rhs=q.value**2,
            residual=q2.value - q.value**2,
            tolerance=0.0,
            passed=q2.value >= q.value**2,
            converged=q2.converged and q.converged,
        )
    )
    return rep


def suite_appendix():
    """Hypergeometric identity residuals, the descent check, and the
    near-unit-argument branch continuity."""
    rep = VerificationReport(suite="appendix")
    for tag in ("A1", "A2", "A4", "A5", "T26"):
        for n in range(0, 9):
            for x in A5_GRID_X if tag == "A5" else APPENDIX_GRID_X:
                rep.add(hyp2f1.hyp_identity_residual(tag, n, x))
    for n in range(0, 9):
        for x in (0.1, 0.5, 1.0, 2.0, 10.0):
            descended = hyp2f1.hyp_recurrence_descent(n, x)
            direct = hyp2f1.gauss_2f1(1.0, n + 2.0, n + 3.0, -x)
            rep.add(
                IdentityResidual.build(
                    "A2_descent",
                    {"n": n, "x": x},
                    descended,
                    direct,
                    1e-9,
                    1e-300,
                )
            )
    for n in range(0, 7):
        for i in range(11):
            rep.add(hyp2f1.hyp_identity_residual("A6", n, i / 10.0))
    for abc in hyp2f1.D25_TRIPLES:
        for x in (0.5, 2.0):
            rep.add(hyp2f1.hyp_identity_residual("D25", 0, x, abc=abc))
    # the series against the log branch at z = 0.9, where both apply;
    # gauss_2f1 switches between them by the series' length, not at 0.9
    for n in range(0, 7):
        y = n + 1.0
        for c_minus_b in (1, 2, 3):
            c = y + c_minus_b
            rep.add(
                IdentityResidual.build(
                    f"branch_continuity_cb{c_minus_b}",
                    {"y": y, "z": 0.9},
                    hyp2f1._series(1.0, y, c, 0.9),
                    hyp2f1._log_branch(y, c, 0.9),
                    1e-10,
                    1e-300,
                )
            )
    return rep


def suite_asymptotic():
    """Leading-order ratio convergence along x = 1e2, 1e3, 1e4."""
    rep = VerificationReport(suite="asymptotic")
    for m in range(1, 5):
        gaps = []
        for x in (1e2, 1e3, 1e4):
            v = delta_deriv(m, x, Route.CLOSED).value
            lead = asymptotic_leading(m, x)
            gaps.append(abs(v / lead - 1.0))
            refined = asymptotic_leading(m, x, refine=True)
            rep.add(
                IdentityResidual(
                    identity="refinement_improves",
                    point={"m": m, "x": x},
                    lhs=abs(v - refined),
                    rhs=abs(v - lead),
                    residual=abs(v - refined) - abs(v - lead),
                    tolerance=0.0,
                    passed=abs(v - refined) < abs(v - lead),
                )
            )
        # bounds the truncation gap of the leading form (4e-4 to 1.4e-3
        # for m = 1..4), not rounding, so it has no scale for `tol`
        gap = IdentityResidual.build("ratio_gap_at_1e4", {"m": m}, gaps[2], 0.0, 5e-3)
        rep.add(dataclasses.replace(gap, scale=None))
        rep.add(
            IdentityResidual(
                identity="ratio_gap_monotone",
                point={"m": m},
                lhs=gaps[2],
                rhs=gaps[0],
                residual=max(gaps[2] - gaps[1], gaps[1] - gaps[0]),
                tolerance=0.0,
                passed=gaps[0] > gaps[1] > gaps[2],
            )
        )
    return rep


def suite_halfint():
    """Half-argument closed form against the CLOSED route at x = -1/2."""
    rep = VerificationReport(suite="halfint")
    for m in range(1, 11):
        rep.add(
            IdentityResidual.build(
                "half_integer_closed_form",
                {"m": m},
                delta_deriv_half_integer(m),
                delta_deriv(m, -0.5, Route.CLOSED).value,
                1e-10,
                1e-300,
            )
        )
    return rep


def suite_specfun():
    """Primitive-layer identities: telescoping, the shift equation,
    half-argument polygamma values, derivative consistency, and the
    sawtooth integral representations."""
    rep = VerificationReport(suite="specfun")
    # a = 1.0 and 1.5 (x = 1.0 and 1.5 below) compare the Taylor path
    # (a < 2) with Euler-Maclaurin at a + 1; for a < 1 both sides read the
    # same table entry, so those rows check only the a^-s term
    for s in (1.5, 2.0, 3.25, 10.0):
        for a in (0.1, 0.5, 1.0, 1.5, 2.5, 7.0):
            rep.add(
                IdentityResidual.build(
                    "hurwitz_telescoping",
                    {"s": s, "a": a},
                    specfun.hurwitz_zeta(s, a) - specfun.hurwitz_zeta(s, a + 1.0),
                    a**-s,
                    1e-13,
                    1e-300,
                )
            )
    for j in range(0, 7):
        for x in (0.1, 0.5, 1.0, 1.5, 3.0, 10.0):
            lhs = specfun.polygamma(j, x + 1.0) - specfun.polygamma(j, x)
            rhs = (-1.0) ** j * math.factorial(j) / x ** (j + 1)
            rep.add(
                IdentityResidual.build(
                    "polygamma_shift", {"j": j, "x": x}, lhs, rhs, 1e-12,
                    relative_to=max(
                        abs(specfun.polygamma(j, x + 1.0)), abs(specfun.polygamma(j, x))
                    ),
                )
            )
    for n in range(1, 9):
        rep.add(
            IdentityResidual.build(
                "polygamma_half",
                {"n": n},
                specfun.polygamma(n, 0.5),
                (-1.0) ** (n + 1)
                * math.factorial(n)
                * (2.0 ** (n + 1) - 1.0)
                * specfun.CONSTANTS.zeta_values[n + 1],
                1e-12,
                1e-300,
            )
        )
    h = 1e-5
    for j in range(0, 5):
        for x in (0.5, 1.0, 2.0):
            fd = (specfun.polygamma(j, x + h) - specfun.polygamma(j, x - h)) / (2 * h)
            rep.add(
                IdentityResidual.build(
                    "polygamma_derivative_fd",
                    {"j": j, "x": x},
                    fd,
                    specfun.polygamma(j + 1, x),
                    1e-6,
                    1e-300,
                )
            )
    for s in (2.0, 3.0, 5.0):
        for a in (1.0, 1.5, 3.0):
            p = quad.p1_integral(((a, s + 1.0),))
            lhs = a**-s / 2.0 + a ** (1.0 - s) / (s - 1.0) - s * p.value
            rep.add(
                IdentityResidual.build(
                    "sawtooth_zeta_form",
                    {"s": s, "a": a},
                    lhs,
                    specfun.hurwitz_zeta(s, a),
                    1e-9,
                    converged=p.converged,
                )
            )
    p = quad.p1_integral(((1.0, 4.0),))
    lhs = 0.5 + 0.5 - 3.0 * p.value
    rep.add(
        IdentityResidual.build(
            "riemann_sawtooth_form",
            {"s": 3},
            lhs,
            specfun.riemann_zeta(3.0),
            1e-10,
            converged=p.converged,
        )
    )
    rep.add(
        IdentityResidual.build(
            "euler_gamma_digamma",
            {},
            specfun.CONSTANTS.euler_gamma,
            -specfun.polygamma(0, 1.0),
            1e-14,
        )
    )
    for k in (2, 3, 7, 33, 64):
        rep.add(
            IdentityResidual.build(
                "zeta_table",
                {"k": k},
                specfun.CONSTANTS.zeta_values[k],
                specfun.riemann_zeta(float(k)),
                1e-14,
                1e-300,
            )
        )
    return rep


SUITES = {
    "routes": suite_routes,
    "recurrence": suite_recurrence,
    "prop2": suite_prop2,
    "prop4": suite_prop4,
    "appendix": suite_appendix,
    "asymptotic": suite_asymptotic,
    "halfint": suite_halfint,
    "specfun": suite_specfun,
}


def run_suite(name, tol=None):
    """Run a named suite, re-judging every scaled check against `tol` if
    given; wall time lands in the report's wall_time_ms."""
    if name not in SUITES:
        raise KeyError(name)
    if tol is not None and not 0.0 < tol < math.inf:
        raise ValueError(f"--tol must be positive and finite, got {tol}")
    t0 = time.perf_counter()
    rep = SUITES[name]()
    if tol is not None:
        for check in rep.checks:
            check.rejudge(tol)
    rep.wall_time_ms = int(round((time.perf_counter() - t0) * 1000.0))
    return rep
