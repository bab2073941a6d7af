#!/usr/bin/env python3
"""Check every route's error estimate against an mpmath oracle.

The grid is 400 (m, x) draws made as perfbench's cross-check workload
makes them at seed 777 (m uniform on 1..12, x from its four regions),
plus m in {1, 2, 3, 5, 8, 12} at 17 fixed x from -1 + 1e-12 to 1e6,
the Taylor seam at |x| = 0.26 and the old one at 0.125 included, plus,
for m in {1, 6, 12}, each x in [1e-6, 0.26) at which CLOSED's collected
series changes length (the largest x it sums with N terms, and the next
double, with N + 1), plus HURWITZ's pinned points (HURWITZ_PINS) and
LAPLACE's (LAPLACE_PINS) not already on it.  Below 1e-6, where the
fixed grid and the benchmark's draws stop too, RECURRENCE's (m/x)
D^(m-1) step leaves an honest estimate wider than the 1e-6 gate below (3.7e4 of the value at m = 12, x = 7e-20);
tests/test_closed.py checks CLOSED and RECURRENCE at every length-change
point, the tiny ones included.  Every
route is tried at every point; a domain refusal (ValueError) counts as
refused, not as a value.  A value misses when |value - reference| > abs_err_est, the
reference being perfbench/reference.py's mpmath value of D^(m)(x).  One
line per route gives its values, refusals, misses, worst
error-to-estimate ratio (with where), widest estimate relative to the
reference (with where: an estimate can be honest and still too wide to
check anything; only where the reference is a normal double, as below
2^-1022 a few 2^-1074 of absolute floor is as narrow as a value can be
told), total n_evals and the calls that did not converge.
The last lines check gauss_2f1 itself against mpmath's hyp2f1: the
worst relative error over every (a, b, c, z) that reaches it from HYP on
the grid and from one `appendix` suite run, then, for each of its two
evaluators (the series and the log branch), the worst over a seeded grid
of each family tests/test_hyp2f1.py sweeps: a = 1 with integer b in
1..13 and c - b in 1..14, and the diagonal (p, p; p+1; z) for p = 2..12,
each with z uniform on [-30, 0.9]:

    python tools/oracle_report.py

The exit code is 1 if any route misses, fails to converge or has an
estimate wider than 1e-6 of the reference (so the Taylor seam cannot
quietly move back, nor a route turn honest but useless), or if a 2F1
value is off by more than 1e-14 relative (the charge the HYP route puts
on its 2F1 terms); 2 without mpmath.
"""

import math
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import reference  # noqa: E402
import workloads  # noqa: E402
from nlgamma import _ddarith, hyp2f1, verify  # noqa: E402
from nlgamma._backend import kernels  # noqa: E402
from nlgamma.delta import Route, delta_deriv  # noqa: E402

SEED = 777
DRAWS = 400
FIXED_MS = (1, 2, 3, 5, 8, 12)
FIXED_XS = (
    -1.0 + 1e-12, -0.999, -0.9, -0.5, -0.26, -0.125, -0.01, -1e-6,
    1e-6, 0.01, 0.125, 0.26, 0.5, 1.0, 10.0, 1000.0, 1e6,
)
LENGTH_MS = (1, 6, 12)
LENGTH_X_MIN = 1e-6
# HURWITZ's pins (tests/test_hurwitz.py): both sides of x = -1/2 and
# x = 1, where its integral changes variable, 1 + x down to 1e-15, two
# tiny x where a log-variable form misses, and x = 1e9, 1e12, where an
# ulp of the top end ln(1 + x) shows
HURWITZ_PINS = (
    *(
        (m, x)
        for m in (1, 12)
        for x in (
            -0.5, math.nextafter(-0.5, -1.0), 1.0, math.nextafter(1.0, 2.0),
            -1.0 + 1e-12, -1.0 + 1e-15,
        )
    ),
    (11, 3.5256368629591095e-05),
    (11, 3.682837372672322e-05),
    *((m, x) for m in (1, 6, 12) for x in (1e9, 1e12)),
)
# LAPLACE's pins: x = cut_m, past which E_m(y) is m!/y^(m+1) for every
# y >= x t with t >= 1, and the doubles on either side of it, for m in
# LAPLACE_SEAM_MS; and huge x, where the value nears or leaves the
# normal range (it is 0.0 in double at m = 12, x = 1e30)
LAPLACE_SEAM_MS = (1, 6, 12)
LAPLACE_PINS = (
    *(
        (m, y)
        for m in LAPLACE_SEAM_MS
        for x in (kernels._trunc_exp_plan(m)[3],)
        for y in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))
    ),
    *((m, x) for m in (1, 3, 12) for x in (1e30, 1e100, 1e300)),
)
# the widest abs_err_est/|reference| a route may have anywhere
# the reference is at least NORMAL_MIN, the least normal double
WIDEST_MAX = 1e-6
NORMAL_MIN = 2.0**-1022
# delta._hyp charges each 2F1 term 1e-14 of its size
HYP_2F1_CHARGE = 1e-14
FAMILY_DRAWS = 4000
DIAGONAL_DRAWS = 200  # for each p


def grid():
    draws = workloads.draws(random.Random(f"cross-check:{SEED}"))
    points = [next(draws)[:2] for _ in range(DRAWS)]
    points += [(m, x) for m in FIXED_MS for x in FIXED_XS]
    for m in LENGTH_MS:
        limits = _ddarith._table(m)[1]
        points += [
            (m, y)
            for x in limits
            if LENGTH_X_MIN <= x < _ddarith.X_MAX
            for y in (x, math.nextafter(x, 1.0))
        ]
    for pin in (*HURWITZ_PINS, *LAPLACE_PINS):
        if pin not in points:
            points.append(pin)
    return points


def gauss_2f1_args(points):
    """Every (a, b, c, z) that reaches hyp2f1.gauss_2f1, its own recursion
    included, from HYP at `points` and from one `appendix` suite run."""
    seen = set()
    inner = hyp2f1.gauss_2f1

    def recording(a, b, c, z):
        seen.add((a, b, c, z))
        return inner(a, b, c, z)

    hyp2f1.gauss_2f1 = recording
    try:
        for m, x in points:
            try:
                delta_deriv(m, x, Route.HYP)
            except ValueError:
                pass
        verify.run_suite("appendix")
    finally:
        hyp2f1.gauss_2f1 = inner
    return sorted(seen)


def family_grid():
    """Seeded (family, (a, b, c, z)) over the a = 1 and diagonal families."""
    rng = random.Random(f"2f1:{SEED}")
    args = []
    for _ in range(FAMILY_DRAWS):
        b = rng.randint(1, 13)
        c = b + rng.randint(1, 14)
        args.append(("a = 1", (1.0, float(b), float(c), rng.uniform(-30.0, 0.9))))
    for p in range(2, 13):
        for _ in range(DIAGONAL_DRAWS):
            z = rng.uniform(-30.0, 0.9)
            args.append(("diagonal", (float(p), float(p), p + 1.0, z)))
    return args


def relative_error(a, b, c, z):
    ref = reference.mpmath.hyp2f1(a, b, c, z)
    return float(abs(hyp2f1.gauss_2f1(a, b, c, z) - ref) / abs(ref))


def by_evaluator(args):
    """{(family, evaluator): [(error, arg), ...]}, the evaluator ("series"
    or "log branch") being the one that made gauss_2f1's value."""
    inner = hyp2f1._log_branch
    used = []

    def recording(b, c, z):
        used.append(True)
        return inner(b, c, z)

    out = {}
    hyp2f1._log_branch = recording
    try:
        for family, arg in args:
            used.clear()
            err = relative_error(*arg)
            key = (family, "log branch" if used else "series")
            out.setdefault(key, []).append((err, arg))
    finally:
        hyp2f1._log_branch = inner
    return out


def worst(errors):
    return max(errors, key=lambda e: e[0])


def check_2f1(points):
    """Print the 2F1 lines; True if some value is off by over the charge."""
    args = gauss_2f1_args(points)
    with reference.mpmath.workdps(30):
        found = worst([(relative_error(*arg), arg) for arg in args])
        families = by_evaluator(family_grid())
    print(
        f"{'2F1':<10}  values {len(args):4d}  worst {found[0]:.3g} relative "
        f"at (a, b, c, z) = {found[1]!r}"
    )
    failed = found[0] > HYP_2F1_CHARGE
    for (family, name), errors in sorted(families.items()):
        err, at = worst(errors)
        print(
            f"{'2F1 grid':<10}  {family:<8}  {name:<10}  values {len(errors):4d}  "
            f"worst {err:.3g} relative at (a, b, c, z) = {at!r}"
        )
        failed |= err > HYP_2F1_CHARGE
    return failed


def main():
    if reference.mpmath is None:
        print("mpmath is not installed", file=sys.stderr)
        return 2
    points = grid()
    refs = {p: reference.reference_value(*p) for p in sorted(set(points))}
    failed = False
    for route in Route:
        values = refused = misses = evals = unconverged = 0
        worst = (0.0, None, None)  # ratio, m, x
        widest = (0.0, None, None)  # abs_err_est / |reference|, m, x
        for m, x in points:
            try:
                r = delta_deriv(m, x, route)
            except ValueError:
                refused += 1
                continue
            values += 1
            evals += r.n_evals
            unconverged += not r.converged
            err = abs(r.value - refs[m, x])
            if abs(refs[m, x]) >= NORMAL_MIN:
                widest = max(widest, (r.abs_err_est / abs(refs[m, x]), m, x))
            misses += not err <= r.abs_err_est
            if err:
                ratio = err / r.abs_err_est if r.abs_err_est else math.inf
                worst = max(worst, (ratio, m, x))
        print(
            f"{route.value:<10}  values {values:4d}  refused {refused:3d}  "
            f"misses {misses:3d}  worst {worst[0]:.3g} at m={worst[1]} x={worst[2]!r}  "
            f"widest {widest[0]:.3g} at m={widest[1]} x={widest[2]!r}  "
            f"evals {evals}  unconverged {unconverged}"
        )
        too_wide = widest[0] > WIDEST_MAX
        if misses or unconverged or too_wide:
            failed = True
    failed |= check_2f1(points)
    print(f"{len(points)} points, {len(refs)} distinct; seed {SEED}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
