#!/usr/bin/env python3
"""Check every route's error estimate against an mpmath oracle.

The grid is 400 (m, x) draws made as perfbench's cross-check workload
makes them at seed 777 (m uniform on 1..12, x from its four regions),
plus m in {1, 2, 3, 5, 8, 12} at 17 fixed x from -1 + 1e-12 to 1e6,
the seams at |x| = 0.125 and 0.26 included.  Every route is tried at
every point; a domain refusal (ValueError) counts as refused, not as a
value.  A value misses when |value - reference| > abs_err_est, the
reference being perfbench/reference.py's mpmath value of D^(m)(x).  One
line per route gives its values, refusals, misses, worst
error-to-estimate ratio (with where), widest estimate relative to the
reference (with where: an estimate can be honest and still too wide to
check anything), total n_evals and the calls that did not converge:

    python tools/oracle_report.py

The exit code is 1 if a route other than ASYMPTOTIC, whose estimate is
not a bound, misses or fails to converge; 2 without mpmath.
"""

import math
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import reference  # noqa: E402
import workloads  # noqa: E402
from nlgamma.delta import Route, delta_deriv  # noqa: E402

SEED = 777
DRAWS = 400
FIXED_MS = (1, 2, 3, 5, 8, 12)
FIXED_XS = (
    -1.0 + 1e-12, -0.999, -0.9, -0.5, -0.26, -0.125, -0.01, -1e-6,
    1e-6, 0.01, 0.125, 0.26, 0.5, 1.0, 10.0, 1000.0, 1e6,
)
# its estimate is |refined - lead|, not a bound
NOT_A_BOUND = Route.ASYMPTOTIC


def grid():
    draws = workloads.draws(random.Random(f"cross-check:{SEED}"))
    points = [next(draws)[:2] for _ in range(DRAWS)]
    return points + [(m, x) for m in FIXED_MS for x in FIXED_XS]


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
        if route is not NOT_A_BOUND and (misses or unconverged):
            failed = True
    print(f"{len(points)} points, {len(refs)} distinct; seed {SEED}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
