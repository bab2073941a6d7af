"""Command-line interface.

Subcommands: `eval` (point evaluation), `verify` (identity suites),
`table` (CSV grids), `scan` (sign-pattern certification).  Exit codes:
0 success / all checks pass, 1 verification failures or an `eval` whose
quadrature did not converge (the value is still printed, with a note on
stderr), 2 usage or domain errors, or an output file that cannot be
written (checked before any work, so nothing is printed).  Standard
output is deterministic: fixed 17-significant-digit formatting, fixed
iteration order, no timing information (wall time only goes into JSON
report files).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

from . import verify
from ._ddarith import X_MAX
from .delta import (
    MAX_DERIV_ORDER,
    Route,
    check_complete_monotonicity,
    delta,
    delta_deriv,
)
from .report import fmt17
from .specfun import polygamma

__all__ = ["main"]


class _CliError(Exception):
    """Maps to exit code 2."""


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="nlgamma",
        description="Evaluate ln(Gamma(x+1))/x and its derivatives by "
        "independent routes and verify the identities relating them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate the function or a derivative")
    p_eval.add_argument("--fn", required=True, choices=("delta", "deriv"))
    p_eval.add_argument("--m", type=int, default=1, help="derivative order")
    p_eval.add_argument("--x", type=float, required=True)
    p_eval.add_argument(
        "--route",
        default="AUTO",
        choices=["AUTO"] + [r.value for r in Route],
    )
    p_eval.add_argument("--rel-tol", type=float, default=None)

    p_verify = sub.add_parser("verify", help="run a named identity suite")
    p_verify.add_argument("--suite", required=True)
    p_verify.add_argument("--tol", type=float, default=None)
    p_verify.add_argument("--json", dest="json_path", default=None)

    p_table = sub.add_parser("table", help="emit a CSV grid of values")
    p_table.add_argument("--fn", default="deriv", choices=("delta", "deriv"))
    p_table.add_argument("--m", type=int, default=1)
    p_table.add_argument("--start", type=float, required=True)
    p_table.add_argument("--stop", type=float, required=True)
    p_table.add_argument("--count", type=int, required=True)
    p_table.add_argument("--log", action="store_true", help="log spacing")
    p_table.add_argument(
        "--routes",
        default="AUTO",
        help="comma-separated routes for --fn deriv; AUTO as in `eval --route AUTO`",
    )
    p_table.add_argument("--out", default=None)

    p_scan = sub.add_parser("scan", help="certify the derivative sign pattern")
    p_scan.add_argument("--m-max", type=int, required=True)
    p_scan.add_argument("--start", type=float, required=True)
    p_scan.add_argument("--stop", type=float, required=True)
    p_scan.add_argument("--count", type=int, required=True)
    p_scan.add_argument("--json", dest="json_path", default=None)
    return parser


def _check_writable(path):
    """Refuse an output path that cannot be written before any work is
    done: one in a missing or read-only directory, a directory, or a
    read-only file.  (The write itself can still fail; main maps that
    OSError to exit 2 too.)"""
    if path is None:
        return
    directory = os.path.dirname(path) or "."
    if (
        os.path.isdir(path)
        or not os.access(directory, os.W_OK)
        or (os.path.exists(path) and not os.access(path, os.W_OK))
    ):
        raise _CliError(f"cannot write {path}")


def _grid(start, stop, count, log_spacing):
    for flag, value in (("--start", start), ("--stop", stop)):
        if not math.isfinite(value):
            raise _CliError(f"domain error: {flag} must be finite, got {value}")
    if count < 1:
        raise _CliError("--count must be >= 1")
    if count == 1:
        if start != stop:
            raise _CliError("--count 1 requires start == stop")
        return [start]
    if log_spacing:
        for flag, value in (("--start", start), ("--stop", stop)):
            if value <= 0.0:
                raise _CliError(f"log spacing requires {flag} > 0, got {value}")
        lo, hi = math.log(start), math.log(stop)
        return [math.exp(lo + (hi - lo) * i / (count - 1)) for i in range(count)]
    return [start + (stop - start) * i / (count - 1) for i in range(count)]


def _delta_point(x):
    """D(x), a bound on its error, and the route that produced it.

    On |x| <= X_MAX = 0.26 D is the Taylor form of ln Gamma(1 + x)
    divided by x, labelled SERIES: within 1.2 ulps of D on 20,000 mpmath
    draws over 0.125 <= |x| <= 0.26.  Past it D is ln Gamma(x + 1)/x,
    labelled CLOSED: ln_gamma is good to 3.6 ulps of D there (mpmath,
    60,000 draws over -1 < x <= 1e300, against ln Gamma at the rounded
    x + 1).  Both are charged 6 ulps.  Past the seam rounding x + 1 also
    moves ln Gamma by up to |psi(x + 1)| ulp(x + 1)/2, which dominates
    near D's zero at x = 1.  (x + 1) psi(x + 1) overflows past x =
    2.556e305, where (x + 1)/x rounds to 1, so psi(x + 1) stands for it.
    """
    value = delta(x)
    route = Route.SERIES if abs(x) <= X_MAX else Route.CLOSED
    err = 6.0 * abs(value)
    if route is Route.CLOSED:
        psi = polygamma(0, x + 1.0)
        slope = (x + 1.0) * psi
        err += 2.0 * abs(slope / x if slope != math.inf else psi)
    return value, err * 2.0**-53, route


def _cmd_eval(args):
    if args.rel_tol is not None and not 0.0 < args.rel_tol < math.inf:
        raise _CliError(f"--rel-tol must be positive and finite, got {args.rel_tol}")
    if args.fn == "delta":
        value, err, route = _delta_point(args.x)
        line = (fmt17(value), fmt17(err), route.value, "1")
        converged = True
    else:
        requested = None if args.route == "AUTO" else Route[args.route]
        r = delta_deriv(args.m, args.x, requested, args.rel_tol)
        route = r.route
        line = (fmt17(r.value), fmt17(r.abs_err_est), route.value, str(r.n_evals))
        converged = r.converged
    print("\t".join(line))
    if not converged:
        print(f"note: the {route.value} quadrature did not converge", file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args):
    if args.suite not in verify.SUITES:
        raise _CliError(
            f"unknown suite '{args.suite}' (choose from {', '.join(sorted(verify.SUITES))})"
        )
    _check_writable(args.json_path)
    rep = verify.run_suite(args.suite, tol=args.tol)
    for line in rep.render_lines():
        print(line)
    if args.json_path:
        rep.write_json(args.json_path)
    return 0 if rep.n_fail == 0 else 1


def _cmd_table(args):
    if args.start <= -1.0:
        raise _CliError(f"--start must be > -1, got {args.start}")
    xs = _grid(args.start, args.stop, args.count, args.log)
    names = [r.strip() for r in args.routes.split(",") if r.strip()]
    for name in names:
        if name != "AUTO" and name not in Route.__members__:
            raise _CliError(f"unknown route '{name}'")
    if not names:
        raise _CliError("--routes must name at least one route")
    _check_writable(args.out)
    lines = ["x,route,value,abs_err_est"]
    for x in xs:
        if args.fn == "delta":  # one evaluation of D, whatever --routes names
            value, err, used = _delta_point(x)
            lines.append(f"{fmt17(x)},{used.value},{fmt17(value)},{fmt17(err)}")
            continue
        for name in names:
            used = None if name == "AUTO" else Route[name]
            if x == 0.0 and used is Route.RECURRENCE:
                used = Route.SERIES  # RECURRENCE divides by x
            r = delta_deriv(args.m, x, used)
            lines.append(
                f"{fmt17(x)},{r.route.value},{fmt17(r.value)},{fmt17(r.abs_err_est)}"
            )
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_scan(args):
    if not 1 <= args.m_max <= MAX_DERIV_ORDER:
        raise _CliError(f"--m-max must be in 1..{MAX_DERIV_ORDER}")
    xs = _grid(args.start, args.stop, args.count, False)
    _check_writable(args.json_path)
    t0 = time.perf_counter()
    rep = check_complete_monotonicity(args.m_max, xs)
    rep.wall_time_ms = int(round((time.perf_counter() - t0) * 1000.0))
    for line in rep.render_lines():
        print(line)
    if args.json_path:
        rep.write_json(args.json_path)
    return 0 if rep.n_fail == 0 else 1


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize others
        return int(exc.code) if exc.code else 0
    try:
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "table":
            return _cmd_table(args)
        if args.command == "scan":
            return _cmd_scan(args)
        raise _CliError(f"unknown command {args.command}")
    except (_CliError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
