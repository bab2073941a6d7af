#!/usr/bin/env python3
"""Print one sha256 over the outputs of the quadrature and closed routes.

2,400 seeded (m, x) draws, m uniform on 1..12 and x taken in turn from
the four regions perfbench samples, by its own `workloads.draw_x`
(|x| < 0.125 log-uniform from 1e-6, the seam band 0.125 <= |x| <= 0.26,
(-1, -0.26], and (0.26, 1e6] log-uniform), each go through HURWITZ, LAPLACE, HYP, RECURRENCE and
CLOSED.  Every (value, abs_err_est, n_evals, converged), or the name of
the exception a route raised, is hashed in a fixed order.  One line per
route comes first, then the line over all of them, so a change that
claims to leave the routes bit for bit as they were prints the same last
line on both commits, and a change that means to move one route shows
which lines moved.  Each route's line also gives, outside the hashed
text, its total n_evals over the draws (0 for a draw that raised) and
how many `quad.integrate_finite` calls it made, counted by wrapping that
function here (LAPLACE's include the moment table's, 13 a table, one
table for each m on first use), and its CPU ms over all the draws, with
that wrapper removed.  LAPLACE's line also gives how many of its calls
took the closed path from x = cut_m on (`delta._laplace_closed`),
which has no quadrature.  A stage split gives the ms spent inside each of
`quad.integrate_finite`, `quad._sawtooth_tail` and
`kernels.laplace_panel`, each wrapped by a CPU timer, so a change that
keeps every n_evals still shows where the time moved, down to the stage.
`laplace_panel` runs inside `integrate_finite`, so its timer's own cost,
a microsecond or two a panel, lands in the latter's figure.

The timed passes run after the hashed one and are interleaved: each of
the five passes runs every route in turn, once bare and once with the
stage timers, and each column reports its best over the passes.  So
every column is sampled across the same stretch of the run, and a slow
spell of the machine weighs on all the columns alike, not on one route's:

    python tools/route_digest.py
"""

import hashlib
import math
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from nlgamma import quad  # noqa: E402
from nlgamma._backend import kernels  # noqa: E402
from nlgamma.delta import Route, delta_deriv  # noqa: E402
from workloads import draw_x  # noqa: E402

route_module = sys.modules["nlgamma.delta"]  # the package exports a function `delta`

DRAWS = 2400
SEED = 20260
ROUTES = (Route.HURWITZ, Route.LAPLACE, Route.HYP, Route.RECURRENCE, Route.CLOSED)
TIMED_PASSES = 5
# (module, function) pairs timed by the stage split, in column order
STAGES = (
    (quad, "integrate_finite"),
    (quad, "_sawtooth_tail"),
    (kernels, "laplace_panel"),
)


def timed_columns(draws):
    """{route: {column: CPU ms}} over the draws, each column the best of
    TIMED_PASSES interleaved passes: column "total" is the route run bare,
    and one column per STAGES name the ms inside that function."""
    best = {route: {} for route in ROUTES}
    for _ in range(TIMED_PASSES):
        for route in ROUTES:
            start = time.process_time()
            _run(route, draws)
            ms = {"total": (time.process_time() - start) * 1e3}
            ms.update(_stage_pass(route, draws))
            for column, value in ms.items():
                best[route][column] = min(best[route].get(column, math.inf), value)
    return best


def _run(route, draws):
    for m, x in draws:
        try:
            delta_deriv(m, x, route)
        except ValueError:
            pass


def _stage_pass(route, draws):
    """{name: CPU ms inside module.name} for STAGES over one pass of the
    draws."""
    spent = {name: 0.0 for _, name in STAGES}
    originals = {name: getattr(module, name) for module, name in STAGES}

    def timed(name):
        fn = originals[name]

        def wrapper(*args, **kwargs):
            start = time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[name] += time.process_time() - start

        return wrapper

    for module, name in STAGES:
        setattr(module, name, timed(name))
    try:
        _run(route, draws)
    finally:
        for module, name in STAGES:
            setattr(module, name, originals[name])
    return {name: ms * 1e3 for name, ms in spent.items()}


def main():
    rng = random.Random(SEED)
    draws = []
    sha = hashlib.sha256()
    per_route = {route: hashlib.sha256() for route in ROUTES}
    evals = dict.fromkeys(ROUTES, 0)
    calls = dict.fromkeys(ROUTES, 0)
    integrate_finite = quad.integrate_finite
    laplace_closed = route_module._laplace_closed
    closed_calls = 0

    def counted(*args, **kwargs):
        calls[route] += 1  # the route of the draw being run
        return integrate_finite(*args, **kwargs)

    def counted_closed(*args, **kwargs):
        nonlocal closed_calls
        closed_calls += 1
        return laplace_closed(*args, **kwargs)

    quad.integrate_finite = counted
    route_module._laplace_closed = counted_closed
    for i in range(DRAWS):
        m = rng.randint(1, 12)
        x = draw_x(rng, i % 4)
        draws.append((m, x))
        for route in ROUTES:
            try:
                r = delta_deriv(m, x, route)
                row = (r.value, r.abs_err_est, r.n_evals, r.converged)
                evals[route] += r.n_evals
            except ValueError as exc:
                row = type(exc).__name__
            line = f"{m} {x!r} {route.value} {row!r}\n".encode()
            sha.update(line)
            per_route[route].update(line)
    quad.integrate_finite = integrate_finite
    route_module._laplace_closed = laplace_closed
    columns = timed_columns(draws)
    for route, route_sha in per_route.items():
        stages = columns[route]
        closed = f"  {closed_calls} closed-path calls" if route is Route.LAPLACE else ""
        print(
            f"{route_sha.hexdigest()}  {route.value}  {evals[route]} evals"
            f"  {calls[route]} integrate_finite calls{closed}"
            f"  {stages['total']:.0f} CPU ms"
            f" ({stages['integrate_finite']:.0f} in integrate_finite,"
            f" {stages['_sawtooth_tail']:.0f} in _sawtooth_tail,"
            f" {stages['laplace_panel']:.0f} in laplace_panel)"
        )
    print(f"{sha.hexdigest()}  {DRAWS} draws")
    return 0


if __name__ == "__main__":
    sys.exit(main())
