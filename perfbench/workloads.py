"""The three workloads: seeded inputs and the code that runs one operation.

Each workload is a closed loop driven by one caller in one process.  The
program only ever sees the generated (m, x) inputs; the seed stays here.
See README.md for why each workload exists and which layers it stresses.
"""

from __future__ import annotations

import io
import math
import os
import random
from contextlib import redirect_stdout
from time import perf_counter

M_MAX = 12
SERIES_SEAM = 0.125  # below it: SERIES for route=None, double-double CLOSED
SEAM_HI = 0.26  # SERIES domain limit; [0.125, 0.26] is the seam band
SMALL_X_MIN = 1e-6  # floor of the log-uniform |x| < 0.125 region
X_MAX = 1e6

# A route pair disagrees when it differs by more than the sum of the two
# error estimates.  A value is wrong when it is off the reference by more
# than this many times its own estimate: the slack lets today's known
# estimate misses (up to ~3x) through and still catches a broken route.
# Route pairs beyond the same slack are listed as defects.
GROSS_SLACK = 100.0


def shuffled_blocks(rng, values):
    """Every value once per block, in a fresh random order each block."""
    block = list(values)
    while True:
        rng.shuffle(block)
        yield from block


def draws(rng, routes=(None,)):
    """(m, x, route): m uniform on 1..12, x from four equally likely
    regions, route uniform over `routes`.

    The three are stratified jointly (every combination once per block)
    so that the mix of cheap and costly draws varies far less from seed to
    seed while each stays uniform.
    """
    cells = [
        (m, region, route)
        for m in range(1, M_MAX + 1)
        for region in range(4)
        for route in routes
    ]
    for m, region, route in shuffled_blocks(rng, cells):
        yield m, draw_x(rng, region), route


def draw_x(rng, region):
    """x in region 0: |x| < 0.125 (log-uniform magnitude), 1: the seam
    band 0.125 <= |x| <= 0.26, 2: (-1, -0.26], 3: (0.26, 1e6] log-uniform."""
    if region == 0:
        mag = math.exp(rng.uniform(math.log(SMALL_X_MIN), math.log(SERIES_SEAM)))
        return mag if rng.random() < 0.5 else -mag
    if region == 1:
        mag = rng.uniform(SERIES_SEAM, SEAM_HI)
        return mag if rng.random() < 0.5 else -mag
    if region == 2:
        return -SEAM_HI - (1.0 - SEAM_HI) * rng.random()
    return math.exp(rng.uniform(math.log(SEAM_HI), math.log(X_MAX)))


def finite(r):
    return math.isfinite(r.value) and math.isfinite(r.abs_err_est)


class Tally:
    """What a pass over some operations produced, for checks and metrics.

    items/item_failures feed fail_frac; failed counts operations with an
    exception or a non-finite result; wide_pairs lists route pairs that
    differ by more than GROSS_SLACK times their summed estimates; samples
    are (m, x, route, value, abs_err_est) rows checked against the mpmath
    reference; fingerprint collects every output so two passes can be
    compared exactly.
    """

    def __init__(self, keep_fingerprint=False):
        self.failed = 0
        self.items = 0
        self.item_failures = 0
        self.wide_pairs = []
        self.samples = []
        self.route_n_evals = {}
        self.fingerprint = [] if keep_fingerprint else None
        self.errors = []

    def error(self, what, exc):
        if len(self.errors) < 5:
            self.errors.append(f"{what}: {exc!r}")

    def add_eval(self, r, m, x, sample):
        key = r.route.value
        self.route_n_evals[key] = self.route_n_evals.get(key, 0) + r.n_evals
        if sample:
            self.samples.append((m, x, key, r.value, r.abs_err_est))
        if self.fingerprint is not None:
            self.fingerprint.append((key, r.value, r.abs_err_est, r.n_evals))


class _Sampled:
    """A workload whose operations are seeded (m, x) draws."""

    unstable = 0  # only verify-all compares printed output across passes

    def __init__(self, nl, seed, scratch_dir):
        del scratch_dir
        self.nl = nl
        self.seed = seed


class Pointwise(_Sampled):
    """Independent (m, x) draws, each evaluated once by delta_deriv.

    Half use route=None (what `eval` and `scan` send), half Route.CLOSED
    (the `table` default).  No two draws share work.
    """

    name = "pointwise"
    tail_q = 0.99
    min_ops = 1000  # at least ten samples beyond the 99th percentile
    traced_ops_per_s = 1000
    sample_ops = 192  # two strata blocks

    def ops(self):
        rng = random.Random(f"pointwise:{self.seed}")
        return draws(rng, routes=(None, self.nl.Route.CLOSED))

    def run(self, op, tally, sample):
        m, x, route = op
        tally.items += 1
        try:
            r = self.nl.delta_deriv(m, x, route)
        except Exception as exc:  # a failed operation is counted, not fatal
            tally.error(f"delta_deriv({m}, {x!r}, {route})", exc)
            tally.failed += 1
            tally.item_failures += 1
            return
        if not finite(r):
            tally.failed += 1
            tally.item_failures += 1
        tally.add_eval(r, m, x, sample)


def cross_check_routes(route_enum, m, x):
    routes = [route_enum.CLOSED, route_enum.HURWITZ, route_enum.HYP]
    if x >= 0.0:
        routes.append(route_enum.LAPLACE)
    if abs(x) <= SEAM_HI:
        routes.append(route_enum.SERIES)
    if m >= 2:
        routes.append(route_enum.RECURRENCE)
    return routes


class CrossCheck(_Sampled):
    """At each seeded (m, x), every applicable route, then every pair of
    routes tested for agreement within the sum of their estimates."""

    name = "cross-check"
    tail_q = 0.90
    min_ops = 100  # at least ten samples beyond the 90th percentile
    traced_ops_per_s = 8
    sample_ops = 96  # two strata blocks

    def ops(self):
        return draws(random.Random(f"cross-check:{self.seed}"))

    def run(self, op, tally, sample):
        m, x, _ = op
        results = []
        op_failed = False
        for route in cross_check_routes(self.nl.Route, m, x):
            tally.items += 1
            try:
                r = self.nl.delta_deriv(m, x, route)
            except Exception as exc:  # a failed operation is counted, not fatal
                tally.error(f"delta_deriv({m}, {x!r}, {route})", exc)
                tally.item_failures += 1
                op_failed = True
                continue
            if not finite(r):
                tally.item_failures += 1
                op_failed = True
                continue
            tally.add_eval(r, m, x, sample)
            results.append(r)
        for i, a in enumerate(results):
            for b in results[i + 1 :]:
                tally.items += 1
                gap = abs(a.value - b.value)
                allowed = a.abs_err_est + b.abs_err_est
                if gap > allowed:
                    tally.item_failures += 1
                if gap > GROSS_SLACK * allowed:
                    tally.wide_pairs.append(
                        f"m={m} x={x!r} {a.route.value}={a.value!r} "
                        f"{b.route.value}={b.value!r}"
                    )
        tally.failed += op_failed


class VerifyAll:
    """One operation is a full pass of the eight `verify` suites, each run
    through cli.main with stdout captured.  The suites fix their own
    grids, so the seed is ignored."""

    name = "verify-all"
    tail_q = None  # fixed population: the tail is the slowest suite
    min_ops = 1
    traced_ops_per_s = 0  # one pass per traced pass
    sample_ops = 0

    def __init__(self, nl, seed, scratch_dir):
        del seed
        self.nl = nl
        self.suites = list(nl.verify.SUITES)
        self.json_path = os.path.join(scratch_dir, "verify-report.json")
        self.first_stdout = {}
        self.unstable = 0
        self.speed = None  # a calibrate.Speed to scale each suite's time by

    def ops(self):
        while True:
            yield None

    def run(self, op, tally, sample):
        """Returns (pass seconds, slowest suite seconds), each suite scaled
        by the machine speed measured while it ran: a pass is long enough
        for the speed to change within it."""
        del op, sample
        pass_s = slowest = 0.0
        pass_failed = False
        for suite in self.suites:
            buf = io.StringIO()
            mark = self.speed.mark() if self.speed else None
            t0 = perf_counter()
            try:
                with redirect_stdout(buf):
                    code = self.nl.cli.main(
                        ["verify", "--suite", suite, "--json", self.json_path]
                    )
            except Exception as exc:  # a failed operation is counted, not fatal
                tally.error(f"verify --suite {suite}", exc)
                code = None
            dt = perf_counter() - t0
            if self.speed:
                dt *= self.speed.factor_since(mark)
            pass_s += dt
            slowest = max(slowest, dt)
            out = buf.getvalue()
            lines = out.splitlines()
            checks = sum(1 for ln in lines if ln.startswith(("PASS ", "FAIL ")))
            fails = sum(1 for ln in lines if ln.startswith("FAIL "))
            tally.items += checks
            tally.item_failures += fails
            if code is None:  # the suite raised: one failing item
                tally.items += 1
                tally.item_failures += 1
            pass_failed = pass_failed or code != 0
            if self.first_stdout.setdefault(suite, out) != out:
                self.unstable += 1
            if tally.fingerprint is not None:
                tally.fingerprint.append((suite, code, out))
        tally.failed += pass_failed
        return pass_s, slowest


WORKLOADS = {w.name: w for w in (Pointwise, CrossCheck, VerifyAll)}
