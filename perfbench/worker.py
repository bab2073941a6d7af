"""Runs one workload in a fresh process that never imports mpmath, so its
peak RSS is the program's own.  Started by run.py; writes a JSON summary.

    python3 perfbench/worker.py --root DIR --workload W --seed N \
        --seconds S --trace 0|1 --out FILE
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
from array import array
from itertools import islice
from time import perf_counter

import calibrate
import tracing as tr
import workloads

# Latency slots are allocated up front so peak RSS does not grow with the
# number of operations a faster program completes.
LATENCY_SLOTS_PER_S = 30_000


def _warm_up(nl):
    """Run every route once so imports and lazy tables are settled."""
    for route in workloads.cross_check_routes(nl.Route, 3, 0.2):
        nl.delta_deriv(3, 0.2, route)
    nl.delta_deriv(3, 0.05)


def _quantile(sorted_vals, q):
    """Linear interpolation between closest ranks (inclusive method)."""
    pos = q * (len(sorted_vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tally_summary(tally):
    return {
        "failed": tally.failed,
        "items": tally.items,
        "item_failures": tally.item_failures,
        "wide_pairs": tally.wide_pairs,
        "samples": tally.samples,
        "route_n_evals": tally.route_n_evals,
        "errors": tally.errors,
    }


def timed_run(wl, seconds):
    """Closed loop over fresh operations for `seconds`, tracing off.

    Each latency is scaled by the machine speed measured while (or just
    before) that operation ran.  With one caller, throughput is operations
    over their summed latencies.
    """
    cap = LATENCY_SLOTS_PER_S * seconds
    lat = array("d", [0.0]) * cap
    tails = []
    tally = workloads.Tally()
    ops = wl.ops()
    n = 0
    with calibrate.Speed() as speed:
        wl.speed = speed  # verify-all scales each suite by it
        t1 = perf_counter()
        deadline = t1 + seconds
        while n < cap and (t1 < deadline or n < wl.min_ops):
            op = next(ops)
            mark = speed.mark()
            t0 = perf_counter()
            parts = wl.run(op, tally, n < wl.sample_ops)
            t1 = perf_counter()
            if parts is None:
                lat[n] = (t1 - t0) * speed.factor_since(mark)
            else:  # the workload timed and scaled its own parts
                lat[n], slowest = parts
                tails.append(slowest)
            n += 1
    peak = _peak_rss_mb()  # before the statistics below allocate
    done = sorted(lat[:n])
    if wl.tail_q is None:
        tail = statistics.median(tails)
    else:
        tail = _quantile(done, wl.tail_q)
    out = _tally_summary(tally)
    out.update(
        ops=n,
        ops_per_s=n / math.fsum(done),
        op_ms_p50=_quantile(done, 0.5) * 1e3,
        op_ms_tail=tail * 1e3,
        speed_factor=speed.factor,
        peak_rss_mb=peak,
        unstable=wl.unstable,
    )
    return out


def _pass(wl, ops, tally, rec=None):
    """Wall time of one pass at the reference speed, and the speed factor."""
    with calibrate.Speed() as speed:
        t0 = perf_counter()
        for i, op in enumerate(ops):
            if rec is not None:
                rec.op = i
            wl.run(op, tally, i < wl.sample_ops)
        wall = perf_counter() - t0
    return wall * speed.factor, speed.factor


def traced_run(nl, wl, seconds, spans_path):
    """One untraced and two traced passes over the same fixed operations.

    Outputs and n_evals must match across all three passes, and every
    counter must match across the two traced ones: tracing may change
    nothing but time.
    """
    n_ops = max(1, wl.traced_ops_per_s * seconds)
    ops = list(islice(wl.ops(), n_ops))
    base = workloads.Tally(keep_fingerprint=True)
    wall_untraced, _ = _pass(wl, ops, base)
    passes = []
    for keep_spans in (True, False):
        rec = tr.Recorder(keep_spans=keep_spans)
        tally = workloads.Tally(keep_fingerprint=True)
        with tr.instrument(rec):
            wall, factor = _pass(wl, ops, tally, rec)
        passes.append((rec, tally, wall, factor))
    (rec_a, tally_a, wall_a, factor_a), (rec_b, tally_b, _, _) = passes
    mismatches = []
    for label, tally in (("traced pass 1", tally_a), ("traced pass 2", tally_b)):
        if tally.fingerprint != base.fingerprint:
            mismatches.append(f"{label}: outputs differ from the untraced pass")
        if tally.route_n_evals != base.route_n_evals:
            mismatches.append(f"{label}: route n_evals differ from the untraced pass")
    if rec_a.counters() != rec_b.counters():
        mismatches.append("the two traced passes disagree on call or eval counts")
    rec_a.write_spans(spans_path)

    metrics = tr.layer_metrics(rec_a, n_ops, factor_a)
    metrics["trace.overhead_frac"] = wall_a / wall_untraced
    builds = []
    with calibrate.Speed() as speed:
        metrics.update(tr.kernel_micro_run(nl._backend.kernels))
        for _ in range(20):
            t0 = perf_counter()
            nl.specfun.SpecialConstants.build()
            builds.append(perf_counter() - t0)
    for name, value in list(metrics.items()):
        if name.endswith(".us_per_call"):
            metrics[name] = value * speed.factor
    metrics["specfun.constants_build_ms"] = statistics.median(builds) * 1e3 * speed.factor
    out = _tally_summary(base)
    out.update(
        ops=n_ops,
        metrics=metrics,
        mismatches=mismatches,
        unstable=wl.unstable,
    )
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(args.root, "src"))
    import nlgamma
    import nlgamma.cli  # noqa: F401  (also binds nlgamma.verify)

    scratch = os.path.dirname(args.out)
    wl = workloads.WORKLOADS[args.workload](nlgamma, args.seed, scratch)
    _warm_up(nlgamma)
    if args.trace:
        spans = os.path.join(scratch, f"spans-{args.workload}-s{args.seed}.csv.gz")
        out = traced_run(nlgamma, wl, args.seconds, spans)
    else:
        out = timed_run(wl, args.seconds)
    out["backend"] = nlgamma.backend_name()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
