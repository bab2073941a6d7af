#!/usr/bin/env python3
"""nlgamma benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload pointwise|cross-check|verify-all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing needs building.  With
--trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
ones; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.  Every run also writes its
full result, with backend, Python version, nproc and seed, under
perfbench/.out/results/ for compare.py.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"
CACHE = HERE / ".cache"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import reference  # noqa: E402
from workloads import GROSS_SLACK, WORKLOADS  # noqa: E402

WORKER_TIMEOUT_S = 150
SETUP_RUNS = 11
COLD_START_RUNS = 5
BURST_S = 0.02

SETUP_SNIPPET = """\
import sys, time
sys.path[:0] = [{src!r}, {here!r}]
import calibrate
speed = calibrate.Speed()
speed.burst({burst})
t0 = time.perf_counter()
import nlgamma
nlgamma.delta_deriv(1, 0.5)
elapsed = time.perf_counter() - t0
speed.burst({burst})
print(elapsed * speed.factor)
"""

# Declared in BENCHMARK.json, so every workload reports all of them; the
# worker has already scaled the times to the reference speed.
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
)

# The same figures under the names each workload's users think in.
ALIASES = {
    "pointwise": (
        ("evals_per_s", "1/s", "ops_per_s", 1.0),
        ("eval_us_p50", "us", "op_ms_p50", 1e3),
        ("eval_us_p99", "us", "op_ms_tail", 1e3),
    ),
    "cross-check": (
        ("points_per_s", "1/s", "ops_per_s", 1.0),
        ("point_ms_p50", "ms", "op_ms_p50", 1.0),
        ("point_ms_p90", "ms", "op_ms_tail", 1.0),
    ),
    "verify-all": (
        ("verify_s", "s", "op_ms_p50", 1e-3),
        ("slowest_suite_s", "s", "op_ms_tail", 1e-3),
    ),
}

PER_LAYER_UNITS = (
    (".calls_per_op", "calls/op"),
    (".us_per_call", "us"),
    (".kept_panel_ratio", "ratio"),
    (".overhead_frac", "ratio"),
    (".calls", "count"),
    (".n_evals", "count"),
    (".nonconverged", "count"),
    (".checks", "count"),
    ("_ms", "ms"),
    (".ms", "ms"),
    (".ms_p50", "ms"),
)


def per_layer_unit(name):
    for suffix, unit in PER_LAYER_UNITS:
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def _child_runs(argv, runs, env=None):
    """(stdout, wall seconds, speed factor) of `runs` fresh processes, after
    one discarded warm run that leaves the bytecode cache filled.  The
    machine speed is sampled in bursts just before and after each one."""
    out = []
    for i in range(runs + 1):
        speed = calibrate.Speed()
        speed.burst(BURST_S)
        t0 = time.perf_counter()
        done = subprocess.run(
            argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
        )
        wall = time.perf_counter() - t0
        speed.burst(BURST_S)
        if done.returncode != 0:
            raise RuntimeError(f"{argv[1:]} failed: {done.stderr.strip()}")
        if i:
            out.append((done.stdout, wall, speed.factor))
    return out


def setup_seconds():
    """Fresh interpreter: `import nlgamma` through the first value returned,
    timed and speed-scaled inside the child."""
    code = SETUP_SNIPPET.format(src=str(ROOT / "src"), here=str(HERE), burst=BURST_S)
    runs = _child_runs([sys.executable, "-c", code], SETUP_RUNS)
    return statistics.median(float(stdout) for stdout, _, _ in runs)


def cli_cold_start_ms():
    """Wall time of a fresh `python -m nlgamma.cli eval` process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    argv = [sys.executable, "-m", "nlgamma.cli", "eval", "--fn", "deriv"]
    argv += ["--m", "1", "--x", "0.5"]
    runs = _child_runs(argv, COLD_START_RUNS, env=env)
    return statistics.median(wall * factor for _, wall, factor in runs) * 1e3


def run_worker(args, out_path):
    argv = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT)]
    argv += ["--workload", args.workload, "--seed", str(args.seed)]
    argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    argv += ["--out", str(out_path)]
    done = subprocess.run(argv, cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with code {done.returncode}")
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def check_samples(samples, refs):
    """(bound misses, gross misses) of sampled values against the reference."""
    misses = gross = 0
    for m, x, _route, value, est in samples:
        err = abs(value - refs[(m, x)])
        misses += err > est
        gross += err > GROSS_SLACK * est
    return misses, gross


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "nlgamma" / "__init__.py").is_file():
        print(f"error: no nlgamma sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    metrics = {}
    if args.trace:
        metrics["cli.cold_start_ms"] = cli_cold_start_ms()
    else:
        metrics["setup_s"] = setup_seconds()
    w = run_worker(args, OUT / f"worker-{args.workload}.json")
    env["backend"] = w["backend"]
    if args.trace:
        metrics.update(w["metrics"])
    else:
        for name, _unit in END_TO_END:
            metrics[name] = w[name]

    refs = reference.references(
        {(m, x) for m, x, *_ in w["samples"]},
        str(CACHE / f"ref-{args.workload}-s{args.seed}.json"),
    )
    problems = []
    if w["failed"]:
        problems.append(f"{w['failed']} operations raised or returned non-finite values")
        problems += w["errors"]
    if w["unstable"]:
        problems.append(f"{w['unstable']} suite runs printed different stdout")
    problems += w.get("mismatches", [])
    bound_miss = None
    if refs is not None and w["samples"]:
        misses, gross = check_samples(w["samples"], refs)
        bound_miss = misses / len(w["samples"])
        if gross:
            problems.append(f"{gross} values off by >{GROSS_SLACK:g}x their estimates")
    correct = not problems
    fail_frac = w["item_failures"] / w["items"] if w["items"] else 0.0

    units = dict(END_TO_END)
    units["setup_s"] = "s"
    result_metrics = {
        name: {
            "value": value,
            "unit": units[name] if name in units else per_layer_unit(name),
        }
        for name, value in metrics.items()
    }
    print(
        f"# nlgamma benchmark: workload={args.workload} seed={args.seed} "
        f"trace={args.trace} backend={env['backend']} python={env['python']} "
        f"nproc={env['nproc']} ops={w['ops']}"
    )
    for name, m in sorted(result_metrics.items()):
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if "speed_factor" in w:
        print(f"speed_factor = {w['speed_factor']:.4g}  (mean over the timed loop)")
    if not args.trace:
        for alias, unit, source, scale in ALIASES[args.workload]:
            print(f"{alias} = {metrics[source] * scale:.6g} {unit}  (as {source})")
    print(f"fail_frac = {fail_frac:.6g} ratio  ({w['item_failures']}/{w['items']})")
    if args.workload != "verify-all":
        if bound_miss is None:
            print("bound_miss_frac = unavailable (mpmath not installed)")
        else:
            print(
                f"bound_miss_frac = {bound_miss:.6g} ratio  "
                f"(over {len(w['samples'])} sampled evaluations)"
            )
    if w["wide_pairs"]:
        print(
            f"DEFECT: {len(w['wide_pairs'])} route pairs differ by more than "
            f"{GROSS_SLACK:g}x their summed estimates, first: {w['wide_pairs'][0]}"
        )
    for p in problems:
        print(f"CHECK FAILED: {p}")

    summary = {
        "correct": correct,
        "attempted": w["ops"],
        "failed": w["failed"],
        "metrics": result_metrics,
    }
    record = dict(env, **summary)
    record.update(
        fail_frac=fail_frac,
        bound_miss_frac=bound_miss,
        speed_factor=w.get("speed_factor"),
        problems=problems,
    )
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results / f"{args.workload}-t{args.trace}-s{args.seed}-{stamp}-{os.getpid()}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
