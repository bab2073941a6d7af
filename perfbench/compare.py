#!/usr/bin/env python3
"""Summarise benchmark results, or compare a base set with a new set.

    python3 perfbench/compare.py perfbench/.out/results/cross-check-t0-*.json
    python3 perfbench/compare.py BASE.json ... --against NEW.json ...

For each workload and metric it prints the median, the spread (distance
between the first and third quartile as a share of the median) and, with
--against, how much worse the new median is than the base one next to
the bound BENCHMARK.json fixes.  Results from different kernel backends
are never compared: the tool refuses and exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(paths):
    runs = []
    for p in paths:
        with open(p, encoding="utf-8") as fh:
            runs.append(json.load(fh))
    return runs


def by_metric(runs):
    """{(workload, metric): [values]} over the given runs."""
    out = defaultdict(list)
    for r in runs:
        for name, m in r["metrics"].items():
            out[(r["workload"], name)].append(m["value"])
    return out


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", nargs="+")
    ap.add_argument("--against", nargs="+", default=[])
    args = ap.parse_args(argv)
    base, new = load(args.base), load(args.against)
    backends = {r["backend"] for r in base + new}
    if len(backends) > 1:
        print(f"refusing to compare results from backends {sorted(backends)}", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    seeds = sorted({r["seed"] for r in base})
    print(f"backend={backends.pop()} base runs={len(base)} seeds={seeds} new runs={len(new)}")
    print(f"{'workload':12s} {'metric':44s} {'base':>12s} {'spread':>7s}", end="")
    print(f" {'new':>12s} {'spread':>7s} {'worse':>7s} {'bound':>6s}" if new else "")
    new_vals = by_metric(new)
    for (workload, name), values in sorted(by_metric(base).items()):
        med, spr = spread(values)
        line = f"{workload:12s} {name:44s} {med:12.6g} {spr:7.1%}"
        if (workload, name) in new_vals:
            nmed, nspr = spread(new_vals[(workload, name)])
            line += f" {nmed:12.6g} {nspr:7.1%}"
            if name in e2e and med:
                sign = 1.0 if e2e[name]["better"] == "lower" else -1.0
                worse = sign * (nmed - med) / abs(med)
                bound = e2e[name]["bound"]
                verdict = "REGRESSION" if worse > bound else "ok"
                if max(spr, nspr) > bound:
                    verdict = "unresolved"
                line += f" {worse:7.1%} {bound:6.2f} {verdict}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
