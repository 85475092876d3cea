#!/usr/bin/env python3
"""Runs one workload k times and reports each metric's steadiness.

    python3 perfbench/steady.py --workload geo_point [--runs 10] [--seed 1]
        [--same-seed] [--trace 0|1] [--out values.json]

Run i uses seed `--seed + i` (or `--seed` every time with --same-seed, the
setting for paired before/after comparisons). Every run measures for
BENCHMARK.json's run_seconds, so paired runs always match. For every metric
it prints the median, the quartiles (statistics.quantiles(values, n=4)), the
spread (q3 - q1) / median, and the metric's bound from BENCHMARK.json.
`steady` means the spread is below a third of the bound. Exits 1 if any run
fails or reports correct=false.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out", help="write the raw per-run values here")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    units = {}
    for i in range(args.runs):
        seed = args.seed if args.same_seed else args.seed + i
        result = one_run(args.workload, seed, seconds, args.trace)
        if result is None or not result["correct"]:
            print("run %d (seed %d) failed" % (i, seed))
            return 1
        print("run %d seed %d: attempted %d failed %d" %
              (i, seed, result["attempted"], result["failed"]), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print("%-40s %14s %14s %14s %8s %6s  %s" %
          ("metric", "median", "q1", "q3", "spread", "bound", "verdict"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med,) * 3
        spread = (q3 - q1) / med if med else float("inf") if q3 != q1 else 0.0
        bound = bounds.get(name)
        if bound is None:
            verdict = "-"
        elif spread < bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict = "TOO WIDE"
        print("%-40s %14.6g %14.6g %14.6g %8.4f %6s  %s %s" %
              (name, med, q1, q3, spread, "-" if bound is None else bound,
               verdict, units[name]))
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "values": values,
                       "units": units}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
