#!/usr/bin/env python3
"""Compare benchmark --json results against a checked-in baseline.

The bench_* binaries emit, via their --json flag, one file each of the form

    {"benchmark": "bench_perf_clone",
     "meta": {"cpu_model": "...", "nproc": 4, "build_type": "Release",
              "compiler": "gcc 12.2.0", "git_sha": "..."},
     "results": [
      {"op": "BM_CloneDatabase/100", "ns_per_op": 123.4,
       "iterations": 1000, "parallelism": 1}, ...]}

This tool has two subcommands:

  merge <out.json> <in.json...>
      Combine per-binary result files into one baseline file (the shape is a
      JSON array of the per-binary objects). Used to refresh
      BENCH_baseline.json.

  compare --baseline <baseline.json> [--threshold 0.25] <current.json...>
      Diff each (benchmark, op) pair's ns_per_op against the baseline and
      exit 1 when any op regressed by more than the threshold (default 25%).
      An op with several rows (--benchmark_repetitions=N) is compared by the
      median of its rows, on both sides; the output says how many
      repetitions the medians used.
      An op present in the current run but missing from the baseline is an
      ERROR and also exits 1: new benchmarks must land with their baseline
      rows, otherwise the regression gate silently never covers them.
      Baseline ops missing from the current run are reported but don't fail
      (compare is also used against single-binary subsets).
      A benchmark whose baseline and current `meta` differ in CPU model,
      nproc, build type or compiler, or that lacks `meta` on either side,
      gets a loud WARNING on stderr: its ns_per_op were measured on
      different machines or builds. The warning does not change the exit
      code.

CI runs `compare`; a >threshold regression fails the job unless the PR
carries the `perf-regression-ok` label (the workflow checks the label, not
this script — the numbers are always printed either way).
"""

import argparse
import json
import statistics
import sys


# The meta fields that make two runs' ns_per_op comparable; git_sha is
# expected to differ between a baseline and the run it gates.
MACHINE_FIELDS = ("cpu_model", "nproc", "build_type", "compiler")


def load_groups(path):
    """The per-binary objects of a result file or a merged baseline."""
    with open(path) as f:
        data = json.load(f)
    return data if isinstance(data, list) else [data]


def load_repetitions(path):
    """Returns {(benchmark, op): [ns_per_op, ...]} from a per-binary result
    file or a merged baseline (array of per-binary objects). A run with
    --benchmark_repetitions=N writes N rows under the same op name; every
    one is kept, in file order."""
    out = {}
    for group in load_groups(path):
        bench = group["benchmark"]
        for row in group["results"]:
            out.setdefault((bench, row["op"]), []).append(
                float(row["ns_per_op"]))
    return out


def medians(repetitions):
    """{key: [ns_per_op, ...]} -> {key: median ns_per_op}."""
    return {key: statistics.median(values)
            for key, values in repetitions.items()}


def load_results(path):
    """Returns {(benchmark, op): ns_per_op}, the median over an op's
    repeated rows."""
    return medians(load_repetitions(path))


def meta_warnings(baseline_path, current_paths):
    """One line per benchmark present on both sides whose machine metadata
    is missing or differs."""
    baseline = {g["benchmark"]: g.get("meta") for g in
                load_groups(baseline_path)}
    warnings = []
    for path in current_paths:
        for group in load_groups(path):
            bench = group["benchmark"]
            if bench not in baseline:
                continue
            base, cur = baseline[bench], group.get("meta")
            if base is None or cur is None:
                side = "baseline" if base is None else path
                warnings.append(f"{bench}: no machine metadata in {side}")
                continue
            diffs = [f"{field} {base.get(field)!r} != {cur.get(field)!r}"
                     for field in MACHINE_FIELDS
                     if base.get(field) != cur.get(field)]
            if diffs:
                warnings.append(f"{bench}: " + "; ".join(diffs))
    return warnings


def merge(out_path, in_paths):
    groups = []
    for path in in_paths:
        with open(path) as f:
            data = json.load(f)
        groups.extend(data if isinstance(data, list) else [data])
    groups.sort(key=lambda g: g["benchmark"])
    with open(out_path, "w") as f:
        json.dump(groups, f, indent=2, sort_keys=True)
        f.write("\n")
    ops = sum(len(g["results"]) for g in groups)
    print(f"wrote {len(groups)} benchmark(s), {ops} op(s) to {out_path}")
    return 0


def compare(baseline_path, current_paths, threshold):
    warnings = meta_warnings(baseline_path, current_paths)
    if warnings:
        print("=" * 72 + "\nWARNING: the baseline and this run may come from "
              "different machines or builds;\nns_per_op below are not "
              f"comparable until {baseline_path} is re-measured here:",
              file=sys.stderr)
        for line in warnings:
            print(f"WARNING:   {line}", file=sys.stderr)
        print("=" * 72, file=sys.stderr)
    baseline_reps = load_repetitions(baseline_path)
    current_reps = {}
    for path in current_paths:
        current_reps.update(load_repetitions(path))
    baseline = medians(baseline_reps)
    current = medians(current_reps)
    counts = sorted({len(v) for v in (*baseline_reps.values(),
                                      *current_reps.values())})
    if counts:
        used = (str(counts[0]) if len(counts) == 1
                else f"{counts[0]}-{counts[-1]}")
        print(f"comparing medians over {used} repetition(s) per op")

    regressions = []
    unbaselined = []
    rows = []
    for key in sorted(set(baseline) | set(current)):
        bench, op = key
        base = baseline.get(key)
        cur = current.get(key)
        if base is None:
            unbaselined.append(key)
            rows.append(
                (bench, op, base, cur, "ERROR: not in baseline — add a row")
            )
            continue
        if cur is None:
            rows.append((bench, op, base, cur, "missing from current run"))
            continue
        ratio = cur / base if base > 0 else float("inf")
        delta = f"{(ratio - 1) * 100:+.1f}%"
        if ratio > 1 + threshold:
            regressions.append(key)
            rows.append((bench, op, base, cur, f"{delta}  REGRESSION"))
        else:
            rows.append((bench, op, base, cur, delta))

    name_w = max(len(f"{b}/{o}") for b, o, *_ in rows) if rows else 0
    for bench, op, base, cur, verdict in rows:
        name = f"{bench}/{op}"
        base_s = f"{base:12.1f}" if base is not None else " " * 12
        cur_s = f"{cur:12.1f}" if cur is not None else " " * 12
        print(f"{name:<{name_w}}  {base_s}  {cur_s}  {verdict}")

    failed = False
    if unbaselined:
        print(
            f"\nFAIL: {len(unbaselined)} op(s) have no baseline row in "
            f"{baseline_path}:",
            file=sys.stderr,
        )
        for bench, op in unbaselined:
            print(f"  {bench}/{op}", file=sys.stderr)
        print(
            "  (run the bench locally and `bench_compare.py merge` the "
            "result into the baseline)",
            file=sys.stderr,
        )
        failed = True
    if regressions:
        print(
            f"\nFAIL: {len(regressions)} op(s) regressed more than "
            f"{threshold * 100:.0f}% vs {baseline_path}",
            file=sys.stderr,
        )
        failed = True
    if failed:
        return 1
    print(f"\nOK: no op regressed more than {threshold * 100:.0f}%")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_merge = sub.add_parser("merge", help="combine result files into a baseline")
    p_merge.add_argument("out")
    p_merge.add_argument("inputs", nargs="+")

    p_cmp = sub.add_parser("compare", help="diff current results vs baseline")
    p_cmp.add_argument("--baseline", required=True)
    p_cmp.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="allowed fractional slowdown per op (default 0.25 = +25%%)",
    )
    p_cmp.add_argument("current", nargs="+")

    args = parser.parse_args(argv)
    if args.command == "merge":
        return merge(args.out, args.inputs)
    return compare(args.baseline, args.current, args.threshold)


if __name__ == "__main__":
    sys.exit(main())
