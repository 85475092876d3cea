#!/usr/bin/env python3
"""Unit tests for bench_compare.py, including the acceptance check that a
synthetic 2x-slower result set fails the comparison."""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_compare


def write_json(directory, name, payload):
    path = os.path.join(directory, name)
    with open(path, "w") as f:
        json.dump(payload, f)
    return path


def result_file(benchmark, ops):
    return {
        "benchmark": benchmark,
        "results": [
            {"op": op, "ns_per_op": ns, "iterations": 100, "parallelism": 1}
            for op, ns in ops.items()
        ],
    }


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = self.tmp.name
        self.baseline = write_json(
            self.dir,
            "baseline.json",
            [
                result_file("bench_perf_clone", {"BM_Clone/100": 1000.0}),
                result_file(
                    "bench_perf_molecule_ops",
                    {"BM_Derive/100/1": 2000.0, "BM_Derive/400/1": 9000.0},
                ),
            ],
        )

    def tearDown(self):
        self.tmp.cleanup()

    def test_identical_results_pass(self):
        current = write_json(
            self.dir,
            "current.json",
            result_file(
                "bench_perf_molecule_ops",
                {"BM_Derive/100/1": 2000.0, "BM_Derive/400/1": 9000.0},
            ),
        )
        clone = write_json(
            self.dir,
            "clone.json",
            result_file("bench_perf_clone", {"BM_Clone/100": 1000.0}),
        )
        self.assertEqual(
            bench_compare.compare(self.baseline, [current, clone], 0.25), 0
        )

    def test_small_slowdown_within_threshold_passes(self):
        current = write_json(
            self.dir,
            "current.json",
            result_file("bench_perf_molecule_ops", {"BM_Derive/100/1": 2400.0}),
        )
        self.assertEqual(bench_compare.compare(self.baseline, [current], 0.25), 0)

    def test_two_x_slower_fails(self):
        # The acceptance check: a synthetic 2x-slower run must fail.
        current = write_json(
            self.dir,
            "slow.json",
            result_file(
                "bench_perf_molecule_ops",
                {"BM_Derive/100/1": 4000.0, "BM_Derive/400/1": 18000.0},
            ),
        )
        self.assertEqual(bench_compare.compare(self.baseline, [current], 0.25), 1)

    def test_threshold_override_tolerates_two_x(self):
        current = write_json(
            self.dir,
            "slow.json",
            result_file("bench_perf_molecule_ops", {"BM_Derive/100/1": 4000.0}),
        )
        self.assertEqual(bench_compare.compare(self.baseline, [current], 1.5), 0)

    def test_op_missing_from_baseline_fails_with_named_error(self):
        # A benchmark result with no baseline row must fail the run and name
        # the offending op, so new benchmarks land together with their
        # baseline entries.
        current = write_json(
            self.dir,
            "current.json",
            result_file("bench_perf_new", {"BM_Fresh/1": 50.0}),
        )
        import io
        import contextlib

        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = bench_compare.compare(self.baseline, [current], 0.25)
        self.assertEqual(rc, 1)
        self.assertIn("no baseline row", err.getvalue())
        self.assertIn("bench_perf_new/BM_Fresh/1", err.getvalue())

    def test_op_missing_from_current_run_still_passes(self):
        # compare is also run against single-binary subsets, so baseline ops
        # absent from the current files are reported but don't fail.
        current = write_json(
            self.dir,
            "current.json",
            result_file("bench_perf_clone", {"BM_Clone/100": 1000.0}),
        )
        self.assertEqual(bench_compare.compare(self.baseline, [current], 0.25), 0)

    def test_merge_roundtrips_through_compare(self):
        a = write_json(
            self.dir, "a.json", result_file("bench_perf_clone", {"BM_Clone/100": 1000.0})
        )
        b = write_json(
            self.dir,
            "b.json",
            result_file("bench_perf_molecule_ops", {"BM_Derive/100/1": 2000.0}),
        )
        merged = os.path.join(self.dir, "merged.json")
        self.assertEqual(bench_compare.merge(merged, [a, b]), 0)
        loaded = bench_compare.load_results(merged)
        self.assertEqual(
            loaded,
            {
                ("bench_perf_clone", "BM_Clone/100"): 1000.0,
                ("bench_perf_molecule_ops", "BM_Derive/100/1"): 2000.0,
            },
        )
        self.assertEqual(bench_compare.compare(merged, [a, b], 0.25), 0)

    def test_repetitions_compare_by_their_median(self):
        # A --benchmark_repetitions=2 run writes two rows per op. The median
        # decides, not the last row: /5000/0 (8.4 and 19.8 ms, median
        # 14.1 ms) is within 25% of 12 ms even though its last row is not,
        # and /100/0 (300 and 100 us, median 200 us) regressed past 120 us
        # even though its last row did not.
        fixture = os.path.join(
            os.path.dirname(os.path.abspath(__file__)),
            os.pardir, "tests", "fixtures", "bench_two_repetitions.json")
        self.assertEqual(
            bench_compare.load_repetitions(fixture),
            {
                ("bench_perf_molecule_ops", "BM_MoleculeDerivation/5000/0"):
                    [8400000.0, 19800000.0],
                ("bench_perf_molecule_ops", "BM_MoleculeDerivation/100/0"):
                    [300000.0, 100000.0],
            },
        )
        baseline = write_json(
            self.dir,
            "repetition_baseline.json",
            result_file(
                "bench_perf_molecule_ops",
                {
                    "BM_MoleculeDerivation/5000/0": 12000000.0,
                    "BM_MoleculeDerivation/100/0": 120000.0,
                },
            ),
        )
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = bench_compare.compare(baseline, [fixture], 0.25)
        self.assertEqual(rc, 1)
        lines = out.getvalue().splitlines()
        self.assertIn("comparing medians over 1-2 repetition(s) per op", lines)
        rows = {line.split()[0]: line for line in lines if "BM_" in line}
        self.assertIn(
            "+66.7%  REGRESSION",
            rows["bench_perf_molecule_ops/BM_MoleculeDerivation/100/0"],
        )
        self.assertTrue(
            rows["bench_perf_molecule_ops/BM_MoleculeDerivation/5000/0"]
            .endswith("+17.5%")
        )

    def test_machine_metadata_mismatch_warns_loudly(self):
        # Same numbers, so the verdict stays OK; only the warning differs:
        # none when the machines match (the SHA may differ), one naming the
        # differing field, and one when either side has no metadata.
        meta = {"cpu_model": "Xeon A", "nproc": 4, "build_type": "Release",
                "compiler": "gcc 12.2.0", "git_sha": "aaa"}

        def run(base_meta, cur_meta):
            base = result_file("bench_perf_clone", {"BM_Clone/100": 1000.0})
            cur = result_file("bench_perf_clone", {"BM_Clone/100": 1000.0})
            if base_meta is not None:
                base["meta"] = base_meta
            if cur_meta is not None:
                cur["meta"] = cur_meta
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                rc = bench_compare.compare(
                    write_json(self.dir, "base.json", [base]),
                    [write_json(self.dir, "cur.json", cur)], 0.25)
            self.assertEqual(rc, 0)
            return err.getvalue()

        self.assertEqual(run(meta, dict(meta, git_sha="bbb")), "")
        mismatch = run(meta, dict(meta, cpu_model="EPYC B", nproc=8))
        self.assertIn("WARNING", mismatch)
        self.assertIn("cpu_model 'Xeon A' != 'EPYC B'", mismatch)
        self.assertIn("nproc 4 != 8", mismatch)
        self.assertNotIn("compiler", mismatch)
        self.assertIn("bench_perf_clone: no machine metadata in baseline",
                      run(None, meta))
        self.assertIn("no machine metadata in", run(meta, None))

    def test_cli_exit_codes(self):
        slow = write_json(
            self.dir,
            "slow.json",
            result_file("bench_perf_clone", {"BM_Clone/100": 2000.0}),
        )
        self.assertEqual(
            bench_compare.main(
                ["compare", "--baseline", self.baseline, slow]
            ),
            1,
        )
        self.assertEqual(
            bench_compare.main(
                ["compare", "--baseline", self.baseline, "--threshold", "1.5", slow]
            ),
            0,
        )


if __name__ == "__main__":
    unittest.main()
