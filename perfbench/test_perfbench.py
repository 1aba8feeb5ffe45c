"""Self-test of the benchmark: statistics helpers on fixed inputs, and
seeded generation (same seed, same netlists, job lengths and farm order;
a second seed runs clean).

    python3 perfbench/test_perfbench.py

The generation tests build the harness first (as run.py does).
"""

import json
import statistics
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import stats  # noqa: E402


class StatsTest(unittest.TestCase):
    def test_median_and_quartiles(self):
        xs = [7.0, 1.0, 3.0, 5.0, 9.0, 2.0]
        self.assertEqual(stats.median(xs), 4.0)
        q = statistics.quantiles(xs, n=4)
        self.assertEqual(stats.quartiles(xs), (q[0], q[2]))
        self.assertEqual(stats.quartiles([2.5]), (2.5, 2.5))

    def test_percentile_interpolates(self):
        xs = [10.0, 20.0, 30.0, 40.0, 50.0]
        self.assertEqual(stats.percentile(xs, 0), 10.0)
        self.assertEqual(stats.percentile(xs, 50), 30.0)
        self.assertEqual(stats.percentile(xs, 100), 50.0)
        self.assertAlmostEqual(stats.percentile(xs, 90), 46.0)
        self.assertEqual(stats.percentile([3.0], 99), 3.0)

    def test_tail_percentile_needs_ten_beyond(self):
        self.assertIsNone(stats.tail_percentile([1.0] * 19))
        self.assertEqual(stats.tail_percentile([1.0] * 20), 50)
        self.assertEqual(stats.tail_percentile([1.0] * 99), 50)
        self.assertEqual(stats.tail_percentile([1.0] * 100), 90)
        self.assertEqual(stats.tail_percentile([1.0] * 1000), 99)
        self.assertEqual(stats.tail_percentile([1.0] * 10000), 99.9)

    def test_self_time(self):
        # round [0, 10] holds create [1, 3] and step [2, 6] (overlapping,
        # so [1, 6] is covered once) and step [8, 9]; the first step
        # holds a child [4, 5].
        spans = [(1, 0, 0.0, 10.0), (2, 1, 1.0, 3.0), (3, 1, 2.0, 6.0),
                 (4, 1, 8.0, 9.0), (5, 3, 4.0, 5.0)]
        got = stats.self_times(spans)
        self.assertAlmostEqual(got[1], 10.0 - 5.0 - 1.0)
        self.assertAlmostEqual(got[2], 2.0)
        self.assertAlmostEqual(got[3], 3.0)
        self.assertAlmostEqual(got[4], 1.0)
        self.assertAlmostEqual(got[5], 1.0)


def plan(workload, seed):
    out = subprocess.run(
        [str(run.HARNESS), "--mode", "plan", "--workload", workload,
         "--seed", str(seed)],
        stdout=subprocess.PIPE, check=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


class GenerationTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_same_seed_same_inputs(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                a, b = plan(w, 7), plan(w, 7)
                self.assertEqual(a, b)
                c = plan(w, 8)
                self.assertNotEqual([j["netlist"] for j in a["jobs"]],
                                    [j["netlist"] for j in c["jobs"]])
                self.assertNotEqual([j["cycles"] for j in a["jobs"]],
                                    [j["cycles"] for j in c["jobs"]])

    def test_farm_order_follows_seed(self):
        a, c = plan("farm", 7), plan("farm", 8)
        self.assertNotEqual([j["design"] for j in a["jobs"]],
                            [j["design"] for j in c["jobs"]])
        self.assertEqual(sorted(j["design"] for j in a["jobs"]),
                         sorted(j["design"] for j in c["jobs"]))

    def test_workload_shapes_are_pinned(self):
        # The known defects these workloads expose must not be hidden by
        # resizing them: narrow (and wide) run at P = nproc, the farm at
        # tenants = workers = nproc.
        for w in ("wide", "narrow"):
            p = plan(w, 1)
            self.assertEqual(p["engine"], "netlist.parallel")
            self.assertEqual(p["threads"], p["host_threads"])
        f = plan("farm", 1)
        self.assertEqual(f["engine"], "netlist.compiled")
        self.assertEqual(f["threads"], f["host_threads"])
        self.assertEqual(f["tenants"], f["threads"])

    def test_second_seed_runs_clean(self):
        for w in ("narrow", "farm"):
            with self.subTest(workload=w):
                r = run.run_harness("round", w, 8, False,
                                    run.ROOT / ".bench_build" / "tmp" /
                                    f"selftest-{w}")
                self.assertTrue(r["jobs"])
                self.assertEqual([j["why"] for j in r["jobs"]
                                  if j["failed"]], [])


if __name__ == "__main__":
    unittest.main()
