"""Self-test of the benchmark itself (not of shapefuse).

Run from the repository root:

    python3 perfbench/selftest.py

It checks BENCHMARK.json against the benchmark contract, the span
recorder's self-time arithmetic and check, and the tail statistic. Then it
runs every workload in smoke mode, traced and untraced, and validates each
result line: every metric named in BENCHMARK.json with its unit, output checks
passed, no failed operation. Finally it runs the benchmark in a directory
holding only BENCHMARK.json and the benchmark's files, where it must fail
without printing a result. Takes about two minutes.
"""

import json
import math
import re
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RUN_TIMEOUT = 180


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([*SPEC["command"], *args], cwd=cwd, capture_output=True,
                          text=True, timeout=RUN_TIMEOUT)


class SpecTest(unittest.TestCase):
    def test_keys_and_limits(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertTrue(1 <= len(SPEC["paths"]) <= 16)
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        self.assertTrue(1 <= len(SPEC["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(SPEC["per_layer"]) <= 128)
        self.assertIsInstance(SPEC["run_seconds"], int)
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        runs = 4 + 22 * len(SPEC["workloads"])
        self.assertLess(runs * (SPEC["run_seconds"] + 15), 3420, "a full measurement must fit in 3420 s")
        names = [m["name"] for m in SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(0 < len(w["why"]) <= 200 and "\n" not in w["why"])
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))

    def test_setup_metric(self):
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in SPEC["end_to_end"]))

    def test_paths_and_command(self):
        for path in SPEC["paths"]:
            self.assertRegex(path, r"^[A-Za-z0-9_.\-/]{1,200}$")
            self.assertFalse(path.startswith("/") or ".." in path.split("/"))
            self.assertTrue((ROOT / path).is_dir())
        self.assertTrue(len(SPEC["command"]) <= 32)
        for arg in SPEC["command"]:
            self.assertFalse(arg.startswith("/") or ".." in arg.split("/"))


class RecorderTest(unittest.TestCase):
    def setUp(self):
        sys.path[:0] = [str(HERE), str(ROOT / "src")]
        import spans

        self.spans = spans

    def test_self_times_add_up_to_root(self):
        rec = self.spans.SpanRecorder()
        with rec.span("op"):
            with rec.span("a"):
                time.sleep(0.002)
                with rec.span("b"):
                    time.sleep(0.002)
            rec.wrap(lambda: time.sleep(0.001), "c")()
        dur, own = rec.durations_ms(), rec.self_ms()
        self.assertEqual(rec.names, ["op", "a", "b", "c"])
        self.assertEqual(rec.parents, [-1, 0, 1, 0])
        self.assertAlmostEqual(own.sum(), dur[0], places=6)
        self.assertTrue((own >= 0).all())
        self.assertAlmostEqual(own[1], dur[1] - dur[2], places=6)
        self.assertEqual(rec.select("b", parent_not="a").tolist(), [])
        self.assertEqual(rec.root_of("a").tolist(), [-1, 1, 1, -1])
        self.assertEqual(rec.root_of("op").tolist(), [0, 0, 0, 0])

    def test_self_time_check_against_measured_op_time(self):
        import harness

        rec = self.spans.SpanRecorder()
        measured = []
        for _ in range(2):
            t0 = time.perf_counter_ns()
            with rec.span("op"):
                rec.wrap(lambda: time.sleep(0.002), "a")()
            measured.append((time.perf_counter_ns() - t0) / 1e6)
        errors, worst = harness.check_self_times(rec, measured)
        self.assertEqual(errors, [])
        self.assertLess(worst, harness.SELF_TIME_GAP_MS)
        errors, _ = harness.check_self_times(rec, [measured[0], measured[1] + 5.0])
        self.assertEqual(len(errors), 1)
        self.assertIn("traced op 1", errors[0])

    def test_tail_percentile(self):
        import report

        self.assertEqual(report.tail([3.0, 1.0, 2.0]), (3.0, 100.0))
        self.assertEqual(report.tail(list(range(20))), (19.0, 100.0))
        value, pct = report.tail(list(range(100)))
        self.assertEqual((value, pct), (89.0, 90.0))  # ten values lie above 89


class SmokeTest(unittest.TestCase):
    def check_result(self, proc, metrics_spec):
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True, proc.stdout[-3000:])
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in metrics_spec})
        for m in metrics_spec:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(isinstance(got["value"], (int, float)) and math.isfinite(got["value"]))
        self.assertIn('"nproc"', proc.stdout.splitlines()[0])  # environment record
        return result

    def test_every_workload_traced_and_untraced(self):
        for w in SPEC["workloads"]:
            for trace, wanted in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
                with self.subTest(workload=w["name"], trace=trace):
                    proc = run_bench(ROOT, "--workload", w["name"], "--seed", "7",
                                     "--seconds", "1", "--trace", trace, "--smoke")
                    result = self.check_result(proc, wanted)
                    if trace == "0":
                        for m in SPEC["end_to_end"]:
                            self.assertGreater(result["metrics"][m["name"]]["value"], 0)

    def test_fails_without_the_package(self):
        bare = HERE / "results" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, bare / path,
                                ignore=shutil.ignore_patterns("results", "__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
            proc = run_bench(bare, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                             "--seconds", "1", "--trace", "0")
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
