#!/usr/bin/env python3
"""Tests of the benchmark's own code.

    python3 perfbench/test_perfbench.py

Checks metric-name validity, the median / p99 / IQR arithmetic, the
bytes_per_session arithmetic and the correctness gate, and smoke-runs every
workload at a tiny size (untraced and traced) to check that each metric
BENCHMARK.json names is printed with its unit.  The smoke runs build
farm_bench on first use, like run.py does.
"""

import io
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
import unittest
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the module under test)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNIT_RE = r"^[A-Za-z0-9_/%.-]{1,16}$"
SMOKE_SESSIONS = 256


def declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


class NameTest(unittest.TestCase):
    def test_declared_names_are_valid_and_unique(self):
        names = [w["name"] for w in SPEC["workloads"]]
        for kind in ("end_to_end", "per_layer"):
            names += [m["name"] for m in SPEC[kind]]
            for metric in SPEC[kind]:
                self.assertRegex(metric["unit"], UNIT_RE)
        for name in names:
            self.assertRegex(name, run.NAME_RE)
        self.assertEqual(len(names), len(set(names)))

    def test_name_regex_rejects_bad_names(self):
        for bad in ("", ".lead", "has space", "slash/name", "x" * 65, "é"):
            self.assertIsNone(run.NAME_RE.match(bad), bad)
        for good in ("setup_s", "sim.queue.push_ns.p50", "a-b", "0x"):
            self.assertIsNotNone(run.NAME_RE.match(good), good)

    def test_workloads_match_run_py(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual(declared("end_to_end"), run.END_TO_END_UNITS)


class StatisticsTest(unittest.TestCase):
    def test_nearest_rank_percentile_in_farm_bench(self):
        """p50 / p99 of every span come from farm_bench's nearest rank."""
        run.build()
        cases = [
            (0.99, list(range(1, 101)), 99),
            (0.50, list(range(1, 101)), 50),
            (0.99, list(range(1000, 0, -1)), 990),
            (0.50, [4, 1, 3, 2], 2),
            (0.99, [7], 7),
            (0.50, [], 0),
        ]
        for q, values, want in cases:
            proc = subprocess.run(
                [str(run.BINARY), "--percentile", str(q)]
                + [str(v) for v in values], stdout=subprocess.PIPE,
                text=True, timeout=60, check=True)
            self.assertEqual(float(proc.stdout), want, (q, values))

    def test_iqr_ratio_matches_statistics_quantiles(self):
        values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 10.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(run.iqr_ratio(values),
                               (q3 - q1) / statistics.median(values))
        # Exclusive method on 1..9: Q1 = 2.5, Q3 = 7.5, median 5.
        self.assertAlmostEqual(run.iqr_ratio(list(range(1, 10))), 1.0)
        self.assertEqual(run.iqr_ratio([4.0] * 10), 0.0)
        self.assertEqual(run.iqr_ratio([4.0]), 0.0)
        self.assertEqual(run.iqr_ratio([0.0, 0.0, 0.0]), 0.0)

    def test_summarize_takes_medians(self):
        rows = [{"a": 3.0, "b": 1.0}, {"a": 1.0, "b": 1.0},
                {"a": 2.0, "b": 1.0}, {"a": 4.0, "b": 1.0}]
        stats = run.summarize(rows)
        self.assertEqual(stats["a"][0], 2.5)
        self.assertEqual(stats["b"], (1.0, 0.0))
        self.assertAlmostEqual(stats["a"][1], run.iqr_ratio([3, 1, 2, 4]))


class ArithmeticTest(unittest.TestCase):
    SAMPLE = {
        "requested": 1000, "completed": 1000, "farm_wall_s": 0.5,
        "farm_cpu_s": 0.25, "peak_rss_bytes": 3 * 2**20,
        "rss_before_bytes": 2**20, "peak_sessions_in_flight": 512,
        "setup_s": 0.002, "probe_s": run.PROBE_REFERENCE_S,
    }

    def test_bytes_per_session(self):
        self.assertEqual(run.bytes_per_session(5000, 1000, 4), 1000.0)
        self.assertEqual(run.bytes_per_session(3 * 2**20, 2**20, 512), 4096.0)
        with self.assertRaises(ValueError):
            run.bytes_per_session(5000, 1000, 0)

    def test_sample_metrics(self):
        m = run.sample_metrics(self.SAMPLE)
        self.assertAlmostEqual(m["sessions_per_s"], 2000.0)
        self.assertAlmostEqual(m["cpu_us_per_session"], 250.0)
        self.assertEqual(m["peak_rss_mb"], 3.0)
        self.assertEqual(m["bytes_per_session"], 4096.0)
        self.assertEqual(m["setup_s"], 0.002)
        self.assertEqual(m["completed_session_ratio"], 1.0)
        self.assertEqual(set(m), set(run.END_TO_END_UNITS))

    def test_sample_metrics_at_reference_speed(self):
        # 1.0 s of wall on a machine at half the reference speed (probe 2x
        # the reference) is 0.5 s at the reference speed.
        slow = dict(self.SAMPLE, farm_wall_s=1.0, farm_cpu_s=0.5,
                    probe_s=2 * run.PROBE_REFERENCE_S)
        m = run.sample_metrics(slow)
        self.assertAlmostEqual(m["sessions_per_s"], 2000.0)
        self.assertAlmostEqual(m["cpu_us_per_session"], 250.0)


class CorrectnessGateTest(unittest.TestCase):
    BASE = {key: 1 for key in run.EXACT_COUNTERS}
    BASE.update(requested=10, completed=10, fabric_messages=5,
                mean_inconsistency=0.1)

    def test_identical_samples_pass(self):
        self.assertEqual(run.check_sample(dict(self.BASE), self.BASE,
                                          "relay_fabric"), [])

    def test_each_failure_is_reported(self):
        cases = {
            "completed": 9,
            "events_executed": 2,
            "mean_inconsistency_bits": 2,
            "mean_inconsistency": 1.5,
        }
        for key, value in cases.items():
            sample = dict(self.BASE, **{key: value})
            self.assertTrue(run.check_sample(sample, self.BASE, "x"), key)
        silent = dict(self.BASE, fabric_messages=0)
        self.assertTrue(run.check_sample(silent, silent, "relay_fabric"))
        self.assertEqual(run.check_sample(silent, silent, "refresh_steady"),
                         [])

    def test_unrepresentative_replica_fails(self):
        layers = {"replica.events_ratio": [0.8, "fraction"],
                  "replica.messages_ratio": [1.0, "fraction"]}
        sample = dict(self.BASE, layers=layers)
        self.assertTrue(run.check_sample(sample, self.BASE, "x"))


class SmokeTest(unittest.TestCase):
    """Tiny-N runs of every workload through run.py's own entry point."""

    @classmethod
    def setUpClass(cls):
        run.build()

    def run_main(self, workload, trace):
        out = io.StringIO()
        with redirect_stdout(out):
            code = run.main(["--workload", workload, "--seed", "7",
                             "--seconds", "0.1", "--trace", str(trace),
                             "--sessions", str(SMOKE_SESSIONS)])
        self.assertEqual(code, 0)
        return out.getvalue().strip().splitlines()

    def check(self, workload, trace, kind):
        lines = self.run_main(workload, trace)
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], lines)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], SMOKE_SESSIONS)
        want = declared(kind)
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, metric in result["metrics"].items():
            self.assertTrue(math.isfinite(metric["value"]), name)
            printed = [l.split() for l in lines[:-1]
                       if l.split()[:1] == [name]]
            self.assertEqual(len(printed), 1, name)
            self.assertEqual(printed[0][2], metric["unit"])
        self.assertTrue(any(l.startswith("provenance: ") for l in lines))
        self.assertTrue(any(l.startswith("accuracy: ") for l in lines))
        return result, lines

    def test_untraced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result, _ = self.check(workload, 0, "end_to_end")
                for name in ("sessions_per_s", "setup_s", "peak_rss_mb"):
                    self.assertGreater(result["metrics"][name]["value"], 0)

    def test_traced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result, lines = self.check(workload, 1, "per_layer")
                self.assertTrue(any("digest" in l for l in lines))
                self.assertGreater(
                    result["metrics"]["trace.overhead_ratio"]["value"], 0)
        fabric = self.check("relay_fabric", 1, "per_layer")[0]["metrics"]
        self.assertGreater(fabric["exp.fabric.epochs"]["value"], 0)
        self.assertGreater(fabric["exp.ring.push_pop_ns.samples"]["value"], 0)

    def test_bare_directory_fails_without_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.ROOT / "perfbench", Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "refresh_steady", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=170, check=False)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
