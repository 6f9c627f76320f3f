#!/usr/bin/env python3
"""Unit tests of tools/bench_trajectory.py (ctest: bench_trajectory_validation).

The load-bearing path is the duplicate-label rejection: `validate` must exit
nonzero on a trajectory carrying the same label twice (silently appending a
duplicate is how a CI re-run used to corrupt the tracked history), while
`ingest` of an existing label REPLACES the entry, keeping re-runs idempotent
and the file forever valid.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "bench_trajectory.py")


def snapshot(tag):
    """A minimal perf_scale --json payload (one row per required table)."""
    return {
        "bench": "perf_scale",
        "quick": True,
        "threads": 2,
        "farm_backend": "heap",
        "event_core": [
            {"workload": tag, "reference_ops_per_s": 1.0,
             "heap_ops_per_s": 2.0, "wheel_ops_per_s": 3.0},
        ],
        "farm": [
            {"workload": tag, "backend": "heap", "sessions": 10,
             "events_per_s": 4.0},
        ],
    }


def heap_only_snapshot(tag):
    """A perf_scale --json payload as written since the event queue has a
    single backend: no wheel_ops_per_s, no per-row backend."""
    data = snapshot(tag)
    del data["farm_backend"]
    del data["event_core"][0]["wheel_ops_per_s"]
    del data["farm"][0]["backend"]
    return data


def footprint_snapshot(tag):
    """A perf_scale --json payload whose scale rows carry the resident-set
    footprint: peak_rss_mb and rss_per_in_flight_bytes, numbers when the
    row raised the process high-water mark and null when it did not."""
    data = heap_only_snapshot(tag)
    data["farm"].append(
        {"workload": "scale SS+RT, 10s window", "sessions": 1050000,
         "peak_sessions_in_flight": 1033000, "events_per_s": 5.0,
         "peak_rss_mb": 1490.5, "rss_per_in_flight_bytes": 1489.0})
    data["farm"].append(
        {"workload": "scale SS+RT shared-relay", "sessions": 1054096,
         "peak_sessions_in_flight": 1037000, "events_per_s": 6.0,
         "peak_rss_mb": None, "rss_per_in_flight_bytes": None})
    return data


def trajectory(labels):
    return {
        "bench": "perf_scale",
        "schema": 2,
        "trajectory": [
            {"label": label, "snapshot": snapshot(label)} for label in labels
        ],
    }


def run_tool(*args):
    return subprocess.run(
        [sys.executable, TOOL, *args], capture_output=True, text=True)


class BenchTrajectoryTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, payload):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        return path

    def test_validate_accepts_unique_labels(self):
        path = self.write("ok.json", trajectory(["pr9", "pr10"]))
        result = run_tool("validate", "--trajectory", path)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("OK", result.stdout)

    def test_validate_rejects_duplicate_labels(self):
        path = self.write("dup.json", trajectory(["pr9", "pr10", "pr9"]))
        result = run_tool("validate", "--trajectory", path)
        self.assertNotEqual(result.returncode, 0)
        self.assertIn("duplicate label", result.stderr)
        self.assertIn("pr9", result.stderr)

    def test_validate_rejects_unlabelled_entry(self):
        payload = trajectory(["pr9"])
        del payload["trajectory"][0]["label"]
        path = self.write("unlabelled.json", payload)
        result = run_tool("validate", "--trajectory", path)
        self.assertNotEqual(result.returncode, 0)
        self.assertIn("lacks a label", result.stderr)

    def test_ingest_replaces_existing_label_instead_of_duplicating(self):
        path = self.write("traj.json", trajectory(["pr9"]))
        snap = self.write("snap.json", snapshot("rerun"))
        for _ in range(2):  # second run must replace, not append
            result = run_tool("ingest", "--trajectory", path,
                              "--snapshot", snap, "--label", "pr9")
            self.assertEqual(result.returncode, 0, result.stderr)
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        labels = [entry["label"] for entry in data["trajectory"]]
        self.assertEqual(labels, ["pr9"])
        self.assertEqual(
            data["trajectory"][0]["snapshot"]["farm"][0]["workload"], "rerun")
        # The rewritten file still validates (no duplicates introduced).
        self.assertEqual(
            run_tool("validate", "--trajectory", path).returncode, 0)

    def test_ingest_accepts_heap_only_snapshot_next_to_older_ones(self):
        path = self.write("traj.json", trajectory(["pr9", "pr10"]))
        snap = self.write("heap.json", heap_only_snapshot("heap-only"))
        result = run_tool("ingest", "--trajectory", path,
                          "--snapshot", snap, "--label", "ci-gcc-Release-heap")
        self.assertEqual(result.returncode, 0, result.stderr)
        result = run_tool("validate", "--trajectory", path)
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_ingest_keeps_the_footprint_fields_of_scale_rows(self):
        path = self.write("traj.json", trajectory(["pr9"]))
        snap = self.write("rss.json", footprint_snapshot("footprint"))
        result = run_tool("ingest", "--trajectory", path, "--snapshot", snap,
                          "--label", "ci-xshard-gcc-Release-heap")
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertEqual(
            run_tool("validate", "--trajectory", path).returncode, 0)
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        rows = data["trajectory"][1]["snapshot"]["farm"]
        self.assertEqual(rows[1]["peak_rss_mb"], 1490.5)
        self.assertEqual(rows[1]["rss_per_in_flight_bytes"], 1489.0)
        self.assertIsNone(rows[2]["peak_rss_mb"])
        self.assertIsNone(rows[2]["rss_per_in_flight_bytes"])

    def test_tracked_trajectory_validates(self):
        tracked = os.path.join(ROOT, "BENCH_scale.json")
        result = run_tool("validate", "--trajectory", tracked)
        self.assertEqual(result.returncode, 0, result.stderr)


if __name__ == "__main__":
    unittest.main()
