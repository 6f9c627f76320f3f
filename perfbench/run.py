#!/usr/bin/env python3
"""Session-farm benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload refresh_steady --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  The first run builds
perfbench/farm_bench (and the sigcomp library it links) into .bench_build/.
Each sample is one fresh farm_bench process making one exp::run_session_farm
call; the run keeps starting samples until --seconds have passed and
reports the median of each metric over its samples.  Farm times are taken
at a reference machine speed, measured by a probe around each farm call
(README.md, "Machine-speed normalization").

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced
sample as the reference, then traced samples, and prints the per-layer
metrics (see README.md).  Every sample's bit-exact counters must match the
first sample's; any failed check counts all of that sample's sessions as
failed.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "farm_bench"

WORKLOADS = ("refresh_steady", "arrival_burst", "relay_fabric", "tree_churn")
MIN_SAMPLES = 3
SAMPLE_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# Counters that must repeat bit for bit in every sample of one commit.
EXACT_COUNTERS = (
    "requested",
    "completed",
    "events_executed",
    "messages",
    "peak_sessions_in_flight",
    "receiver_timeouts",
    "mean_inconsistency_bits",
    "fabric_messages",
    "fabric_dropped",
    "fabric_epochs",
    "churn_joins",
    "churn_leaves",
)

END_TO_END_UNITS = {
    "sessions_per_s": "1/s",
    "cpu_us_per_session": "us",
    "peak_rss_mb": "MiB",
    "bytes_per_session": "B",
    "setup_s": "s",
    "completed_session_ratio": "fraction",
}

# Probe time, in seconds, of the reference machine speed that
# sessions_per_s and cpu_us_per_session are expressed at (about the probe's
# median on the 4-core Xeon VM the benchmark was written on).  A constant:
# changing it rescales every recorded value.
PROBE_REFERENCE_S = 0.25

# The replica must represent the farm: events and messages per session
# within this share of the farm's.
REPLICA_TOLERANCE = 0.10

ACCURACY_NOTE = (
    "accuracy: the session farm is not validated against the CTMC model; "
    "no model-error figure is given (see perfbench/README.md)")


class BenchError(Exception):
    """A failure that must end the run without a result line."""


# ------------------------------------------------------------ statistics --

def iqr_ratio(values):
    """(Q3 - Q1) / median, quartiles as statistics.quantiles(n=4) gives;
    0 for fewer than two values or a zero median."""
    if len(values) < 2 or median(values) == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def bytes_per_session(peak_rss_bytes, rss_before_bytes, peak_in_flight):
    """Memory the farm call added at its peak, per concurrent session."""
    if peak_in_flight <= 0:
        raise ValueError("peak_in_flight must be positive")
    return (peak_rss_bytes - rss_before_bytes) / peak_in_flight


def sample_metrics(sample):
    """The six end-to-end metrics of one untraced sample.

    Farm times are taken at the reference machine speed: scaled by
    PROBE_REFERENCE_S / the sample's probe time.
    """
    speed = PROBE_REFERENCE_S / sample["probe_s"]
    completed = sample["completed"]
    return {
        "sessions_per_s": completed / (sample["farm_wall_s"] * speed),
        "cpu_us_per_session": sample["farm_cpu_s"] * speed * 1e6 / completed,
        "peak_rss_mb": sample["peak_rss_bytes"] / 2**20,
        "bytes_per_session": bytes_per_session(
            sample["peak_rss_bytes"], sample["rss_before_bytes"],
            sample["peak_sessions_in_flight"]),
        "setup_s": sample["setup_s"],
        "completed_session_ratio": completed / sample["requested"],
    }


def summarize(rows):
    """Per metric name: (median, IQR / median) over rows of name -> value."""
    return {name: (median([r[name] for r in rows]),
                   iqr_ratio([r[name] for r in rows]))
            for name in rows[0]}


def check_sample(sample, reference, workload):
    """Correctness failures of one sample (empty when it is correct)."""
    failures = []
    if sample["completed"] != sample["requested"]:
        failures.append("completed %d of %d sessions"
                        % (sample["completed"], sample["requested"]))
    if workload == "relay_fabric" and sample["fabric_messages"] <= 0:
        failures.append("relay_fabric carried no fabric messages")
    if sample["events_executed"] <= 0 or sample["messages"] <= 0:
        failures.append("farm executed no events or sent no messages")
    if not 0.0 <= sample["mean_inconsistency"] <= 1.0:
        failures.append("mean inconsistency outside [0, 1]")
    for key in EXACT_COUNTERS:
        if sample[key] != reference[key]:
            failures.append("%s differs between samples: %r != %r"
                            % (key, sample[key], reference[key]))
    layers = sample.get("layers")
    if layers is not None:
        for key in ("replica.events_ratio", "replica.messages_ratio"):
            value = layers[key][0]
            if abs(value - 1.0) > REPLICA_TOLERANCE:
                failures.append("%s = %.4f: the replica does not represent "
                                "the farm" % (key, value))
    return failures


# ------------------------------------------------------------ processes --

def build():
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        raise BenchError("no sigcomp source tree at %s" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", "farm_bench"])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise BenchError("build failed: %s" % " ".join(cmd))


def run_sample(workload, seed, trace, sessions=None):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed)]
    if sessions:
        cmd += ["--sessions", str(sessions)]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=SAMPLE_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError("farm_bench exited with %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("farm_bench printed nothing")
    return json.loads(lines[-1])


def provenance(workload, seed, build_type, samples):
    rev = ""
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True,
                                 timeout=10, check=False).stdout.strip()
        except OSError:
            pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_rev": rev or "unknown (not a git checkout)",
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "seed": seed,
        "build_type": build_type,
        "workload": workload,
        "samples": samples,
    }


# ------------------------------------------------------------------ run --

def measure(workload, seed, seconds, trace, sessions=None):
    """Runs samples for `seconds`; returns (result, provenance, digest)."""
    deadline = time.monotonic() + seconds
    reference = run_sample(workload, seed, False, sessions)
    samples = [] if trace else [reference]
    while (len(samples) < (1 if trace else MIN_SAMPLES)
           or time.monotonic() < deadline):
        samples.append(run_sample(workload, seed, trace, sessions))

    attempted = failed = 0
    problems = []
    for sample in ([reference] + samples) if trace else samples:
        issues = check_sample(sample, reference, workload)
        attempted += sample["requested"]
        if issues:
            failed += sample["requested"]
            problems.extend(issues)
        else:
            failed += sample["requested"] - sample["completed"]
    for problem in sorted(set(problems)):
        print("check failed: " + problem)

    if trace:
        units = {name: v[1] for name, v in samples[0]["layers"].items()}
        stats = summarize([{name: v[0] for name, v in s["layers"].items()}
                           for s in samples])
    else:
        units = END_TO_END_UNITS
        stats = summarize([sample_metrics(s) for s in samples])
        if failed:
            stats["completed_session_ratio"] = (
                (attempted - failed) / attempted, 0.0)
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": stats[name][0], "unit": unit}
                    for name, unit in units.items()},
    }
    spreads = {name: stats[name][1] for name in units}
    prov = provenance(workload, seed, reference["build_type"], len(samples))
    digest = samples[0].get("digest")
    return result, spreads, prov, digest


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sessions", type=int, default=None,
                        help="override the workload size (smoke tests)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        build()
        result, spreads, prov, digest = measure(
            args.workload, args.seed, args.seconds, bool(args.trace),
            args.sessions)
    except (BenchError, subprocess.TimeoutExpired, ValueError,
            KeyError) as err:
        print("perfbench: %s" % err, file=sys.stderr)
        return 1
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(ACCURACY_NOTE)
    if digest is not None:
        print("per-session FNV-1a digest: " + digest)
    for name, metric in result["metrics"].items():
        print("%-40s %-14.6g %-9s IQR/median %.4f over %d samples"
              % (name, metric["value"], metric["unit"], spreads[name],
                 prov["samples"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
