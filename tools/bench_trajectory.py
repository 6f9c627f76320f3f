#!/usr/bin/env python3
"""Accumulate perf_scale --json snapshots into a bench trajectory.

The tracked BENCH_scale.json used to be overwritten by every CI run: each
`perf_scale --json BENCH_scale.json` clobbered the previous snapshot, so the
"trajectory" never accumulated anything.  This tool fixes that by keeping the
tracked file in a schema-2 envelope --

    {
      "bench": "perf_scale",
      "schema": 2,
      "trajectory": [
        {"label": "pr6", "snapshot": { ... perf_scale --json output ... }},
        {"label": "pr8", "snapshot": { ... }},
        ...
      ]
    }

-- and appending (or replacing, by label) one entry per ingested snapshot.

Commands:
  ingest   --trajectory FILE --snapshot FILE --label NAME
           Append the snapshot under NAME.  An existing entry with the same
           label is replaced (CI re-runs stay idempotent).  A missing
           trajectory file is created; a legacy single-snapshot trajectory
           file (the pre-schema-2 layout) is first wrapped as the "legacy"
           entry so no history is dropped.
  validate --trajectory FILE
           Exit nonzero unless FILE is a well-formed schema-2 trajectory:
           every entry labelled (uniquely) and every snapshot carrying the
           perf_scale event_core/farm tables.
"""

import argparse
import json
import sys


SCHEMA = 2
BENCH = "perf_scale"


def fail(message):
    print(f"bench_trajectory: {message}", file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return None
    except json.JSONDecodeError as error:
        fail(f"{path}: not valid JSON ({error})")


def looks_like_snapshot(data):
    """A raw perf_scale --json payload (legacy trajectory layout)."""
    return (
        isinstance(data, dict)
        and data.get("bench") == BENCH
        and "trajectory" not in data
        and "event_core" in data
        and "farm" in data
    )


def load_trajectory(path):
    """Returns the trajectory envelope, upgrading a legacy file in place."""
    data = load_json(path)
    if data is None:
        return {"bench": BENCH, "schema": SCHEMA, "trajectory": []}
    if looks_like_snapshot(data):
        # Pre-schema-2 file: the lone snapshot becomes the first entry.
        return {
            "bench": BENCH,
            "schema": SCHEMA,
            "trajectory": [{"label": "legacy", "snapshot": data}],
        }
    if not isinstance(data, dict) or data.get("schema") != SCHEMA:
        fail(f"{path}: neither a schema-{SCHEMA} trajectory nor a legacy "
             f"{BENCH} snapshot")
    return data


def check_snapshot(snapshot, where):
    if not isinstance(snapshot, dict):
        fail(f"{where}: snapshot is not an object")
    if snapshot.get("bench") != BENCH:
        fail(f"{where}: snapshot bench is {snapshot.get('bench')!r}, "
             f"expected {BENCH!r}")
    # Older snapshots also carry wheel_ops_per_s and a per-row backend from
    # when the event queue had two backends; extra fields are allowed.
    for table, required in (
        ("event_core", ("workload", "heap_ops_per_s")),
        ("farm", ("workload", "sessions", "events_per_s")),
    ):
        rows = snapshot.get(table)
        if not isinstance(rows, list) or not rows:
            fail(f"{where}: snapshot table {table!r} is missing or empty")
        for index, row in enumerate(rows):
            for field in required:
                if field not in row:
                    fail(f"{where}: {table}[{index}] lacks {field!r}")


def check_trajectory(data, path):
    if data.get("bench") != BENCH:
        fail(f"{path}: bench is {data.get('bench')!r}, expected {BENCH!r}")
    entries = data.get("trajectory")
    if not isinstance(entries, list) or not entries:
        fail(f"{path}: trajectory is missing or empty")
    seen = set()
    for index, entry in enumerate(entries):
        label = entry.get("label")
        if not isinstance(label, str) or not label:
            fail(f"{path}: trajectory[{index}] lacks a label")
        if label in seen:
            fail(f"{path}: duplicate label {label!r}")
        seen.add(label)
        check_snapshot(entry.get("snapshot"), f"{path}:{label}")


def cmd_ingest(args):
    trajectory = load_trajectory(args.trajectory)
    snapshot = load_json(args.snapshot)
    if snapshot is None:
        fail(f"{args.snapshot}: no such file")
    check_snapshot(snapshot, args.snapshot)
    entries = trajectory["trajectory"]
    entry = {"label": args.label, "snapshot": snapshot}
    for index, existing in enumerate(entries):
        if existing.get("label") == args.label:
            entries[index] = entry
            break
    else:
        entries.append(entry)
    check_trajectory(trajectory, args.trajectory)
    with open(args.trajectory, "w", encoding="utf-8") as handle:
        json.dump(trajectory, handle, indent=2)
        handle.write("\n")
    print(f"bench_trajectory: {args.trajectory} now holds "
          f"{len(entries)} entr{'y' if len(entries) == 1 else 'ies'} "
          f"(ingested {args.label!r})")


def cmd_validate(args):
    data = load_json(args.trajectory)
    if data is None:
        fail(f"{args.trajectory}: no such file")
    if not isinstance(data, dict) or data.get("schema") != SCHEMA:
        fail(f"{args.trajectory}: not a schema-{SCHEMA} trajectory")
    check_trajectory(data, args.trajectory)
    labels = ", ".join(e["label"] for e in data["trajectory"])
    print(f"bench_trajectory: {args.trajectory} OK ({labels})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    ingest = commands.add_parser("ingest", help="append/replace a snapshot")
    ingest.add_argument("--trajectory", required=True)
    ingest.add_argument("--snapshot", required=True)
    ingest.add_argument("--label", required=True)
    ingest.set_defaults(func=cmd_ingest)

    validate = commands.add_parser("validate", help="check a trajectory file")
    validate.add_argument("--trajectory", required=True)
    validate.set_defaults(func=cmd_validate)

    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
