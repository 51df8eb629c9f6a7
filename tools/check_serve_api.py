#!/usr/bin/env python3
"""Validate captures from the pas-exp --serve HTTP API.

Usage:
  check_serve_api.py --status status.json [--expect-state done]
  check_serve_api.py --metrics metrics.json
  check_serve_api.py --events events.sse [--expect-points N] [--allow-gaps]

Any combination of --status / --metrics / --events may be given in one
invocation; each file is checked against the schema documented in
docs/FORMATS.md ("HTTP API"):

  status:   the /api/status object — key set, enum state, counter sanity
            (done_points <= total_points, non-negative everything), and
            the worker-table row shape.
  metrics:  the /api/metrics snapshot — {} (nothing pushed: no --metrics)
            or {"scope":...,"instruments":{...}} whose histograms pass
            check_metrics_schema.py's histogram check, so both checkers
            accept the same shapes (bins empty or count+2 long, summing
            to total; ordered p50/p95/p99 exactly when total > 0).
  events:   a raw /api/events capture (e.g. `curl -N --max-time 5`).
            Frames must parse as `id:`/`event:`/`data:` with one-line
            JSON payloads, sequence ids must be strictly increasing (and
            contiguous unless --allow-gaps), event types must be from
            the documented set, `progress.done` must be monotonic, and
            `point` events must never repeat a point. --expect-points N
            additionally requires exactly N distinct completed points.
            A trailing partial frame (capture cut mid-write) is legal.

Exits non-zero with a pointed message on the first violation.
"""

import argparse
import json
import sys

import check_metrics_schema

STATES = {"idle", "running", "done", "interrupted"}
EVENT_TYPES = {"campaign", "progress", "point", "worker", "shutdown"}
STATUS_KEYS = {
    "state",
    "campaign",
    "total_points",
    "done_points",
    "computed",
    "resumed",
    "replications",
    "elapsed_s",
    "last_seq",
    "points_logged",
    "workers",
}
WORKER_KEYS = {"id", "has_lease", "lease_points_left", "points_done", "hb_age_s"}
CAMPAIGN_EVENTS = {"start", "done", "interrupted"}
WORKER_EVENTS = {"spawn", "crash", "respawn"}


def fail(message):
    print(f"check_serve_api: {message}", file=sys.stderr)
    sys.exit(1)


def load_json(path, what):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        fail(f"{what} {path}: {error}")


def require_uint(obj, key, where):
    value = obj.get(key)
    if not isinstance(value, (int, float)) or isinstance(value, bool) or value < 0:
        fail(f"{where}: {key!r} must be a non-negative number, got {value!r}")
    return value


def check_status(path, expect_state):
    status = load_json(path, "status")
    if not isinstance(status, dict):
        fail(f"status {path}: not a JSON object")
    missing = STATUS_KEYS - set(status)
    if missing:
        fail(f"status {path}: missing keys {sorted(missing)}")
    if status["state"] not in STATES:
        fail(f"status {path}: state {status['state']!r} not in {sorted(STATES)}")
    if expect_state and status["state"] != expect_state:
        fail(f"status {path}: state {status['state']!r}, expected {expect_state!r}")
    for key in (
        "total_points",
        "done_points",
        "computed",
        "resumed",
        "replications",
        "elapsed_s",
        "last_seq",
        "points_logged",
    ):
        require_uint(status, key, f"status {path}")
    if status["done_points"] > status["total_points"]:
        fail(
            f"status {path}: done_points {status['done_points']} exceeds "
            f"total_points {status['total_points']}"
        )
    if status["done_points"] != status["computed"] + status["resumed"]:
        fail(
            f"status {path}: done_points {status['done_points']} != "
            f"computed {status['computed']} + resumed {status['resumed']}"
        )
    workers = status["workers"]
    if not isinstance(workers, list):
        fail(f"status {path}: workers is not a list")
    for index, worker in enumerate(workers):
        if not isinstance(worker, dict) or not WORKER_KEYS <= set(worker):
            fail(f"status {path}: workers[{index}] missing keys (want {sorted(WORKER_KEYS)})")
        if not isinstance(worker["has_lease"], bool):
            fail(f"status {path}: workers[{index}].has_lease is not a bool")
    print(
        f"status OK: state={status['state']} "
        f"done={status['done_points']}/{status['total_points']} "
        f"workers={len(workers)}"
    )


def check_metrics(path):
    snapshot = load_json(path, "metrics")
    if not isinstance(snapshot, dict):
        fail(f"metrics {path}: not a JSON object")
    if not snapshot:
        print("metrics OK: empty snapshot (nothing pushed)")
        return
    if snapshot.get("scope") not in {"campaign", "orchestrator"}:
        fail(f"metrics {path}: scope {snapshot.get('scope')!r} is not campaign/orchestrator")
    instruments = snapshot.get("instruments")
    if not isinstance(instruments, dict):
        fail(f"metrics {path}: instruments is not an object")
    histograms = 0
    for name, value in instruments.items():
        if isinstance(value, dict):
            histograms += 1
            # The body is one line, so the schema checker's line number is 1.
            check_metrics_schema.check_histogram(path, 1, name, value)
        elif not isinstance(value, (int, float)) or isinstance(value, bool):
            fail(f"metrics {path}: instrument {name!r} is neither number nor histogram")
    print(
        f"metrics OK: scope={snapshot['scope']} "
        f"instruments={len(instruments)} histograms={histograms}"
    )


def parse_sse(text):
    """Yield (seq, event_type, payload_text) frames; drop a trailing partial."""
    frames = []
    for block in text.replace("\r\n", "\n").split("\n\n"):
        if not block.strip():
            continue
        seq = event_type = data = None
        for line in block.split("\n"):
            if line.startswith(":"):
                continue  # keep-alive comment
            if line.startswith("id:"):
                seq = line[3:].strip()
            elif line.startswith("event:"):
                event_type = line[6:].strip()
            elif line.startswith("data:"):
                data = line[5:].strip()
            elif line.strip():
                fail(f"events: unrecognized SSE line {line!r}")
        if seq is None and event_type is None and data is None:
            continue  # pure comment block
        frames.append((seq, event_type, data, block))
    # A capture cut off mid-frame legitimately truncates the LAST block only.
    if frames and (frames[-1][0] is None or frames[-1][1] is None or frames[-1][2] is None):
        frames.pop()
    return frames


def check_events(path, expect_points, allow_gaps):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        fail(f"events {path}: {error}")
    frames = parse_sse(text)
    if not frames:
        fail(f"events {path}: no complete SSE frames captured")

    last_seq = None
    last_progress_done = -1
    points_seen = set()
    counts = {}
    for seq_text, event_type, data, block in frames:
        if seq_text is None or event_type is None or data is None:
            fail(f"events {path}: incomplete frame before the end:\n{block}")
        try:
            seq = int(seq_text)
        except ValueError:
            fail(f"events {path}: non-integer id {seq_text!r}")
        if last_seq is not None:
            if seq <= last_seq:
                fail(f"events {path}: id {seq} after {last_seq} is not increasing")
            if not allow_gaps and seq != last_seq + 1:
                fail(f"events {path}: id gap {last_seq} -> {seq} (use --allow-gaps?)")
        last_seq = seq
        if event_type not in EVENT_TYPES:
            fail(f"events {path}: unknown event type {event_type!r} (id {seq})")
        counts[event_type] = counts.get(event_type, 0) + 1
        try:
            payload = json.loads(data)
        except json.JSONDecodeError as error:
            fail(f"events {path}: id {seq} data is not JSON ({error}): {data!r}")
        if not isinstance(payload, dict):
            fail(f"events {path}: id {seq} data is not a JSON object")
        if event_type == "campaign":
            if payload.get("event") not in CAMPAIGN_EVENTS:
                fail(f"events {path}: id {seq} campaign event {payload.get('event')!r}")
        elif event_type == "progress":
            done = require_uint(payload, "done", f"events {path} id {seq}")
            require_uint(payload, "total", f"events {path} id {seq}")
            if done < last_progress_done:
                fail(
                    f"events {path}: id {seq} progress went backwards "
                    f"({last_progress_done} -> {done})"
                )
            last_progress_done = done
        elif event_type == "point":
            point = payload.get("point")
            if not isinstance(point, int) or point < 0:
                fail(f"events {path}: id {seq} point event without a point index")
            if point in points_seen:
                fail(f"events {path}: point {point} completed twice (id {seq})")
            points_seen.add(point)
        elif event_type == "worker":
            if payload.get("event") not in WORKER_EVENTS:
                fail(f"events {path}: id {seq} worker event {payload.get('event')!r}")

    if expect_points is not None and len(points_seen) != expect_points:
        fail(
            f"events {path}: saw {len(points_seen)} distinct completed points, "
            f"expected {expect_points}"
        )
    summary = " ".join(f"{kind}={counts[kind]}" for kind in sorted(counts))
    print(f"events OK: {len(frames)} frames, last id {last_seq}, {summary}")


def main():
    parser = argparse.ArgumentParser(
        description="Validate pas-exp --serve API captures (see docs/FORMATS.md)."
    )
    parser.add_argument("--status", help="captured GET /api/status body")
    parser.add_argument("--expect-state", choices=sorted(STATES))
    parser.add_argument("--metrics", help="captured GET /api/metrics body")
    parser.add_argument("--events", help="raw GET /api/events SSE capture")
    parser.add_argument("--expect-points", type=int)
    parser.add_argument(
        "--allow-gaps",
        action="store_true",
        help="tolerate non-contiguous SSE ids (capture started mid-ring)",
    )
    args = parser.parse_args()
    if not (args.status or args.metrics or args.events):
        parser.error("nothing to check: pass --status, --metrics, and/or --events")
    if args.status:
        check_status(args.status, args.expect_state)
    if args.metrics:
        check_metrics(args.metrics)
    if args.events:
        check_events(args.events, args.expect_points, args.allow_gaps)


if __name__ == "__main__":
    main()
