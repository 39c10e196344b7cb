#!/usr/bin/env python3
"""Stitch per-process Glimpse trace files into one Chrome trace.

Each Glimpse process (glimpsed, every glimpse_client invocation) appends
its spans to GLIMPSE_TRACE as one JSONL segment, with timestamps on its own
process-local monotonic clock (t = 0 at telemetry init): one "trace_meta"
metadata line ({"name": "trace_meta", "ph": "M", "pid": ..., "args":
{"process": ..., "base_unix_ns": ...}}) followed by one "X" event object
per line. Short-lived processes append, so one file can hold segments from
many pids. This script is the one producer of the Chrome trace document
that chrome://tracing and https://ui.perfetto.dev load.

Every segment carries the wall-clock nanoseconds ("base_unix_ns") captured
at the instant its monotonic base was pinned, so cross-process alignment is
a per-segment shift: all timestamps are rebased onto the earliest base seen
across all inputs. Thread ids are namespaced per pid by Chrome already;
process/thread metadata records are (re)emitted per pid.

Usage:
  tools/trace_stitch.py client.jsonl daemon.jsonl -o stitched.json
  tools/trace_stitch.py trace.jsonl   # writes stitched_trace.json

Prints a per-process event count and the trace ids that cross process
boundaries (the distributed traces the stitch exists to show). Exits 1 when
the inputs hold no events.

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path


class Segment:
    """Events from one process-lifetime, sharing one clock base."""

    def __init__(self, pid: int, process: str, base_unix_ns: int):
        self.pid = pid
        self.process = process
        self.base_unix_ns = base_unix_ns
        self.events: list[dict] = []


def load(path: Path) -> list[Segment]:
    segments: list[Segment] = []
    current: Segment | None = None
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise SystemExit(f"{path}:{lineno}: not JSON: {e}")
        if obj.get("name") == "trace_meta" and obj.get("ph") == "M":
            args = obj.get("args", {})
            current = Segment(
                int(obj.get("pid", 0)),
                str(args.get("process", "glimpse")),
                int(args.get("base_unix_ns", 0)),
            )
            segments.append(current)
        elif obj.get("ph") == "X":
            if current is None:
                raise SystemExit(
                    f"{path}:{lineno}: event before any trace_meta line"
                )
            current.events.append(obj)
    return segments


def stitch(segments: list[Segment]) -> dict:
    bases = [s.base_unix_ns for s in segments if s.events]
    origin = min(bases)
    events: list[dict] = []
    seen_pids: dict[int, str] = {}
    seen_tids: set[tuple[int, int]] = set()
    for seg in segments:
        if not seg.events:
            continue
        shift_us = (seg.base_unix_ns - origin) / 1000.0
        if seg.pid not in seen_pids:
            seen_pids[seg.pid] = seg.process
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": seg.pid,
                    "ts": 0,
                    "args": {"name": f"{seg.process} (pid {seg.pid})"},
                }
            )
        for ev in seg.events:
            tid = ev.get("tid", 0)
            if (seg.pid, tid) not in seen_tids:
                seen_tids.add((seg.pid, tid))
                events.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": seg.pid,
                        "tid": tid,
                        "ts": 0,
                        "args": {"name": f"thread {tid}"},
                    }
                )
            out = dict(ev)
            out["pid"] = seg.pid
            out["ts"] = round(float(ev["ts"]) + shift_us, 3)
            events.append(out)
    events.sort(key=lambda e: (e["ph"] != "M", e.get("ts", 0)))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "stitchOriginUnixNs": origin,
    }


def report(segments: list[Segment]) -> None:
    by_process: dict[str, int] = defaultdict(int)
    trace_pids: dict[str, set[int]] = defaultdict(set)
    for seg in segments:
        by_process[f"{seg.process}/{seg.pid}"] += len(seg.events)
        for ev in seg.events:
            tid = ev.get("args", {}).get("trace_id")
            if tid:
                trace_pids[tid].add(seg.pid)
    for proc, count in sorted(by_process.items()):
        print(f"  {proc}: {count} events", file=sys.stderr)
    crossing = sorted(t for t, pids in trace_pids.items() if len(pids) > 1)
    print(
        f"  {len(trace_pids)} trace ids, {len(crossing)} crossing processes",
        file=sys.stderr,
    )
    for t in crossing:
        print(f"    {t}", file=sys.stderr)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("inputs", nargs="+", type=Path)
    ap.add_argument(
        "-o",
        "--output",
        type=Path,
        default=Path("stitched_trace.json"),
        help="output Chrome trace path (default stitched_trace.json)",
    )
    args = ap.parse_args()

    segments: list[Segment] = []
    for path in args.inputs:
        if not path.exists():
            print(f"trace_stitch: no such file: {path}", file=sys.stderr)
            return 1
        segments.extend(load(path))
    total = sum(len(s.events) for s in segments)
    if total == 0:
        print("trace_stitch: no events in any input", file=sys.stderr)
        return 1

    doc = stitch(segments)
    args.output.write_text(json.dumps(doc) + "\n")
    print(
        f"trace_stitch: {total} events from {len(segments)} segments -> "
        f"{args.output}",
        file=sys.stderr,
    )
    report(segments)
    return 0


if __name__ == "__main__":
    sys.exit(main())
