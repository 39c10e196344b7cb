#!/usr/bin/env python3
"""Tests for tools/trace_stitch.py: two JSONL segments with different pids
and clock bases in one file stitch into one Chrome trace on the earliest
base, with process and thread metadata per pid, that
tools/check_bench_json.py accepts; an input with no events exits 1.
Standard library only. Run through ctest as trace_stitch_selftest.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))
from check_bench_json import check_file  # noqa: E402

BASE = 1_700_000_000_000_000_000  # ns


def meta(pid, process, base):
    return {"name": "trace_meta", "ph": "M", "pid": pid, "ts": 0,
            "args": {"process": process, "base_unix_ns": base}}


def span(name, pid, tid, ts):
    return {"name": name, "cat": "glimpse", "ph": "X", "pid": pid, "tid": tid,
            "ts": ts, "dur": 1.0,
            "args": {"depth": 0, "trace_id": "118d627ac8387f2ece243bda5e27a40b"}}


# The later base comes first, so the stitch must take the minimum base,
# not the first one it reads.
SEGMENTS = [meta(200, "glimpse_client", BASE + 2_500_000),
            span("client.request", 200, 0, 1.5),
            meta(100, "glimpsed", BASE),
            span("server.request", 100, 0, 5.0),
            span("job.run", 100, 3, 7.25)]


def stitch(tmp, lines):
    src, out = tmp / "in.jsonl", tmp / "out.json"
    src.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
    code = subprocess.run([sys.executable, str(TOOLS / "trace_stitch.py"),
                           str(src), "-o", str(out)],
                          capture_output=True).returncode
    return code, out


def main():
    with tempfile.TemporaryDirectory(prefix="trace_stitch_") as tmp:
        tmp = Path(tmp)
        code, out = stitch(tmp, SEGMENTS)
        assert code == 0, f"stitch exited {code}"
        doc = json.loads(out.read_text())
        events = doc["traceEvents"]
        assert doc["stitchOriginUnixNs"] == BASE
        spans = {e["name"]: (e["pid"], e["ts"]) for e in events if e["ph"] == "X"}
        # Rebased onto the earliest base: the client's 2500 us later.
        assert spans == {"client.request": (200, 2501.5),
                         "server.request": (100, 5.0),
                         "job.run": (100, 7.25)}, spans
        names = sorted((e["pid"], e.get("tid", -1), e["args"]["name"])
                       for e in events if e["ph"] == "M")
        assert names == [(100, -1, "glimpsed (pid 100)"),
                         (100, 0, "thread 0"), (100, 3, "thread 3"),
                         (200, -1, "glimpse_client (pid 200)"),
                         (200, 0, "thread 0")], names
        assert [e["ph"] for e in events] == ["M"] * 5 + ["X"] * 3
        check_file(out)
        assert stitch(tmp, [SEGMENTS[0], SEGMENTS[2]])[0] == 1
        assert stitch(tmp, [])[0] == 1
    print("trace_stitch: all cases behaved")
    return 0


if __name__ == "__main__":
    sys.exit(main())
