#!/usr/bin/env python3
"""Selftests for tools/check_bench_json.py: every gate semantic of the bench
report (each op, skip by needs, hardware_concurrency 0, status and pass
mismatches, missing and unknown fields, the generic number rules), the
unrecognised-file rejection, and the trace and metrics validators.
Standard library only; exit status 0 iff every case behaves. Run through
ctest as check_bench_json_selftest (label tooling).
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from check_bench_json import (SCHEMA_VERSION, ValidationError,  # noqa: E402
                              check_file)


def _gate(name, value, op, threshold, status, **needs):
    return {"name": name, "value": value, "op": op, "threshold": threshold,
            "needs": needs, "status": status}


def _report(*gates, hardware_concurrency=8, pool_threads=4, **fields):
    host = {"hardware_concurrency": hardware_concurrency,
            "pool_threads": pool_threads, "simd_compiled": True,
            "simd_enabled": True}
    doc = {"bench": "selftest", "schema": SCHEMA_VERSION, "host": host,
           "wall_s": 1.25, "params": {"max_trials": 64, "tuner": "random"},
           "rows": [{"name": "a", "wall_ms": 2.5, "valid_frac": 0.5}],
           "gates": list(gates),
           "pass": all(g["status"] != "fail" for g in gates)}
    return json.dumps(dict(doc, **fields))


SPEEDUP_NEEDS = {"pool_threads": 4, "hardware_concurrency": 4}
GOOD = [_gate("speedup", 3.5, ">=", 3.0, "pass", **SPEEDUP_NEEDS),
        _gate("reduction_error", 0.0, "<=", 0.05, "pass"),
        _gate("completed", 48, "==", 48, "pass"),
        _gate("identical", True, "==", True, "pass")]
SLOW = _gate("speedup", 2.5, ">=", 3.0, "fail", **SPEEDUP_NEEDS)
SKIP = dict(SLOW, status="skip")

VALID_TRACE = {
    "displayTimeUnit": "ms",
    "traceEvents": [
        {"name": "session.run", "cat": "glimpse", "ph": "X", "pid": 0,
         "tid": 0, "ts": 0.0, "dur": 125.5, "args": {"depth": 0}},
        {"name": "sa.chain", "cat": "glimpse", "ph": "X", "pid": 0,
         "tid": 1, "ts": 10.0, "dur": 50.0, "args": {"depth": 1}},
    ],
}

VALID_TRACE_JSONL = "\n".join([
    json.dumps({"name": "trace_meta", "ph": "M", "pid": 17, "ts": 0,
                "args": {"process": "glimpse_client",
                         "base_unix_ns": 1754600000000000000}}),
    json.dumps({"name": "client.request", "cat": "glimpse", "ph": "X",
                "pid": 17, "tid": 0, "ts": 12.5, "dur": 800.0,
                "args": {"depth": 0,
                         "trace_id": "118d627ac8387f2ece243bda5e27a40b",
                         "span_id": "a4871a5c829f593c", "note": "submit"}}),
    json.dumps({"name": "trace_meta", "ph": "M", "pid": 19, "ts": 0,
                "args": {"process": "glimpsed",
                         "base_unix_ns": 1754600000000100000}}),
    json.dumps({"name": "server.request", "cat": "glimpse", "ph": "X",
                "pid": 19, "tid": 1, "ts": 40.0, "dur": 35.0,
                "args": {"depth": 0,
                         "trace_id": "118d627ac8387f2ece243bda5e27a40b",
                         "span_id": "670c7d0bd5ef0a71",
                         "parent_span_id": "a4871a5c829f593c"}}),
])


VALID_METRICS = "\n".join([
    json.dumps({"name": "session.trials", "type": "counter", "value": 64}),
    json.dumps({"name": "surrogate.train_size", "type": "gauge",
                "value": 48.0}),
    json.dumps({"name": "measure.cost_s", "type": "histogram", "count": 3,
                "sum": 1.5, "min": 0.1, "max": 1.0, "p50": 0.4, "p90": 0.9,
                "p99": 1.0,
                "buckets": [{"le": 0.5, "count": 2},
                            {"le": None, "count": 1}]}),
])


def selftest() -> int:
    cases = [
        # (description, kind, content, should_pass)
        ("valid report", None, _report(*GOOD), True),
        ("report with no gates", None, _report(), True),
        (">= fails below threshold", None, _report(SLOW), False),
        ("<= fails above threshold", None,
         _report(_gate("err", 0.06, "<=", 0.05, "fail")), False),
        ("== fails on a count mismatch", None,
         _report(_gate("done", 47, "==", 48, "fail")), False),
        ("== fails on a false check", None,
         _report(_gate("same", False, "==", True, "fail")), False),
        ("needs skips on few pool threads", None,
         _report(SKIP, pool_threads=2), True),
        ("needs skips on few cores", None,
         _report(SKIP, hardware_concurrency=2), True),
        ("hardware_concurrency 0 does not skip", None,
         _report(SLOW, hardware_concurrency=0), False),
        ("status pass on a failing value", None,
         _report(dict(SLOW, status="pass")), False),
        ("status skip on a gate that applies", None, _report(SKIP), False),
        ("pass true with a failing gate", None,
         _report(SLOW, **{"pass": True}), False),
        ("pass false with passing gates", None,
         _report(*GOOD, **{"pass": False}), False),
        ("gate missing value", None,
         _report({k: v for k, v in GOOD[2].items() if k != "value"}), False),
        ("report missing wall_s", None,
         _report().replace('"wall_s"', '"wall"'), False),
        ("report with an unknown key", None, _report(extra=1), False),
        ("unknown op", None, _report(dict(GOOD[2], op="!=")), False),
        ("needs an unknown host field", None,
         _report(dict(GOOD[2], needs={"gpus": 1})), False),
        ("duplicate gate name", None, _report(GOOD[2], GOOD[2]), False),
        ("negative row number", None,
         _report(rows=[{"wall_ms": -1.0}]), False),
        ("non-finite row number", None,
         _report(rows=[{"wall_ms": float("nan")}]), False),
        ("fraction above one", None,
         _report(rows=[{"valid_frac": 1.5}]), False),
        ("nested row", None, _report(rows=[{"cells": [1, 2]}]), False),
        ("zero param", None, _report(params={"max_trials": 0}), False),
        ("old per-kind bench shape is unrecognised", None,
         json.dumps({"threads_serial": 1, "threads_parallel": 8,
                     "paths": [{"name": "gemm", "serial_ms": 10.0}]}),
         False),
        ("valid trace", None, json.dumps(VALID_TRACE), True),
        ("valid metrics", None, VALID_METRICS, True),
        ("trace event missing dur", "trace",
         json.dumps({"traceEvents": [{"name": "a", "ph": "X", "ts": 0.0}]}),
         False),
        ("trace with string ts", "trace",
         json.dumps({"traceEvents": [{"name": "a", "ph": "X", "ts": "0",
                                      "dur": 1.0}]}), False),
        ("valid trace jsonl", None, VALID_TRACE_JSONL, True),
        ("trace jsonl sniffs without forced kind", None,
         VALID_TRACE_JSONL, True),
        ("trace jsonl event before meta", "trace",
         "\n".join(VALID_TRACE_JSONL.splitlines()[1:]), False),
        ("trace jsonl short trace_id", "trace",
         VALID_TRACE_JSONL.replace("118d627ac8387f2ece243bda5e27a40b",
                                   "118d"), False),
        ("trace jsonl uppercase span_id", "trace",
         VALID_TRACE_JSONL.replace("a4871a5c829f593c",
                                   "A4871A5C829F593C"), False),
        ("trace jsonl wrapped timestamp", "trace",
         VALID_TRACE_JSONL.replace('"ts": 40.0',
                                   '"ts": 18446744073709552.0'), False),
        ("trace jsonl meta missing base", "trace",
         VALID_TRACE_JSONL.replace('"base_unix_ns"', '"nope"'), False),
        ("metrics line missing type", "metrics",
         json.dumps({"name": "x", "value": 1}), False),
        ("metrics bucket sum mismatch", "metrics",
         json.dumps({"name": "h", "type": "histogram", "count": 5,
                     "sum": 1.0, "min": 0.1, "max": 1.0, "p50": 0.5,
                     "p90": 0.9, "p99": 1.0,
                     "buckets": [{"le": None, "count": 1}]}), False),
        ("not json at all is unrecognised", None, "not json {", False),
    ]
    failures = 0
    with tempfile.TemporaryDirectory(prefix="check_bench_json_") as tmp:
        for i, (desc, kind, content, should_pass) in enumerate(cases):
            path = Path(tmp) / f"case_{i}.json"
            path.write_text(content)
            try:
                check_file(path, kind)
                passed = True
            except (ValidationError, json.JSONDecodeError):
                passed = False
            failures += passed != should_pass
            print(f"[{'ok' if passed == should_pass else 'FAIL'}] selftest: "
                  f"{desc} (expected {'accept' if should_pass else 'reject'})")
    if failures:
        print(f"selftest: {failures} case(s) misbehaved", file=sys.stderr)
        return 1
    print(f"selftest: all {len(cases)} cases behaved")
    return 0


if __name__ == "__main__":
    sys.exit(selftest())
