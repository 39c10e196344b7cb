#!/usr/bin/env python3
"""Validate the repo's machine-readable outputs.

Sniffs one of three shapes from the content and rejects anything else:
  * report  -- BENCH_<name>.json from bench::Report (schema: DESIGN.md §12).
               Every gate status is recomputed from value/op/threshold and
               from needs against host (hardware_concurrency 0 = unknown,
               never skips); a declared status or pass that disagrees, or a
               failing gate, rejects the file.
  * trace   -- JSONL segments appended via GLIMPSE_TRACE (a trace_meta
               line, then one event per line), or the Chrome trace JSON
               that tools/trace_stitch.py makes of them, with
               distributed-trace ids (trace_id 32 hex, span ids 16 hex).
  * metrics -- GLIMPSE_METRICS JSONL: counters, gauges and histograms.

Usage: tools/check_bench_json.py FILE [FILE ...]
(tests/check_bench_json_test.py holds the selftests.)
Standard library only; exit status 0 iff every file validates.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import sys
from pathlib import Path

NUMBER = (int, float)


class ValidationError(Exception):
    pass


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValidationError(msg)


def _require_keys(obj: dict, keys: dict, where: str,
                  exact: bool = False) -> None:
    """keys maps name -> required type (or tuple of types); a bool passes
    only where bool is named. `exact` also rejects unknown keys."""
    _require(isinstance(obj, dict), f"{where}: expected an object")
    for name, types in keys.items():
        _require(name in obj, f"{where}: missing key '{name}'")
        named = types if isinstance(types, tuple) else (types,)
        _require(
            isinstance(obj[name], types)
            and (bool in named or not isinstance(obj[name], bool)),
            f"{where}: key '{name}' has wrong type "
            f"({type(obj[name]).__name__})",
        )
    extra = sorted(set(obj) - set(keys)) if exact else []
    _require(not extra, f"{where}: unknown key(s) {extra}")


# ---- bench report -----------------------------------------------------------

SCHEMA_VERSION = 1
REPORT_KEYS = {"bench": str, "schema": int, "host": dict, "wall_s": NUMBER,
               "params": dict, "rows": list, "gates": list, "pass": bool}
HOST_KEYS = {"hardware_concurrency": int, "pool_threads": int,
             "simd_compiled": bool, "simd_enabled": bool}
GATE_KEYS = {"name": str, "value": (bool, int, float), "op": str,
             "threshold": (bool, int, float), "needs": dict, "status": str}
OPS = {">=": operator.ge, "<=": operator.le, "==": operator.eq}


def _check_number(v: object, where: str, positive: bool = False) -> None:
    _require(not isinstance(v, float) or math.isfinite(v),
             f"{where}: not a finite number")
    _require(v > 0 if positive else v >= 0,
             f"{where}: {v} must be {'> 0' if positive else '>= 0'}")


def _check_flat(obj: object, where: str, positive: bool = False) -> None:
    """Flat scalars only; numbers finite and >= 0 (> 0 when `positive`),
    *_frac and p_* fields within [0, 1]."""
    _require(isinstance(obj, dict), f"{where}: expected an object")
    for key, v in obj.items():
        _require(isinstance(v, (str, bool, int, float)),
                 f"{where}: '{key}' is not a scalar")
        if not isinstance(v, (str, bool)):
            _check_number(v, f"{where}: '{key}'", positive)
            _require(v <= 1 or not (key.endswith("_frac")
                                    or key.startswith("p_")),
                     f"{where}: '{key}' {v} outside [0, 1]")


def gate_status(gate: dict, host: dict) -> str:
    for field, minimum in gate["needs"].items():
        have = host[field]
        if have < minimum and not (field == "hardware_concurrency"
                                   and have == 0):
            return "skip"
    ok = OPS[gate["op"]](gate["value"], gate["threshold"])
    return "pass" if ok else "fail"


def check_report(doc: object, name: str) -> str:
    _require_keys(doc, REPORT_KEYS, name, exact=True)
    _require(doc["schema"] == SCHEMA_VERSION,
             f"{name}: schema {doc['schema']}, expected {SCHEMA_VERSION}")
    _require(doc["bench"] != "", f"{name}: empty bench name")
    host = doc["host"]
    _require_keys(host, HOST_KEYS, f"{name}: host", exact=True)
    _check_flat(host, f"{name}: host")
    _check_number(host["pool_threads"], f"{name}: host.pool_threads", True)
    _check_number(doc["wall_s"], f"{name}: wall_s")
    _check_flat(doc["params"], f"{name}: params", positive=True)
    for i, row in enumerate(doc["rows"]):
        _check_flat(row, f"{name}: rows[{i}]")
    names, failing = set(), []
    for i, g in enumerate(doc["gates"]):
        _require_keys(g, GATE_KEYS, f"{name}: gates[{i}]", exact=True)
        where = f"{name}: gate '{g['name']}'"
        _require(g["name"] not in names, f"{where}: duplicate gate name")
        names.add(g["name"])
        _require(g["op"] in OPS, f"{where}: unknown op '{g['op']}'")
        _check_flat({"value": g["value"], "threshold": g["threshold"]}, where)
        _require(set(g["needs"]) <= {"hardware_concurrency", "pool_threads"},
                 f"{where}: needs names an unknown host field")
        _require_keys(g["needs"], dict.fromkeys(g["needs"], int),
                      f"{where}: needs")
        _check_flat(g["needs"], f"{where}: needs", positive=True)
        status = gate_status(g, host)
        _require(g["status"] == status,
                 f"{where}: declared status '{g['status']}' disagrees with "
                 f"its value/op/threshold/needs ('{status}')")
        if status == "fail":
            failing.append(f"{g['name']} = {g['value']}, needs "
                           f"{g['op']} {g['threshold']}")
    _require(doc["pass"] == (not failing),
             f"{name}: declared pass disagrees with its gates")
    _require(not failing, f"{name}: failing gate(s): " + "; ".join(failing))
    skipped = sum(g["status"] == "skip" for g in doc["gates"])
    return (f"bench report '{doc['bench']}', {len(doc['rows'])} row(s), "
            f"{len(doc['gates'])} gate(s) passed ({skipped} skipped)")


# ---- telemetry formats ------------------------------------------------------


def _check_span_ids(args: object, where: str) -> None:
    """Distributed-trace id formats, when the event carries them."""
    if not isinstance(args, dict):
        return
    for key, width in (("trace_id", 32), ("span_id", 16),
                       ("parent_span_id", 16)):
        if key not in args:
            continue
        v = args[key]
        _require(isinstance(v, str) and len(v) == width
                 and all(c in "0123456789abcdef" for c in v),
                 f"{where}: '{key}' must be {width} lowercase hex chars")
    if "trace_id" in args:
        _require(set(args["trace_id"]) != {"0"},
                 f"{where}: all-zero trace_id")


def _check_x_event(e: dict, where: str) -> None:
    _require_keys(e, {"name": str, "ph": str, "ts": NUMBER}, where)
    _require(e["ts"] >= 0, f"{where}: negative ts")
    _require(e["ts"] < 1e15, f"{where}: implausible ts (wrapped clock?)")
    if e["ph"] == "X":
        _require_keys(e, {"dur": NUMBER}, where)
        _require(e["dur"] >= 0, f"{where}: negative dur")
        _check_span_ids(e.get("args"), where)


def check_trace(doc: object, name: str) -> int:
    _require_keys(doc, {"traceEvents": list}, name)
    events = doc["traceEvents"]
    _require(len(events) > 0, f"{name}: empty traceEvents")
    for i, e in enumerate(events):
        _check_x_event(e, f"{name}: traceEvents[{i}]")
    return len(events)


def check_trace_lines(lines: list[str], name: str) -> int:
    """JSONL trace segments (GLIMPSE_TRACE=<path>, appendable)."""
    n = 0
    in_segment = False
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        where = f"{name}:{lineno}"
        try:
            e = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{where}: bad JSON ({exc})") from exc
        _require(isinstance(e, dict), f"{where}: expected an object")
        if e.get("name") == "trace_meta":
            _require(e.get("ph") == "M", f"{where}: trace_meta must be 'M'")
            args = e.get("args")
            _require(isinstance(args, dict), f"{where}: trace_meta needs args")
            _require_keys(args, {"process": str, "base_unix_ns": int},
                          f"{where}: trace_meta args")
            in_segment = True
            continue
        _require(in_segment,
                 f"{where}: event before any trace_meta segment header")
        _require(e.get("ph") in ("X", "M"),
                 f"{where}: unexpected phase '{e.get('ph')}'")
        _check_x_event(e, where)
        if e["ph"] == "X":
            n += 1
    _require(in_segment, f"{name}: no trace_meta segment header")
    _require(n > 0, f"{name}: no span events")
    return n


def check_metrics_lines(lines: list[str], name: str) -> int:
    kinds = {"counter", "gauge", "histogram"}
    n = 0
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        where = f"{name}:{lineno}"
        try:
            m = json.loads(line)
        except json.JSONDecodeError as e:
            raise ValidationError(f"{where}: bad JSON ({e})") from e
        _require_keys(m, {"name": str, "type": str}, where)
        _require(m["type"] in kinds,
                 f"{where}: unknown metric type '{m['type']}'")
        if m["type"] in ("counter", "gauge"):
            _require_keys(m, {"value": NUMBER}, where)
        else:
            _require_keys(m, {"count": int, "sum": NUMBER, "min": NUMBER,
                              "max": NUMBER, "p50": NUMBER, "p90": NUMBER,
                              "p99": NUMBER, "buckets": list}, where)
            total = 0
            for j, b in enumerate(m["buckets"]):
                bwhere = f"{where}: buckets[{j}]"
                _require_keys(b, {"count": int}, bwhere)
                _require("le" in b, f"{bwhere}: missing key 'le'")
                _require(b["le"] is None or isinstance(b["le"], NUMBER),
                         f"{bwhere}: 'le' must be a number or null")
                total += b["count"]
            _require(total == m["count"],
                     f"{where}: bucket counts sum to {total}, "
                     f"but count={m['count']}")
        n += 1
    _require(n > 0, f"{name}: no metric lines")
    return n

# ---- dispatch ---------------------------------------------------------------


def sniff_kind(text: str, name: str) -> str:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    if isinstance(doc, dict) and "bench" in doc:
        return "report"
    if isinstance(doc, dict) and "traceEvents" in doc:
        return "trace"
    try:
        first = json.loads(text.strip().splitlines()[0])
    except (json.JSONDecodeError, IndexError):
        first = None
    if isinstance(first, dict) and "ph" in first:
        return "trace"  # JSONL trace segment (trace_meta or event line)
    if isinstance(first, dict) and "name" in first and "type" in first:
        return "metrics"
    raise ValidationError(f"{name}: unrecognised file (not a bench report, "
                          f"Chrome trace, JSONL trace or metrics)")


def check_file(path: Path, kind: str | None = None) -> str:
    text = path.read_text()
    kind = kind or sniff_kind(text, str(path))
    if kind == "report":
        return check_report(json.loads(text), str(path))
    if kind == "trace":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            doc = None
        if isinstance(doc, dict) and "traceEvents" in doc:
            return f"chrome trace, {check_trace(doc, str(path))} event(s)"
        n = check_trace_lines(text.splitlines(), str(path))
        return f"trace jsonl, {n} span(s)"
    n = check_metrics_lines(text.splitlines(), str(path))
    return f"metrics jsonl, {n} metric(s)"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", type=Path,
                        help="files to validate")
    args = parser.parse_args(argv)
    status = 0
    for path in args.files:
        try:
            print(f"[ok] {path}: {check_file(path)}")
        except FileNotFoundError:
            print(f"[FAIL] {path}: no such file", file=sys.stderr)
            status = 1
        except (ValidationError, json.JSONDecodeError) as e:
            print(f"[FAIL] {e}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
