#!/usr/bin/env python3
"""The repo benchmark: one command that builds, runs and checks a workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. It builds the repo's libraries and the
benchmark harness from source (Release, into $CARGO_TARGET_DIR or
.bench_build), runs the harness with a pinned environment, and prints the
result as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics: the harness's own timings plus
the program's telemetry (GLIMPSE_TRACE / GLIMPSE_METRICS), read from the
files the program exports. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
POOL_WIDTH = 4
RUN_DEADLINE_S = 170  # after the build: keeps a run under 180 s


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally. Returns the harness path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError("no repo sources next to perfbench/ (src/CMakeLists.txt missing)")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", str(POOL_WIDTH)],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "perfbench_harness"


def pinned_env(work_dir, trace):
    """The harness's environment: no GLIMPSE_* knob but the pool width, and
    in trace mode the telemetry export paths."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("GLIMPSE_")}
    env["GLIMPSE_NUM_THREADS"] = str(POOL_WIDTH)
    if trace:
        env["GLIMPSE_TRACE"] = str(work_dir / "trace.jsonl")
        env["GLIMPSE_METRICS"] = str(work_dir / "metrics.jsonl")
    return env


def read_jsonl(path):
    if not path.is_file():
        return []
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def span_times(events):
    """Total and self time (s) per span name. Self time is a span's duration
    minus its children's. A child is the span named by its parent id when the
    program recorded one, else the innermost span enclosing it on its own
    thread."""
    spans = [e for e in events if e.get("ph") == "X"]
    by_id = {}
    for i, e in enumerate(spans):
        sid = e.get("args", {}).get("span_id")
        if sid:
            by_id[sid] = i
    parent = [None] * len(spans)
    order = sorted(range(len(spans)),
                   key=lambda i: (spans[i]["tid"], spans[i]["ts"], -spans[i]["dur"]))
    stack = []  # (index, end) on the current thread
    tid = None
    for i in order:
        e = spans[i]
        if e["tid"] != tid:
            tid, stack = e["tid"], []
        while stack and stack[-1][1] < e["ts"] + e["dur"]:
            stack.pop()
        pid = e.get("args", {}).get("parent_span_id")
        if pid in by_id:
            parent[i] = by_id[pid]
        elif stack:
            parent[i] = stack[-1][0]
        stack.append((i, e["ts"] + e["dur"]))
    self_us = [e["dur"] for e in spans]
    for i, p in enumerate(parent):
        if p is not None:
            self_us[p] -= spans[i]["dur"]
    total, self_s = {}, {}
    for e, us in zip(spans, self_us):
        total[e["name"]] = total.get(e["name"], 0.0) + e["dur"] * 1e-6
        self_s[e["name"]] = self_s.get(e["name"], 0.0) + max(us, 0.0) * 1e-6
    return total, self_s


def telemetry_metrics(work_dir, passes, workload):
    """Per-layer numbers from the program's own telemetry, per traced pass,
    and the self-time table."""
    out = {}
    metrics = {m["name"]: m for m in read_jsonl(work_dir / "metrics.jsonl")}

    def counter(name):
        return metrics.get(name, {}).get("value", 0) / passes

    for name in ("sa.evaluations", "surrogate.predictions", "surrogate.fits",
                 "session.checkpoints", "scheduler.shared_hits"):
        out[name] = counter(name)
    wait = metrics.get("stage.queue_wait_s", {})
    out["stage.queue_wait_s_p50"] = wait.get("p50", 0.0)
    out["stage.queue_wait_s_p90"] = wait.get("p90", 0.0)
    total, self_s = span_times(read_jsonl(work_dir / "trace.jsonl"))
    for name, secs in self_s.items():
        out["self.%s_s" % name] = secs / passes
    if workload == "service_mix":
        # The daemon builds its own scheduler and measurers, out of reach of
        # the harness's round timer and Measurer decorator, so these layers
        # come from the program's counters and spans.
        calls = counter("measure.count")
        out["scheduler.rounds"] = counter("scheduler.rounds")
        out["scheduler.round_s"] = total.get("scheduler.round", 0.0) / passes
        out["gpusim.measure_calls"] = calls
        out["gpusim.invalid_frac"] = counter("measure.invalid") / calls if calls else 0.0
        out["gpusim.measure_s"] = total.get("measure.measure", 0.0) / passes
    return out, self_s


def run_harness(harness, args, env, deadline):
    """Run the harness from the checkout root; echo its lines and return its
    last line parsed, or None when it failed. A harness still running at
    `deadline` (time.monotonic()) is killed."""
    proc = subprocess.run([str(harness)] + args, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        log("harness %s exited with %d" % (" ".join(args[:2]), proc.returncode))
        return None
    return json.loads(lines[-1])


def print_layer_table(per_layer, layers, workload):
    """Each per-layer metric beside the end-to-end metric it should move."""
    moves = json.loads((BENCH_DIR / "moves.json").read_text())
    print("per-layer metrics on %s (value, unit: expected effect):" % workload)
    for m in per_layer:
        mv = moves.get(m["name"], {})
        if workload in mv.get("on", []):
            effect = "moves " + ", ".join(mv["moves"])
        elif workload in mv.get("flat_on", []):
            effect = "flat here" + (" (moves %s on %s)" % (", ".join(mv["moves"]), ", ".join(
                mv["on"])) if mv.get("moves") else "")
        else:
            effect = "-"
        print("  %-30s %14.6g %-7s %s" % (m["name"], layers.get(m["name"], 0.0), m["unit"],
                                          effect))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log("unknown workload %r (one of %s)" % (args.workload, ", ".join(names)))
        return 2

    harness = build()
    # Passed relative to the checkout root (the harness's cwd), which keeps
    # the daemon's Unix socket path short.
    rel_dir = Path(".perfbench_run") / str(os.getpid())
    work_dir = ROOT / rel_dir
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        t0 = time.monotonic()
        deadline = t0 + RUN_DEADLINE_S
        selftest = run_harness(harness, ["--selftest", "--work-dir", str(rel_dir)],
                               pinned_env(work_dir, False), deadline)
        report = run_harness(harness, ["--workload", args.workload, "--seed", str(args.seed),
                                       "--seconds", str(args.seconds), "--trace",
                                       str(args.trace), "--work-dir", str(rel_dir)],
                             pinned_env(work_dir, args.trace), deadline)
        if selftest is None or report is None:
            return 1
        correct = bool(report["correct"]) and selftest["selftest"] is True
        if args.trace:
            passes = max(report["traced_passes"], 1)
            layers, table = telemetry_metrics(work_dir, passes, args.workload)
            layers.update(report["end_to_end"])  # the ungated wall-clock metrics
            layers.update(report["per_layer"])
            print_layer_table(spec["per_layer"], layers, args.workload)
            print("stage table (self time per traced pass, s):")
            for name, secs in sorted(table.items(), key=lambda kv: -kv[1]):
                print("  %-28s %10.4f" % (name, secs / passes))
            # A layer this workload does not exercise reads 0.
            metrics = {m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}
                       for m in spec["per_layer"]}
        else:
            metrics = {}
            for m in spec["end_to_end"]:
                if m["name"] not in report["end_to_end"]:
                    log("metric %s missing from the run" % m["name"])
                    correct = False
                    continue
                metrics[m["name"]] = {"value": report["end_to_end"][m["name"]],
                                      "unit": m["unit"]}
        e2e, layer = report["end_to_end"], report["per_layer"]
        # p95 is left out where a pass has too few jobs for a tail (see README).
        p95 = ("%.6g" % e2e["job_latency_p95_ms"] if "job_latency_p95_ms" in e2e
               else "n/a (too few jobs per pass)")
        print("wall-clock (not gated): wall_s %.6g s, job_latency_p50_ms %.6g, "
              "job_latency_p95_ms %s; %d latency samples over %d timed passes, "
              "host steal %.1f %%" %
              (e2e["wall_s"], e2e["job_latency_p50_ms"], p95, layer["job_latency.samples"],
               layer["timed_passes"], layer["host.steal_frac"] * 100.0))
        attempted, failed = report["attempted"], report["failed"]
        print("jobs: %d attempted, %d failed, job_fail_frac %.6f" %
              (attempted, failed, failed / attempted if attempted else 1.0))
        print("env: %s; run took %.1f s" % (json.dumps(report["env"]), time.monotonic() - t0))
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            (ROOT / ".perfbench_run").rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)
