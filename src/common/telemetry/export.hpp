// Telemetry exporters:
//  * JSONL trace segments: a "trace_meta" record carrying the pid, process
//    label and wall-clock base, then one Chrome "X" complete event per line.
//    Segments append, so repeated runs of a short-lived process
//    (glimpse_client) accumulate in one file, and tools/trace_stitch.py
//    merges any number of segments (client + daemon files) into one Chrome
//    trace document for chrome://tracing or https://ui.perfetto.dev.
//  * JSONL metrics snapshots: one JSON object per line, one line per
//    instrument (counters/gauges: value; histograms: count/sum/min/max,
//    p50/p90/p99, and the full bucket table).
//
// Destinations come from GLIMPSE_TRACE=<path> / GLIMPSE_METRICS=<path>
// (which also flip the corresponding collection on at startup; see
// span.hpp / metrics.hpp) or from the programmatic stream writers. A
// GLIMPSE_TRACE path always receives an appended JSONL segment, whatever
// its suffix.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "common/telemetry/metrics.hpp"
#include "common/telemetry/span.hpp"

namespace glimpse::telemetry {

/// Path configured via GLIMPSE_TRACE / GLIMPSE_METRICS; empty when unset.
const std::string& trace_path();
const std::string& metrics_path();

/// Label identifying this process in exported traces ("glimpsed",
/// "glimpse_client", ...). Default "glimpse". Must be a static string.
void set_process_label(const char* label);
const char* process_label();

/// Emit one JSONL trace segment: a "trace_meta" metadata line (pid, label,
/// base_unix_ns) followed by one "X" event object per span in (tid, start)
/// order, pid = getpid(), tid = thread_tag, timestamps in microseconds.
/// Safe to append to a stream that already holds earlier segments.
void write_trace_jsonl(std::ostream& os, const std::vector<TraceEvent>& events);

/// Emit the given snapshots as JSONL (one compact object per line).
void write_metrics_jsonl(std::ostream& os, const std::vector<MetricSnapshot>& metrics);

/// Write trace/metrics files to the env-configured paths (skipping either
/// when its variable is unset or its collection is disabled). The trace
/// path gets one JSONL segment of the live span buffers appended (buffers
/// are kept); the metrics path is overwritten. Returns the paths written,
/// for logging.
std::vector<std::string> export_to_env_paths();

/// Human-readable metrics block for bench stdout: counters and gauges one
/// per line, histograms with count/p50/p90/p99. Empty registry -> "".
std::string metrics_summary();

}  // namespace glimpse::telemetry
