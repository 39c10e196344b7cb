#include "common/telemetry/export.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <sstream>

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

#include "common/json_writer.hpp"
#include "common/strutil.hpp"

namespace glimpse::telemetry {

namespace {

std::string env_path(const char* var) {
  const char* v = std::getenv(var);
  return v ? std::string(v) : std::string();
}

std::atomic<const char*> g_process_label{"glimpse"};

std::uint64_t current_pid() {
#ifdef _WIN32
  return static_cast<std::uint64_t>(_getpid());
#else
  return static_cast<std::uint64_t>(::getpid());
#endif
}

/// Sorted view: (tid, start, longer-first) so nested spans follow their
/// parents regardless of per-thread completion order.
std::vector<const TraceEvent*> sorted_view(const std::vector<TraceEvent>& events) {
  std::vector<const TraceEvent*> sorted;
  sorted.reserve(events.size());
  for (const auto& e : events) sorted.push_back(&e);
  std::sort(sorted.begin(), sorted.end(),
            [](const TraceEvent* a, const TraceEvent* b) {
              if (a->tid != b->tid) return a->tid < b->tid;
              if (a->start_ns != b->start_ns) return a->start_ns < b->start_ns;
              return a->dur_ns > b->dur_ns;
            });
  return sorted;
}

void write_event_args(JsonWriter& w, const TraceEvent& e) {
  w.key("args").begin_object();
  w.kv("depth", static_cast<std::uint64_t>(e.depth));
  if (e.trace_id_hi | e.trace_id_lo)
    w.kv("trace_id", hex64(e.trace_id_hi) + hex64(e.trace_id_lo));
  if (e.span_id) w.kv("span_id", hex64(e.span_id));
  if (e.parent_span_id) w.kv("parent_span_id", hex64(e.parent_span_id));
  if (e.job_id) w.kv("job", e.job_id);
  if (e.round != kNoRound) w.kv("round", e.round);
  if (e.config_fp) w.kv("config_fp", hex64(e.config_fp));
  if (e.note) w.kv("note", e.note);
  w.end_object();
}

}  // namespace

const std::string& trace_path() {
  static const std::string path = env_path("GLIMPSE_TRACE");
  return path;
}

const std::string& metrics_path() {
  static const std::string path = env_path("GLIMPSE_METRICS");
  return path;
}

void set_process_label(const char* label) {
  g_process_label.store(label, std::memory_order_relaxed);
}

const char* process_label() {
  return g_process_label.load(std::memory_order_relaxed);
}

void write_trace_jsonl(std::ostream& os, const std::vector<TraceEvent>& events) {
  const std::uint64_t pid = current_pid();
  {
    // Segment header: everything trace_stitch.py needs to place this
    // process's events on a shared wall-clock timeline.
    JsonWriter w(os, /*indent=*/0);
    w.begin_object();
    w.kv("name", "trace_meta");
    w.kv("ph", "M");
    w.kv("pid", pid);
    w.kv("ts", 0);
    w.key("args").begin_object();
    w.kv("process", process_label());
    w.kv("base_unix_ns", base_unix_ns());
    w.end_object();
    w.end_object();
  }
  os << "\n";
  for (const TraceEvent* e : sorted_view(events)) {
    JsonWriter w(os, /*indent=*/0);
    w.begin_object();
    w.kv("name", e->name);
    w.kv("cat", "glimpse");
    w.kv("ph", "X");
    w.kv("pid", pid);
    w.kv("tid", static_cast<std::uint64_t>(e->tid));
    w.kv_fixed("ts", static_cast<double>(e->start_ns) / 1e3, 3);   // µs
    w.kv_fixed("dur", static_cast<double>(e->dur_ns) / 1e3, 3);    // µs
    write_event_args(w, *e);
    w.end_object();
    os << "\n";
  }
}

void write_metrics_jsonl(std::ostream& os,
                         const std::vector<MetricSnapshot>& metrics) {
  for (const MetricSnapshot& m : metrics) {
    JsonWriter w(os, /*indent=*/0);
    w.begin_object();
    w.kv("name", m.name);
    switch (m.kind) {
      case MetricSnapshot::Kind::kCounter:
        w.kv("type", "counter");
        w.kv("value", static_cast<std::uint64_t>(m.value));
        break;
      case MetricSnapshot::Kind::kGauge:
        w.kv("type", "gauge");
        w.kv("value", m.value);
        break;
      case MetricSnapshot::Kind::kHistogram:
        w.kv("type", "histogram");
        w.kv("count", m.count);
        w.kv("sum", m.sum);
        w.kv("min", m.min);
        w.kv("max", m.max);
        w.kv("p50", m.p50);
        w.kv("p90", m.p90);
        w.kv("p99", m.p99);
        w.key("buckets").begin_array();
        for (const auto& [bound, count] : m.buckets) {
          w.begin_object();
          w.kv("le", bound);  // null for the +inf overflow bucket
          w.kv("count", count);
          w.end_object();
        }
        w.end_array();
        break;
    }
    w.end_object();
    os << "\n";
  }
}

std::vector<std::string> export_to_env_paths() {
  std::vector<std::string> written;
  if (!trace_path().empty() && tracing_enabled()) {
    std::ofstream os(trace_path(), std::ios::app);
    if (os.good()) {
      write_trace_jsonl(os, snapshot_events());
      written.push_back(trace_path());
    }
  }
  if (!metrics_path().empty() && metrics_enabled()) {
    std::ofstream os(metrics_path());
    if (os.good()) {
      write_metrics_jsonl(os, MetricsRegistry::global().snapshot());
      written.push_back(metrics_path());
    }
  }
  return written;
}

std::string metrics_summary() {
  const auto metrics = MetricsRegistry::global().snapshot();
  if (metrics.empty()) return "";
  std::ostringstream os;
  for (const MetricSnapshot& m : metrics) {
    switch (m.kind) {
      case MetricSnapshot::Kind::kCounter:
        os << strformat("  %-36s %12llu\n", m.name.c_str(),
                        static_cast<unsigned long long>(m.value));
        break;
      case MetricSnapshot::Kind::kGauge:
        os << strformat("  %-36s %12.4g\n", m.name.c_str(), m.value);
        break;
      case MetricSnapshot::Kind::kHistogram:
        os << strformat(
            "  %-36s n=%-8llu p50=%-10.4g p90=%-10.4g p99=%-10.4g max=%.4g\n",
            m.name.c_str(), static_cast<unsigned long long>(m.count), m.p50,
            m.p90, m.p99, m.max);
        break;
    }
  }
  return os.str();
}

}  // namespace glimpse::telemetry
