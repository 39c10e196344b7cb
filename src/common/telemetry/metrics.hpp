// Metrics registry: named counters, gauges, and fixed-bucket histograms
// with atomic updates, snapshot-able for the JSONL exporter and the bench
// summary block.
//
// Hot-path contract: instruments are updated with relaxed atomics and no
// locks; the registry mutex is only taken when an instrument is first
// looked up by name and when snapshotting. Call sites update through
// GLIMPSE_COUNTER and friends below, gated on metrics_enabled(); the macro
// caches the returned reference (instruments live for the process lifetime,
// addresses are stable), so steady-state cost is one atomic RMW.
//
// Like spans, metrics never touch an Rng: instrumented code must produce
// bit-identical results whether metrics are enabled or not. Sites that do
// *extra* work to attribute an outcome (e.g. scanning every validity
// dimension instead of early-exiting) gate that work on metrics_enabled().
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace glimpse::telemetry {

/// True when metric collection is on (GLIMPSE_METRICS set, or enabled
/// programmatically). One relaxed atomic load.
bool metrics_enabled();
void set_metrics_enabled(bool on);

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram: per-bucket atomic counts plus count/sum/min/max,
/// summarized as interpolated percentiles. Every histogram shares one bucket
/// layout: kBuckets finite upper bounds log-spaced over 1e-6 .. 1e3
/// (latencies span decades), then an overflow bucket. record() is a binary
/// search and one atomic increment.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 54;  ///< finite buckets

  Histogram();

  void record(double v);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const;  ///< +inf when empty
  double max() const;  ///< -inf when empty

  /// Interpolated percentile estimate from bucket counts, p in [0, 100].
  /// Exact at bucket boundaries; linear within a bucket; min()/max() clamp
  /// the extreme buckets. 0 when empty.
  double percentile(double p) const;

  /// Finite upper bounds (the overflow bucket is implicit).
  static const std::vector<double>& bounds();
  std::uint64_t bucket_count(std::size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  std::size_t num_buckets() const { return counts_.size(); }  ///< incl. overflow

  void reset();

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets + 1> counts_{};  // + overflow
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

/// Point-in-time copy of one instrument, for exporters and summaries.
struct MetricSnapshot {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;
  Kind kind = Kind::kCounter;
  double value = 0.0;  ///< counter / gauge value
  // Histogram summary (zero/empty otherwise).
  std::uint64_t count = 0;
  double sum = 0.0, min = 0.0, max = 0.0;
  double p50 = 0.0, p90 = 0.0, p99 = 0.0;
  /// (upper_bound, count) per finite bucket plus a final (+inf, count).
  std::vector<std::pair<double, std::uint64_t>> buckets;
};

/// Name-keyed instrument registry. Instruments are created on first lookup
/// and never destroyed; looking a name up as two different kinds throws.
class MetricsRegistry {
 public:
  static MetricsRegistry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Sorted-by-name copies of every instrument (histograms summarized with
  /// their bucket contents; empty histograms are included).
  std::vector<MetricSnapshot> snapshot() const;

  /// Zero every instrument (bench/test isolation); registrations persist.
  void reset();

 private:
  /// The instrument `name`, created as a T on first lookup (find-or-create
  /// for all three kinds); throws std::logic_error if it is another kind.
  template <class T>
  T& instrument(std::string_view name);

  mutable std::mutex mu_;
  /// Variant order matches MetricSnapshot::Kind. Map nodes never move, so
  /// returned references stay valid.
  std::map<std::string, std::variant<Counter, Gauge, Histogram>, std::less<>> entries_;
};

}  // namespace glimpse::telemetry

/// The global registry's instrument `name` (a string literal), looked up
/// once per call site rather than on every update.
/// Usage: GLIMPSE_COUNTER("sa.runs").add(1);
#define GLIMPSE_METRIC(kind, name)                                      \
  ([]() -> auto& {                                                      \
    static auto& instrument =                                           \
        ::glimpse::telemetry::MetricsRegistry::global().kind(name);     \
    return instrument;                                                  \
  }())
#define GLIMPSE_COUNTER(name) GLIMPSE_METRIC(counter, name)
#define GLIMPSE_GAUGE(name) GLIMPSE_METRIC(gauge, name)
#define GLIMPSE_HISTOGRAM(name) GLIMPSE_METRIC(histogram, name)
