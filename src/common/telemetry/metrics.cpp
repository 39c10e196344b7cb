#include "common/telemetry/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <type_traits>

namespace glimpse::telemetry {

namespace {

std::atomic<bool> g_metrics{false};

bool metrics_env_default() {
  const char* env = std::getenv("GLIMPSE_METRICS");
  return env != nullptr && *env != '\0';
}

struct MetricsInit {
  MetricsInit() { g_metrics.store(metrics_env_default(), std::memory_order_relaxed); }
};
MetricsInit g_metrics_init;

/// Relaxed CAS add for pre-C++20-fetch_add portability on doubles.
void atomic_add(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

bool metrics_enabled() { return g_metrics.load(std::memory_order_relaxed); }

void set_metrics_enabled(bool on) {
  g_metrics.store(on, std::memory_order_relaxed);
}

Histogram::Histogram()
    : min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {}

const std::vector<double>& Histogram::bounds() {
  static const std::vector<double> b = [] {
    constexpr double lo = 1e-6, hi = 1e3;
    std::vector<double> b(kBuckets);
    const double step = std::log(hi / lo) / static_cast<double>(kBuckets - 1);
    for (std::size_t i = 0; i < kBuckets; ++i)
      b[i] = lo * std::exp(step * static_cast<double>(i));
    b.back() = hi;  // exact despite float accumulation
    return b;
  }();
  return b;
}

void Histogram::record(double v) {
  if (std::isnan(v)) return;
  const std::vector<double>& b = bounds();
  const auto idx = static_cast<std::size_t>(std::lower_bound(b.begin(), b.end(), v) - b.begin());
  counts_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, v);
  atomic_min(min_, v);
  atomic_max(max_, v);
}

double Histogram::min() const { return min_.load(std::memory_order_relaxed); }
double Histogram::max() const { return max_.load(std::memory_order_relaxed); }

double Histogram::percentile(double p) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  const double lo = min(), hi = max();
  const std::vector<double>& b = bounds();
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(n);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const std::uint64_t c = counts_[i].load(std::memory_order_relaxed);
    if (cum + c >= rank && c > 0) {
      const double lower = i == 0 ? lo : b[i - 1];
      const double upper = i < b.size() ? b[i] : hi;
      const double frac = (rank - static_cast<double>(cum)) / static_cast<double>(c);
      return std::clamp(lower + (upper - lower) * std::clamp(frac, 0.0, 1.0), lo, hi);
    }
    cum += c;
  }
  return hi;
}

void Histogram::reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* r = new MetricsRegistry;  // leaked: exit-safe
  return *r;
}

template <class T>
T& MetricsRegistry::instrument(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end())
    it = entries_.try_emplace(std::string(name), std::in_place_type<T>).first;
  if (T* found = std::get_if<T>(&it->second)) return *found;
  const char* kind = std::is_same_v<T, Counter> ? "counter"
                     : std::is_same_v<T, Gauge> ? "gauge"
                                                : "histogram";
  throw std::logic_error("metric '" + std::string(name) + "' is not a " + kind);
}

Counter& MetricsRegistry::counter(std::string_view name) { return instrument<Counter>(name); }
Gauge& MetricsRegistry::gauge(std::string_view name) { return instrument<Gauge>(name); }
Histogram& MetricsRegistry::histogram(std::string_view name) {
  return instrument<Histogram>(name);
}

std::vector<MetricSnapshot> MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSnapshot> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    MetricSnapshot s;
    s.name = name;
    s.kind = static_cast<MetricSnapshot::Kind>(entry.index());
    if (const auto* c = std::get_if<Counter>(&entry)) {
      s.value = static_cast<double>(c->value());
    } else if (const auto* g = std::get_if<Gauge>(&entry)) {
      s.value = g->value();
    } else {
      const Histogram& h = std::get<Histogram>(entry);
      s.count = h.count();
      s.sum = h.sum();
      s.min = s.count ? h.min() : 0.0;
      s.max = s.count ? h.max() : 0.0;
      s.p50 = h.percentile(50.0);
      s.p90 = h.percentile(90.0);
      s.p99 = h.percentile(99.0);
      s.buckets.reserve(h.num_buckets());
      for (std::size_t i = 0; i < h.num_buckets(); ++i) {
        double bound = i < h.bounds().size() ? h.bounds()[i]
                                             : std::numeric_limits<double>::infinity();
        s.buckets.emplace_back(bound, h.bucket_count(i));
      }
    }
    out.push_back(std::move(s));
  }
  return out;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, entry] : entries_) std::visit([](auto& i) { i.reset(); }, entry);
}

}  // namespace glimpse::telemetry
