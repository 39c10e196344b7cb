#include "tuning/measure.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "common/telemetry/telemetry.hpp"
#include "tuning/result_cache.hpp"

namespace glimpse::tuning {

namespace {

// Tag mixed into the per-trial fork so the retry stream never collides with
// other consumers of the session seed.
constexpr std::uint64_t kRetryStreamTag = 0x7265747279ULL;  // "retry"
/// Uniform jitter fraction of each backoff wait.
constexpr double kJitter = 0.25;

void record_fault_metrics(MeasureError e) {
  if (!telemetry::metrics_enabled()) return;
  switch (e) {
    case MeasureError::kTransient: GLIMPSE_COUNTER("measure.fault.transient").add(1); break;
    case MeasureError::kTimeout: GLIMPSE_COUNTER("measure.fault.timeout").add(1); break;
    case MeasureError::kCorrupt: GLIMPSE_COUNTER("measure.fault.corrupt").add(1); break;
    case MeasureError::kNone: break;
  }
}

/// Wall-clock stage histogram (DESIGN.md §13): records seconds into
/// `hist()`, a lambda returning a GLIMPSE_HISTOGRAM, on scope exit when
/// metrics are on. Wall time only — simulated time and tuning decisions
/// never see it.
template <class Hist>
struct StageTimer {
  Hist hist;
  bool on = telemetry::metrics_enabled();
  std::uint64_t t0 = on ? telemetry::now_ns() : 0;
  ~StageTimer() {
    if (on) hist().record(static_cast<double>(telemetry::now_ns() - t0) * 1e-9);
  }
};

}  // namespace

bool implausible(const MeasureResult& r) {
  if (!r.valid) return false;
  return !std::isfinite(r.latency_s) || r.latency_s <= 0.0 ||
         !std::isfinite(r.gflops) || r.gflops <= 0.0 || !std::isfinite(r.cost_s) ||
         r.cost_s < 0.0;
}

double backoff_for_retry(const RetryPolicy& policy, int retry) {
  double wait =
      policy.backoff_base_s * std::pow(policy.backoff_mult, std::max(0, retry - 1));
  return std::min(policy.backoff_max_s, wait);
}

MeasureResult measure_with_retry(gpusim::Measurer& measurer,
                                 const searchspace::Task& task,
                                 const hwspec::GpuSpec& hw, const Config& config,
                                 const RetryPolicy& policy, std::uint64_t seed,
                                 std::uint64_t trial_id, ResultCache* cache) {
  telemetry::Span span("measure.with_retry");
  StageTimer stage{[]() -> auto& { return GLIMPSE_HISTOGRAM("stage.measure_s"); }};
  if (span.active()) {
    // Config fingerprint ties the span to what was measured; hashed only
    // when the span is live so the untraced path does no extra work.
    std::uint64_t fp = 0xcbf29ce484222325ULL;
    for (std::uint32_t v : config) fp = hash_combine(fp, v);
    span.set_config_fp(fp);
    span.set_round(trial_id);
  }
  CacheKey cache_key;
  if (cache) {
    // Consult the cache before the measurer, the retry loop, or the jitter
    // stream: a hit charges no simulated time and advances no state, so the
    // rest of the session is untouched by whether the hit happened.
    cache_key.task_fp = task_fingerprint(task);
    cache_key.hw_fp = hardware_fingerprint(hw);
    cache_key.config = config;
    MeasureResult hit;
    StageTimer lookup{[]() -> auto& { return GLIMPSE_HISTOGRAM("stage.cache_hit_s"); }};
    if (cache->lookup(cache_key, hit)) {
      span.set_note("cache_hit");
      return hit;
    }
    lookup.on = false;  // miss: only hits feed the cache_hit histogram
  }
  const int max_attempts = std::max(1, policy.max_attempts);
  const double timeout =
      policy.timeout_s > 0.0 ? policy.timeout_s : std::numeric_limits<double>::infinity();
  Rng rng = Rng::fork(hash_combine(seed, kRetryStreamTag), trial_id);

  MeasureResult last;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    MeasureResult r;
    {
      // Each retry is its own child span; failed attempts carry their
      // MeasureError kind so a trace shows what each retry paid for.
      telemetry::Span attempt_span("measure.attempt");
      attempt_span.set_round(trial_id);
      r = measurer.measure(task, hw, config, timeout);
      if (implausible(r)) {
        // The payload claims success but cannot be real: treat as corruption
        // rather than poisoning the tuner with garbage.
        r.valid = false;
        r.error = MeasureError::kCorrupt;
        r.latency_s = 0.0;
        r.gflops = 0.0;
      }
      if (r.error != MeasureError::kNone)
        attempt_span.set_note(gpusim::to_string(r.error));
    }
    r.attempts = attempt;
    if (r.error == MeasureError::kNone) {
      if (telemetry::metrics_enabled()) {
        if (attempt > 1) GLIMPSE_COUNTER("measure.recovered").add(1);
        GLIMPSE_HISTOGRAM("measure.attempts").record(static_cast<double>(attempt));
      }
      // Settled: valid measurement or deterministic model rejection. Either
      // way the answer is final for this (task, hw, config), so cache it.
      if (cache) cache->insert(cache_key, r);
      return r;
    }
    record_fault_metrics(r.error);
    last = r;
    if (attempt < max_attempts) {
      double wait = backoff_for_retry(policy, attempt);
      wait *= 1.0 + kJitter * rng.uniform(-1.0, 1.0);
      wait = std::max(0.0, wait);
      measurer.add_cost(wait);
      if (telemetry::metrics_enabled()) {
        GLIMPSE_COUNTER("measure.retries").add(1);
        GLIMPSE_HISTOGRAM("measure.backoff_s").record(wait);
      }
    }
  }
  // Out of attempts: the trial is recorded as faulted (valid == false,
  // error == last failure kind), never silently dropped. Faults are NOT
  // cached — a later retry of the same config must hit real measurement,
  // and with a fresh per-trial jitter fork, so the earlier fault's backoff
  // state cannot leak into it.
  last.valid = false;
  if (telemetry::metrics_enabled()) {
    GLIMPSE_COUNTER("measure.faulted_trials").add(1);
    GLIMPSE_HISTOGRAM("measure.attempts").record(static_cast<double>(last.attempts));
  }
  return last;
}

void write_config(TextWriter& w, const Config& c) {
  w.scalar_u(c.size());
  for (std::uint32_t v : c) w.scalar_u(v);
}

Config read_config(TextReader& r) {
  std::size_t n = r.scalar_u();
  Config c;
  c.reserve(std::min<std::size_t>(n, 4096));
  for (std::size_t i = 0; i < n; ++i)
    c.push_back(static_cast<std::uint32_t>(r.scalar_u()));
  return c;
}

void write_result(TextWriter& w, const MeasureResult& res) {
  w.scalar_u(res.valid ? 1 : 0);
  w.scalar_u(static_cast<std::size_t>(res.reason));
  w.scalar_u(static_cast<std::size_t>(res.error));
  w.scalar_u(static_cast<std::size_t>(std::max(1, res.attempts)));
  w.scalar(res.latency_s);
  w.scalar(res.gflops);
  w.scalar(res.cost_s);
}

MeasureResult read_result(TextReader& r) {
  MeasureResult res;
  res.valid = r.scalar_u() != 0;
  res.reason = static_cast<gpusim::InvalidReason>(r.scalar_u());
  res.error = static_cast<MeasureError>(r.scalar_u());
  res.attempts = static_cast<int>(r.scalar_u());
  res.latency_s = r.scalar();
  res.gflops = r.scalar();
  res.cost_s = r.scalar();
  return res;
}

}  // namespace glimpse::tuning
