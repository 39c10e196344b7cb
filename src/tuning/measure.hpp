// Measurement request/response types shared by all tuners, plus the retry
// pipeline that turns an unreliable Measurer into the clean stream the
// session loop consumes.
#pragma once

#include <cstdint>
#include <limits>

#include "gpusim/measurer.hpp"
#include "hwspec/gpu_spec.hpp"
#include "searchspace/task.hpp"

namespace glimpse::tuning {

using gpusim::MeasureError;
using gpusim::MeasureResult;
using searchspace::Config;

/// One pending measurement: a configuration of a task on a device.
struct MeasureInput {
  const searchspace::Task* task = nullptr;
  const hwspec::GpuSpec* hw = nullptr;
  Config config;
};

/// Retry policy for one trial: per-attempt timeout plus exponential backoff
/// with jitter between attempts. Each wait is scaled by 1 + 0.25*U(-1,1)
/// (the jitter fraction is a constant in measure.cpp), drawn from a
/// stateless Rng substream forked from (seed, trial id), so the schedule is
/// identical at any GLIMPSE_NUM_THREADS and reproducible from a checkpoint.
struct RetryPolicy {
  int max_attempts = 3;     ///< 1 disables retries
  /// Per-attempt simulated timeout in seconds; <= 0 means unlimited.
  double timeout_s = 0.0;
  double backoff_base_s = 0.5;
  double backoff_mult = 2.0;
  double backoff_max_s = 8.0;
};

/// The backoff wait before retry number `retry` (1-based), jitter excluded.
double backoff_for_retry(const RetryPolicy& policy, int retry);

class ResultCache;

/// Measure one configuration with retries. Transient faults, timeouts, and
/// corrupted payloads (implausible values that claim to be valid) are
/// retried up to `policy.max_attempts` times with backoff charged to the
/// measurer's simulated clock. A trial that still fails is returned with
/// valid == false and error set to its last failure kind — faulted, not
/// silently dropped. `attempts` records the attempts consumed.
///
/// With `cache` set, the cache is consulted before the measurer is touched:
/// a hit returns the stored result — bit-identical to what a fresh
/// measurement would produce, measurements being deterministic in (task,
/// hardware, config) — and charges ZERO simulated time (no measurement
/// cost, no backoff). Settled results (error == kNone, valid or
/// model-invalid) are inserted after measurement; infrastructure faults are
/// never cached, so a faulted trial stays retryable. Backoff jitter is a
/// stateless per-trial fork of (seed, trial id): a hit consumes nothing
/// from any shared stream, and a fault retried in an earlier trial cannot
/// inflate a later trial's backoff schedule.
MeasureResult measure_with_retry(gpusim::Measurer& measurer,
                                 const searchspace::Task& task,
                                 const hwspec::GpuSpec& hw, const Config& config,
                                 const RetryPolicy& policy, std::uint64_t seed,
                                 std::uint64_t trial_id,
                                 ResultCache* cache = nullptr);

/// True if a result claiming to be valid carries impossible values (negative
/// or non-finite latency/gflops/cost) — the corruption detector.
bool implausible(const MeasureResult& r);

/// Token-stream serialization of the measurement types (checkpoint format).
void write_config(TextWriter& w, const Config& c);
Config read_config(TextReader& r);
void write_result(TextWriter& w, const MeasureResult& res);
MeasureResult read_result(TextReader& r);

}  // namespace glimpse::tuning
