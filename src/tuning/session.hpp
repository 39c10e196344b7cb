// Tuning session: drives one tuner against one (task, device) pair under a
// trial/time budget, producing a trace the metrics and benches consume.
//
// Robustness: measurements go through the retry pipeline (tuning/measure.hpp)
// so transient faults, timeouts, and corrupted payloads are retried with
// backoff and, if they persist, recorded as faulted trials; plateau logic
// ignores faulted trials so injected failures cannot fake convergence. With
// `checkpoint_path` set, the session appends each measured batch to a
// journal (tuning/checkpoint.hpp); `resume_from` replays a journal through a
// freshly seeded tuner and continues bit-identically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/telemetry/trace_context.hpp"
#include "tuning/tuner.hpp"

namespace glimpse::tuning {

class ResultCache;

struct TrialRecord {
  Config config;
  MeasureResult result;
  std::size_t step = 0;     ///< 0-based measurement index within the session
  double elapsed_s = 0.0;   ///< simulated seconds elapsed after this trial

  friend bool operator==(const TrialRecord& a, const TrialRecord& b) {
    return a.config == b.config && a.step == b.step && a.elapsed_s == b.elapsed_s &&
           a.result.valid == b.result.valid && a.result.reason == b.result.reason &&
           a.result.error == b.result.error && a.result.attempts == b.result.attempts &&
           a.result.latency_s == b.result.latency_s &&
           a.result.gflops == b.result.gflops && a.result.cost_s == b.result.cost_s;
  }
};

/// Complete log of one tuning session.
struct Trace {
  std::vector<TrialRecord> trials;

  /// Best valid GFLOPS over the first `upto` trials (all by default);
  /// 0 when nothing valid yet (including empty and all-faulted traces).
  double best_gflops(std::size_t upto = std::numeric_limits<std::size_t>::max()) const;
  /// Best valid latency in seconds; +inf when nothing valid.
  double best_latency() const;

  /// Trials the model rejected as invalid configurations. Faulted trials
  /// (measurement-infrastructure failures) are counted separately — a flaky
  /// device must not inflate the paper's invalid-config statistics.
  std::size_t num_invalid() const;
  double invalid_fraction() const;  ///< 0 on an empty trace
  /// Trials that failed after all retry attempts (result.error != kNone).
  std::size_t num_faulted() const;
  double total_cost_s() const;
};

struct SessionOptions {
  std::size_t max_trials = 400;
  std::size_t batch_size = 8;
  /// Simulated-seconds budget; the session stops before starting a batch
  /// once exceeded.
  double time_budget_s = std::numeric_limits<double>::infinity();
  /// Plateau stop (AutoTVM's `early_stopping`): end the session when the
  /// best result has not improved by >1 % for this many non-faulted trials.
  /// 0 disables. Faulted trials do not advance the plateau counter.
  std::size_t plateau_trials = 0;

  /// Per-trial retry/backoff policy (defaults retry transient failures).
  RetryPolicy retry;
  /// Seed for the session's own deterministic streams (backoff jitter).
  std::uint64_t seed = 0x676c696d707365ULL;  // "glimpse"

  /// When non-empty: the session's journal. A session that does not resume
  /// starts it afresh; every batch appends one record.
  std::string checkpoint_path;
  /// When non-empty: replay this journal before tuning. The tuner must be
  /// freshly constructed with the original seed; replay rebuilds the trials,
  /// the tuner and the measurer. The resumed session's trace — prior trials
  /// plus the remainder — is bit-identical to an uninterrupted run. May
  /// equal `checkpoint_path`, which then continues in place.
  std::string resume_from;

  /// Optional measurement result cache (tuning/result_cache.hpp), consulted
  /// before every simulated-hardware measurement. Not owned; may be shared
  /// across concurrent sessions (it is thread-safe). A hit charges zero
  /// simulated time, so traces with the cache on and off agree on every
  /// decision (configs, results, steps) but not on `elapsed_s` — compare
  /// them with trace_decisions_identical, not operator==.
  ResultCache* result_cache = nullptr;

  /// Warm-start seeds (tuning/warmstart.hpp), applied to the tuner via
  /// Tuner::set_warm_start at job admission and recorded in the journal's
  /// header. A resumed session applies the journaled seeds instead, so
  /// whatever the advisor computes today cannot bend the replayed
  /// trajectory. Empty = cold start, byte-for-byte today's behaviour.
  std::vector<Config> warm_configs;
  std::vector<double> warm_scores;  ///< aligned with warm_configs, in [0, 1]

  /// Distributed-trace identity for this session's spans (service jobs: the
  /// job's root span). Telemetry only — never read by tuning decisions, so
  /// traced and untraced sessions stay bit-identical. Invalid = untraced.
  telemetry::TraceContext trace;
  /// Service job id attached to this session's spans (0 = none).
  std::uint64_t trace_job_id = 0;
};

/// Drive one tuner to completion. Implemented as a single-job schedule
/// (tuning/scheduler.hpp) so the session loop and the multi-task scheduler
/// are one code path.
Trace run_session(Tuner& tuner, const searchspace::Task& task,
                  const hwspec::GpuSpec& hw, gpusim::Measurer& measurer,
                  const SessionOptions& options);

/// True when two traces made the same decisions: same configs, results, and
/// step indices trial for trial, ignoring `elapsed_s`. This is the identity
/// that holds across cache on/off (a cache hit charges zero simulated time,
/// so the clocks diverge while everything else stays bit-identical).
bool trace_decisions_identical(const Trace& a, const Trace& b);

}  // namespace glimpse::tuning
