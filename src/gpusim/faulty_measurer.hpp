// Fault-injecting decorator over a Measurer.
//
// A production auto-tuner's measurement path is an unreliable RPC: workers
// get preempted, devices hang, results arrive garbled. `FaultInjector`
// reproduces those scenarios deterministically on top of the simulator so
// the retry pipeline (tuning/measure.hpp) and the session's crash-safety
// (tuning/checkpoint.hpp) can be tested against every failure mode.
//
// Determinism contract: each measurement attempt draws its fault decision
// from Rng::fork(plan.seed, attempt_index) — a stateless substream — so a
// fault schedule depends only on (plan, attempt order), never on thread
// count or wall clock. Sessions issue measurements serially, and the
// attempt counter is part of the checkpointed state, so a resumed session
// replays the exact remaining fault schedule.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "gpusim/measurer.hpp"

namespace glimpse::gpusim {

/// Failure modes the injector can produce. Spikes are not errors — the
/// measurement succeeds but costs `kSpikeFactor` more simulated time.
enum class FaultKind : unsigned char {
  kTransient = 0,  ///< worker died; no result, small cost
  kTimeout,        ///< device hung until the per-attempt timeout
  kLatencySpike,   ///< queueing/thermal hiccup; valid result, inflated cost
  kCorrupt,        ///< result silently garbled (detected downstream)
  kCount,          ///< number of kinds (array sizing)
};
const char* to_string(FaultKind k);

/// Simulated cost of each injected fault.
inline constexpr double kTransientCostS = 0.3;  ///< cost charged when a worker dies
inline constexpr double kTimeoutCostS = 10.0;   ///< timeout charged when none is supplied
inline constexpr double kSpikeFactor = 8.0;     ///< cost multiplier on a latency spike

/// Fault policy: per-kind probabilities and an optional deterministic
/// schedule of forced faults.
struct FaultPlan {
  std::uint64_t seed = 0x6661756c74ULL;  // "fault"
  double p_transient = 0.0;
  double p_timeout = 0.0;
  double p_spike = 0.0;
  double p_corrupt = 0.0;

  /// Attempt indices (0-based, in injector order) that deterministically
  /// fail with a transient fault regardless of probabilities — for tests
  /// that need a fault at an exact position.
  std::vector<std::uint64_t> scheduled_transients;
};

/// Decorates an inner Measurer with deterministic fault injection.
class FaultInjector final : public Measurer {
 public:
  FaultInjector(Measurer& inner, FaultPlan plan)
      : inner_(inner), plan_(std::move(plan)) {}

  using Measurer::measure;
  MeasureResult measure(const searchspace::Task& task, const hwspec::GpuSpec& hw,
                        const searchspace::Config& config, double timeout_s) override;

  double elapsed_seconds() const override { return inner_.elapsed_seconds(); }
  void add_cost(double seconds) override { inner_.add_cost(seconds); }

  /// Injector counters + inner measurer state (for checkpoints).
  void save_state(TextWriter& w) const override;
  void load_state(TextReader& r) override;

  const FaultPlan& plan() const { return plan_; }
  std::uint64_t num_attempts() const { return attempts_; }
  std::uint64_t num_injected(FaultKind k) const {
    return injected_[static_cast<std::size_t>(k)];
  }
  /// Injected failures that make an attempt unusable (spikes excluded).
  std::uint64_t num_failures() const;

 private:
  Measurer& inner_;
  FaultPlan plan_;
  std::uint64_t attempts_ = 0;
  std::array<std::uint64_t, static_cast<std::size_t>(FaultKind::kCount)> injected_{};
};

}  // namespace glimpse::gpusim
