// The tuner interface every search strategy implements (AutoTVM-style
// propose/update loop), plus a convenience base class with the bookkeeping
// all of them share (dedup of proposals, best-so-far, RNG).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "tuning/measure.hpp"

namespace glimpse::tuning {

class Tuner {
 public:
  virtual ~Tuner() = default;

  virtual std::string name() const = 0;

  /// Propose up to `n` configurations for the next measurement batch.
  /// May return fewer when the (deduplicated) space is nearly exhausted;
  /// returning an empty vector ends the session. Must be a function of the
  /// tuner's construction arguments (seed included), its warm start and the
  /// results fed back so far: a resume replays it (tuning/checkpoint.hpp).
  virtual std::vector<Config> propose(std::size_t n) = 0;

  /// Feed back measurement results for previously proposed configs.
  virtual void update(const std::vector<Config>& configs,
                      const std::vector<MeasureResult>& results) = 0;

  /// Warm-start hint from the warm-start advisor (tuning/warmstart.hpp):
  /// candidate configs ordered best-first with prior scores in (0, 1]
  /// (relative quality on the donor device / under the predictor — higher is
  /// better). Purely advisory: the default implementation ignores it, and a
  /// tuner that honors it must (a) still measure the seeds before trusting
  /// them (the per-device quirk factor makes transfer imperfect by design)
  /// and (b) take seeds only through this call: the session journals the
  /// seeds it applied (tuning/checkpoint.hpp) and a resume replays those,
  /// even if the advisor would compute different seeds today. Call before
  /// the first propose(); later calls are ignored by honoring tuners.
  virtual void set_warm_start(const std::vector<Config>& configs,
                              const std::vector<double>& scores) {
    (void)configs;
    (void)scores;
  }

  /// Unused: sessions checkpoint by journaling measured batches and resume
  /// by replaying them (tuning/checkpoint.hpp), so a tuner's state is its
  /// seed plus the results fed back. Nothing in the library calls these
  /// three; they stay declared for decorators that still forward them.
  virtual bool checkpointable() const { return false; }
  virtual void save(TextWriter& w) const;  ///< throws unless checkpointable
  virtual void load(TextReader& r);        ///< throws unless checkpointable
};

/// Factory signature used by the experiment harness: build a tuner for one
/// (task, device) pair with a deterministic seed.
using TunerFactory = std::function<std::unique_ptr<Tuner>(
    const searchspace::Task&, const hwspec::GpuSpec&, std::uint64_t seed)>;

/// Shared plumbing: visited-set dedup, best-measured tracking, rng.
class TunerBase : public Tuner {
 public:
  TunerBase(const searchspace::Task& task, const hwspec::GpuSpec& hw,
            std::uint64_t seed)
      : task_(task), hw_(hw), rng_(seed) {}

  void update(const std::vector<Config>& configs,
              const std::vector<MeasureResult>& results) override;

 protected:
  /// Record-keeping part of update(); subclasses call this then learn.
  void record_results(const std::vector<Config>& configs,
                      const std::vector<MeasureResult>& results);

  /// True if the config was proposed before (and marks it visited).
  bool mark_visited(const Config& c) { return !visited_.insert(c).second; }
  bool is_visited(const Config& c) const { return visited_.contains(c); }

  /// Draw an unvisited random config; returns false after `tries` misses
  /// (space nearly exhausted).
  bool random_unvisited(Config& out, int tries = 64);
  /// Append unvisited random configs (marking each visited) until `out`
  /// holds `n`, or until random_unvisited gives up.
  void fill_random(std::vector<Config>& out, std::size_t n);

  const searchspace::Task& task_;
  const hwspec::GpuSpec& hw_;
  Rng rng_;
  std::unordered_set<Config, searchspace::ConfigHash> visited_;

  // Measured history (all results, including invalid ones).
  std::vector<Config> measured_configs_;
  std::vector<MeasureResult> measured_results_;
  double best_gflops_ = 0.0;
  Config best_config_;
};

}  // namespace glimpse::tuning
