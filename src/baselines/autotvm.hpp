// AutoTVM baseline (Chen et al., NeurIPS'18 "Learning to optimize tensor
// programs"): a gradient-boosted-tree cost model fit on measured configs,
// parallel simulated annealing over the model to plan candidates, and an
// epsilon-greedy measurement batch. Optionally warm-started from other
// tasks' logs through a shared-feature transfer model (the paper's
// "AutoTVM w/ Transfer Learning" arm in Fig. 5). The search constants
// (exploration share, annealing pool, fit threshold) live in autotvm.cpp.
#pragma once

#include <memory>

#include "ml/gbt.hpp"
#include "tuning/dataset.hpp"
#include "tuning/sa.hpp"
#include "tuning/tuner.hpp"

namespace glimpse::baselines {

/// Transfer model shared across tuners: GBT over the task-independent
/// derived knob features (the representation AutoTVM-style cost-model
/// transfer actually has — no workload-shape conditioning), trained on
/// measured samples from other (task, hardware) combinations. Each sample's
/// gflops is normalized by the best among the samples passed in for its
/// (task name, GPU name) group, not by DatasetSample::score: a caller that
/// passes a subset of a group normalizes by the subset's best.
std::shared_ptr<const ml::GbtRegressor> fit_transfer_model(
    const std::vector<const tuning::DatasetSample*>& samples, Rng& rng);

class AutoTvmTuner : public tuning::TunerBase {
 public:
  AutoTvmTuner(const searchspace::Task& task, const hwspec::GpuSpec& hw,
               std::uint64_t seed,
               std::shared_ptr<const ml::GbtRegressor> transfer_model = nullptr);

  std::string name() const override {
    return transfer_model_ ? "AutoTVM+TL" : "AutoTVM";
  }
  std::vector<tuning::Config> propose(std::size_t n) override;
  void update(const std::vector<tuning::Config>& configs,
              const std::vector<tuning::MeasureResult>& results) override;

  /// Warm start (tuning/warmstart.hpp): the seeds are proposed first — ahead
  /// of cold-start random — so the donor-measured winners enter the history
  /// immediately; they also join the SA init chains and enter the GBT fit as
  /// prior rows that count toward the fit threshold, so the surrogate comes
  /// online rounds earlier than a cold run. Ignored after the first
  /// propose().
  void set_warm_start(const std::vector<tuning::Config>& configs,
                      const std::vector<double>& scores) override;

 protected:
  /// Model-based scores of a batch of configs (local model, else transfer
  /// model): featurized into one matrix and scored by one predict call on
  /// the calling thread.
  std::vector<double> score(const std::vector<tuning::Config>& configs) const;
  bool model_ready() const;
  void maybe_refit();
  std::size_t num_valid_measured() const;

  /// Emit not-yet-proposed warm seeds into `out` (up to `n` total entries),
  /// marking them visited. Called at the top of every propose() path,
  /// including ChameleonTuner's.
  void warm_fill(std::vector<tuning::Config>& out, std::size_t n);
  /// SA chain seeds: best measured config plus the warm seeds.
  std::vector<tuning::Config> sa_init() const;

  std::shared_ptr<const ml::GbtRegressor> transfer_model_;
  ml::GbtRegressor local_model_;
  bool needs_refit_ = true;
  bool local_fitted_ = false;

  // Warm-start state (see set_warm_start).
  std::vector<tuning::Config> warm_configs_;
  std::vector<double> warm_scores_;
  std::size_t warm_proposed_ = 0;  ///< seeds already emitted by warm_fill
  bool proposed_any_ = false;      ///< set_warm_start is a no-op once true
};

tuning::TunerFactory autotvm_factory(
    std::shared_ptr<const ml::GbtRegressor> transfer_model = nullptr);

}  // namespace glimpse::baselines
