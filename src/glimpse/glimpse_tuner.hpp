// GlimpseTuner: Algorithm 1 of the paper — the hardware-aware Bayesian
// optimization loop composing the three Blueprint-driven components:
//
//   f^ <- H(layer, Blueprint)            // prior distributions (§3.1)
//   loop:
//     xs        <- simulated annealing with the surrogate as energy
//     xs_pruned <- neural acquisition function re-ranks with Blueprint hints (§3.2)
//     xs_sampled<- validity-ensemble rejection sampling (§3.3)
//     measure xs_sampled on real hardware; update surrogate
//
// Ablation switches (use_prior / use_meta / use_validity) let the benches
// quantify each component's contribution; with all three off the loop
// degenerates to surrogate-guided annealing (an AutoTVM-like blind tuner
// with a neural cost model).
#pragma once

#include <memory>

#include "glimpse/blueprint.hpp"
#include "glimpse/meta_optimizer.hpp"
#include "glimpse/prior_generator.hpp"
#include "glimpse/surrogate.hpp"
#include "glimpse/validity_ensemble.hpp"
#include "tuning/tuner.hpp"

namespace glimpse::core {

/// Pretrained, shareable Glimpse state: everything derived offline from the
/// hardware database and the offline dataset (leave-target-out).
struct GlimpseArtifacts {
  std::shared_ptr<const BlueprintEncoder> encoder;
  std::shared_ptr<const PriorGenerator> prior;
  std::shared_ptr<const MetaOptimizer> meta;
  std::shared_ptr<const ValidityEnsemble> validity;
};

/// Train all Glimpse components on an offline dataset and a training-GPU
/// population (which must exclude the evaluation target for honest
/// leave-target-out results).
GlimpseArtifacts pretrain_glimpse(const tuning::OfflineDataset& dataset,
                                  const std::vector<const hwspec::GpuSpec*>& train_gpus,
                                  std::size_t blueprint_dim, Rng& rng,
                                  PriorTrainOptions prior_options = {},
                                  MetaTrainOptions meta_options = {});

/// Persist pretrained artifacts ("train once offline, ship the file").
void save_artifacts(const GlimpseArtifacts& artifacts, const std::string& path);
GlimpseArtifacts load_artifacts(const std::string& path);

/// The ablation switches. The search constants (annealing pool, prior
/// rounds, surrogate fit threshold, exploration share) are in
/// glimpse_tuner.cpp.
struct GlimpseOptions {
  bool use_prior = true;
  bool use_meta = true;
  bool use_validity = true;
};

class GlimpseTuner final : public tuning::TunerBase {
 public:
  GlimpseTuner(const searchspace::Task& task, const hwspec::GpuSpec& hw,
               std::uint64_t seed, GlimpseArtifacts artifacts,
               GlimpseOptions options = {});

  std::string name() const override { return "Glimpse"; }
  std::vector<tuning::Config> propose(std::size_t n) override;
  void update(const std::vector<tuning::Config>& configs,
              const std::vector<tuning::MeasureResult>& results) override;

  /// Candidates rejected by Hardware-Aware Sampling so far (telemetry).
  std::size_t num_rejected_by_sampler() const { return rejected_by_sampler_; }

 private:
  std::vector<tuning::Config> propose_from_prior(std::size_t n);
  std::vector<tuning::Config> propose_from_search(std::size_t n);
  void maybe_refit_surrogate();
  bool sampler_accepts(const tuning::Config& c);

  GlimpseArtifacts artifacts_;
  GlimpseOptions options_;

  linalg::Vector blueprint_;
  std::optional<Prior> prior_;
  double prior_mean_ = 0.0, prior_std_ = 1.0;
  std::vector<ValidityEnsemble::Thresholds> thresholds_;
  NeuralSurrogate surrogate_;
  bool surrogate_dirty_ = true;
  std::size_t rounds_ = 0;
  std::size_t rejected_by_sampler_ = 0;
};

tuning::TunerFactory glimpse_factory(GlimpseArtifacts artifacts,
                                     GlimpseOptions options = {});

}  // namespace glimpse::core
