// Hardware-Aware Sampling (paper §3.3): an ensemble of threshold predictors
// that votes to reject invalid configurations *before* they waste a real
// hardware measurement.
//
// For each resource dimension of the search space (thread count, shared
// memory, registers, virtual threads, unroll size, launch feasibility) the
// ensemble holds several light-weight predictors mapping the hardware
// Blueprint to that dimension's limit (ridge regressions fit on the
// training-GPU population, each with a different regularization — the
// "ensemble of light-weight predictors" the paper prefers over one
// monolithic model). A dimension flags a configuration invalid when more
// than tau of its predictors vote invalid (tau = 1/3, the paper's
// grid-searched value); a flagged dimension rejects the configuration.
//
// Evaluation is O(1) per configuration — a fixed number of threshold
// comparisons — versus the O(n*k*iters) clustering of Chameleon's sampler,
// which bench/micro_components quantifies.
#pragma once

#include <array>

#include "glimpse/blueprint.hpp"
#include "searchspace/features.hpp"

namespace glimpse::core {

/// Resource dimensions covered by the ensemble.
enum class ResourceDim : std::size_t {
  kThreadsPerBlock = 0,
  kSharedBytes,
  kRegsPerThread,
  kVThreads,
  kUnrolledBody,
  kRegsPerBlock,
  kCount
};

inline constexpr std::size_t kNumResourceDims =
    static_cast<std::size_t>(ResourceDim::kCount);

/// The members' ridge regularizations are constants in
/// validity_ensemble.cpp (one member per value).
struct ValidityEnsembleOptions {
  double tau = 1.0 / 3.0;  ///< reject when > tau of a dimension's predictors vote invalid
};

class ValidityEnsemble {
 public:
  /// Fit threshold predictors on the training GPUs' blueprints against
  /// their datasheet limits (in log space; limits are positive and
  /// multiplicative in nature).
  ValidityEnsemble(const BlueprintEncoder& encoder,
                   const std::vector<const hwspec::GpuSpec*>& train_gpus,
                   ValidityEnsembleOptions options = {});

  /// Predicted per-dimension limits for one target blueprint; one entry per
  /// ensemble member. Computed once per (device), then reused per config.
  using Thresholds = std::array<double, kNumResourceDims>;
  std::vector<Thresholds> thresholds_for(std::span<const double> blueprint) const;

  /// O(1) accept test of a derived configuration against precomputed
  /// thresholds.
  bool accept(const searchspace::DerivedConfig& d,
              const std::vector<Thresholds>& thresholds) const;

  /// Convenience: derive + threshold in one call (slower path).
  bool accept(const searchspace::Task& task, const searchspace::Config& config,
              const std::vector<Thresholds>& thresholds) const;

  double tau() const { return tau_; }
  std::size_t num_members() const { return weights_.size(); }

  void save(TextWriter& w) const;
  static ValidityEnsemble load(TextReader& r);

 private:
  ValidityEnsemble() = default;  // for load()

  double tau_ = 0.0;
  /// weights_[member][dim] is a (blueprint_dim + 1)-vector (affine, log-space).
  std::vector<std::array<linalg::Vector, kNumResourceDims>> weights_;
  /// Prediction clamps (log-space) derived from the training population.
  std::array<double, kNumResourceDims> log_clamp_lo_{};
  std::array<double, kNumResourceDims> log_clamp_hi_{};
  std::size_t blueprint_dim_ = 0;
};

}  // namespace glimpse::core
