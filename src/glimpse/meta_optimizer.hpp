// Meta-Optimizer: the neural acquisition function of Hardware-Aware
// Exploration (paper §3.2, inspired by MetaBO [17]).
//
// At tuning time, simulated annealing over the surrogate cost model proposes
// candidates (Algorithm 1); the neural acquisition function then re-ranks
// them from: the surrogate's mean and uncertainty for the candidate, the
// candidate's prior score, the optimization progress t/T, the hardware
// Blueprint, and the candidate's derived kernel features. Because the
// Blueprint is an input, the learned exploration-exploitation trade-off is
// hardware-conditioned — the paper's central claim.
//
// Offline meta-training iterates over (network, hardware) pairs of the
// training set: surrogate states of varying maturity are reconstructed from
// dataset subsets (emulating tuning stages t/T), and the acquisition
// function is trained to predict candidates' true normalized performance
// from the state it would see at that stage. High-uncertainty candidates
// pay off when surrogates are immature; the model learns that trade-off as
// a function of progress and hardware instead of using a fixed UCB/EI rule.
#pragma once

#include "glimpse/blueprint.hpp"
#include "glimpse/prior_generator.hpp"
#include "glimpse/surrogate.hpp"
#include "nn/mlp.hpp"
#include "tuning/dataset.hpp"

namespace glimpse::core {

/// Scalar state the acquisition function sees for one candidate.
struct MetaFeatures {
  double surrogate_mean = 0.0;
  double surrogate_std = 0.0;
  double prior_z = 0.0;   ///< prior score, z-scored within the candidate set
  double progress = 0.0;  ///< t / T
};

/// The emulated stages, candidate counts, base history, learning rate and
/// hidden width are constants in meta_optimizer.cpp.
struct MetaTrainOptions {
  std::size_t max_groups = 72;      ///< (task, hw) groups sampled for training
  std::size_t measured_full = 128;  ///< surrogate history at progress 1
  int epochs = 30;
};

class MetaOptimizer {
 public:
  MetaOptimizer(std::size_t blueprint_dim, Rng& rng, MetaTrainOptions options = {});

  /// Offline meta-training across the dataset's (task, hardware) groups.
  /// `prior` must already be trained.
  void train(const tuning::OfflineDataset& dataset, const BlueprintEncoder& encoder,
             const PriorGenerator& prior, Rng& rng);

  /// Acquisition value of a candidate (higher = measure sooner): the
  /// one-row case of score_batch(). `derived` is the candidate's derived
  /// kernel-feature block (searchspace::derived_config_features).
  double score(const MetaFeatures& f, std::span<const double> blueprint,
               std::span<const double> derived) const;

  /// Acquisition values of packed candidates, one per row of `rows` (each
  /// row laid out by write_row()), from one batched forward pass. Entry i
  /// is bit-identical to score() on row i's inputs.
  linalg::Vector score_batch(const linalg::Matrix& rows) const;

  /// Pack one candidate into an input row of input_dim() doubles: the four
  /// MetaFeatures scalars, then the blueprint, then the derived block.
  void write_row(const MetaFeatures& f, std::span<const double> blueprint,
                 std::span<const double> derived, std::span<double> row) const;

  bool trained() const { return trained_; }
  std::size_t input_dim() const { return net_.input_dim(); }

  void save(TextWriter& w) const;
  static MetaOptimizer load(TextReader& r);

 private:
  MetaOptimizer(std::size_t blueprint_dim, nn::Mlp net)
      : blueprint_dim_(blueprint_dim), net_(std::move(net)), trained_(true) {}

  std::size_t blueprint_dim_;
  MetaTrainOptions options_;
  nn::Mlp net_;
  bool trained_ = false;
};

}  // namespace glimpse::core
