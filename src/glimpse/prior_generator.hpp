// Prior-distribution generator H (paper §3.1).
//
// A HyperNetworks-inspired model that maps (layer specification, Blueprint)
// to one categorical distribution per dimension of the knob space — "H
// generates f_{k,tile_x} and f_{k,tile_y} for tile_x and tile_y". Knob parts
// are bucketized by log2 so one set of heads covers every extent; a concrete
// knob option is scored by the product of its parts' bucket probabilities.
//
// H is trained offline on a TenSet-style dataset: for every (task, GPU)
// group the top-scoring configurations become cross-entropy targets, so H
// learns which region of each dimension is strong *as a function of the
// hardware embedding*. At tuning time one forward pass per layer yields the
// prior (the paper notes this one-off cost is negligible).
#pragma once

#include <optional>

#include "glimpse/blueprint.hpp"
#include "nn/adam.hpp"
#include "nn/mlp.hpp"
#include "searchspace/task.hpp"
#include "tuning/dataset.hpp"

namespace glimpse::core {

/// Number of log2 buckets a split part can fall into (factor 1 .. 512+).
inline constexpr std::size_t kLog2Buckets = 10;
/// Canonical dimension slots: 3 data-axis 4-way splits, 3 reduction splits.
inline constexpr std::size_t kDataSplitSlots = 3;
inline constexpr std::size_t kReduceSplitSlots = 3;

/// log2 bucket of a split factor.
std::size_t log2_bucket(int factor);

/// A generated prior: per-knob log-scores over each knob's options.
class Prior {
 public:
  Prior(const searchspace::ConfigSpace* space,
        std::vector<std::vector<double>> knob_scores)
      : space_(space), knob_scores_(std::move(knob_scores)) {}

  /// Sum of per-knob log-scores (log of the factored prior probability,
  /// up to normalization).
  double config_score(const searchspace::Config& c) const;

  /// Per-knob weighted sample ("weighted by the product of f_{k,*}").
  searchspace::Config sample(Rng& rng) const;

  /// The `n` highest-scoring configurations under the factored prior
  /// ("enumerates combinations of the argmax, weighted"): exact beam search
  /// over knobs, deterministic.
  std::vector<searchspace::Config> top_configs(std::size_t n) const;

  const std::vector<std::vector<double>>& knob_scores() const { return knob_scores_; }

 private:
  const searchspace::ConfigSpace* space_;
  std::vector<std::vector<double>> knob_scores_;  ///< [knob][option] log-score
};

/// The learning rate, hidden width and target share of each group are
/// constants in prior_generator.cpp.
struct PriorTrainOptions {
  int epochs = 30;
};

class PriorGenerator {
 public:
  PriorGenerator(std::size_t blueprint_dim, Rng& rng,
                 PriorTrainOptions options = {});

  /// Offline training over a dataset and the blueprint encoder that will be
  /// used at tuning time.
  void train(const tuning::OfflineDataset& dataset, const BlueprintEncoder& encoder,
             Rng& rng);

  /// Generate the prior for one layer on one hardware blueprint.
  Prior generate(const searchspace::Task& task,
                 std::span<const double> blueprint) const;

  bool trained() const { return trained_; }
  std::size_t blueprint_dim() const { return blueprint_dim_; }

  /// Total output width of the head stack (exposed for tests).
  static std::size_t head_output_dim();

  void save(TextWriter& w) const;
  static PriorGenerator load(TextReader& r);

 private:
  PriorGenerator(std::size_t blueprint_dim, nn::Mlp net)
      : blueprint_dim_(blueprint_dim), net_(std::move(net)), trained_(true) {}

  std::size_t blueprint_dim_;
  PriorTrainOptions options_;
  nn::Mlp net_;
  bool trained_ = false;
};

}  // namespace glimpse::core
