// Learned config prediction: an offline MLP that maps (task features,
// hardware Blueprint embedding, config) -> expected relative quality, used
// by the warm-start advisor (tuning/warmstart.hpp) to rank seed candidates
// for a job before a single measurement is spent.
//
// Representation. The input row is transfer_features(task, config) — the
// fixed-length task-independent block (layer features + derived kernel
// geometry) every task shares — concatenated with a PCA embedding of the
// GPU datasheet vector. The embedding is the same mathematics as the
// paper's Blueprint (standardize hwspec features, keep the top components
// covering >= 99.5 % of variance); it is refit here from
// hwspec::feature_matrix() rather than reusing core::BlueprintEncoder
// because the tuning library must not depend on glimpse_core (which links
// back into tuning). The target is the sample's gflops normalized by its
// (task, hardware) group's best, so scores are comparable across layers and
// devices — the same normalization the AutoTVM transfer baseline uses.
//
// Training is plain minibatch Adam on MSE with a seeded Rng for init and
// shuffling: fit() is bit-deterministic for fixed samples and options, so a
// predictor trained twice from the same tiers is byte-identical on disk.
// Inference never touches an Rng — ranking candidates cannot perturb any
// tuning stream.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "hwspec/gpu_spec.hpp"
#include "ml/pca.hpp"
#include "ml/scaler.hpp"
#include "nn/mlp.hpp"
#include "searchspace/task.hpp"
#include "tuning/dataset.hpp"

namespace glimpse::tuning {

/// Fit the datasheet -> Blueprint PCA over the full hardware database at
/// the smallest dimension whose components cover 99.5 % of the datasheet
/// variance (the paper's information-loss knob, a constant in
/// config_predictor.cpp). Deterministic — PCA involves no randomness.
/// Shared by the predictor and the warm-start advisor; it is the same
/// mathematics as core::BlueprintEncoder, refit here because glimpse_tuning
/// cannot link glimpse_core.
ml::Pca fit_blueprint_pca();

/// The hidden layer widths are constants in config_predictor.cpp.
struct PredictorTrainOptions {
  std::size_t epochs = 40;
  std::size_t batch = 32;
  double lr = 1e-3;
  std::uint64_t seed = 0x77617273ULL;  // "wars"
};

class ConfigPredictor {
 public:
  ConfigPredictor() = default;

  /// Train from scratch on each sample's (task, hw, config) -> score, the
  /// group-normalized quality in [0, 1]. Requires a non-empty sample set;
  /// throws otherwise.
  void fit(const std::vector<DatasetSample>& samples,
           const PredictorTrainOptions& options = {});

  bool fitted() const { return mlp_.has_value(); }

  /// Predicted relative quality of `config` for (task, hw); meaningful only
  /// relative to other predictions for the same (task, hw).
  double predict(const searchspace::Task& task, const hwspec::GpuSpec& hw,
                 const searchspace::Config& config) const;

  /// Top-k candidates by predicted score, best first. Ties break on
  /// lexicographically smaller config so the ranking is deterministic.
  std::vector<std::pair<searchspace::Config, double>> rank(
      const searchspace::Task& task, const hwspec::GpuSpec& hw,
      const std::vector<searchspace::Config>& candidates, std::size_t k) const;

  /// Training-set MSE of the fitted model (for the trainer CLI's report).
  double train_mse() const { return train_mse_; }
  std::size_t train_samples() const { return train_samples_; }
  std::size_t blueprint_dim() const { return hw_pca_.num_components(); }

  void save(TextWriter& w) const;
  static ConfigPredictor load(TextReader& r);

  /// File-level persistence ("train once offline, ship the file").
  void save_file(const std::string& path) const;
  static ConfigPredictor load_file(const std::string& path);

 private:
  linalg::Vector input_row(const searchspace::Task& task,
                           const hwspec::GpuSpec& hw,
                           const searchspace::Config& config) const;

  ml::Pca hw_pca_;           ///< datasheet -> Blueprint embedding
  ml::StandardScaler scaler_;
  std::optional<nn::Mlp> mlp_;
  double train_mse_ = 0.0;
  std::size_t train_samples_ = 0;
};

}  // namespace glimpse::tuning
