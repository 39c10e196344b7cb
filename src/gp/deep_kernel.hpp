// Deep-kernel Gaussian process: an MLP embedding feeding an exact GP.
//
// This is the core of the DGP baseline (Sun et al., ICCV'21): the embedding
// is pretrained on tuning logs from *other* tasks (transfer), then an exact
// GP over embedded features models the current task. We pretrain the MLP as
// a performance regressor and use its penultimate layer as the embedding,
// which sidesteps backprop through the GP marginal likelihood while keeping
// the transfer property the baseline relies on.
#pragma once

#include <optional>

#include "gp/gp_regression.hpp"
#include "ml/scaler.hpp"
#include "nn/adam.hpp"
#include "nn/mlp.hpp"

namespace glimpse::gp {

/// The pretraining learning rate and the GP head's noise and lengthscale
/// are constants in deep_kernel.cpp.
struct DeepKernelOptions {
  std::size_t embed_dim = 12;
  std::size_t hidden = 32;
  int pretrain_epochs = 60;
  std::size_t max_gp_points = 256;  ///< subsample cap for the O(n^3) GP fit
};

class DeepKernelGp {
 public:
  /// input_dim: raw feature dimension the embedder consumes.
  DeepKernelGp(std::size_t input_dim, DeepKernelOptions options, Rng& rng);

  /// Pretrain the embedding MLP as a regressor of y over x (transfer data).
  void pretrain(const linalg::Matrix& x, const linalg::Vector& y, Rng& rng);

  /// Fit the GP head on the current task's measured data.
  void fit(const linalg::Matrix& x, const linalg::Vector& y, Rng& rng);

  GpPrediction predict(std::span<const double> x) const;

  /// MLP-embedded representation of a raw feature vector.
  linalg::Vector embed(std::span<const double> x) const;

  /// Embed every row of x via the batched MLP forward (row i equals
  /// embed(x.row(i)) bit-exactly). One call amortizes one parallel matrix
  /// product per layer across the whole batch.
  linalg::Matrix embed_batch(const linalg::Matrix& x) const;

  bool fitted() const { return gp_.has_value() && gp_->fitted(); }
  bool pretrained() const { return pretrained_; }

 private:
  DeepKernelOptions options_;
  ml::StandardScaler scaler_;
  nn::Mlp embedder_;  ///< trunk; last hidden layer is the embedding
  std::optional<GpRegressor> gp_;
  bool pretrained_ = false;
};

}  // namespace glimpse::gp
