// Deep-kernel embedding: the MLP half of a deep-kernel Gaussian process.
//
// This is the core of the DGP baseline (Sun et al., ICCV'21): the embedding
// is pretrained on tuning logs from *other* tasks (transfer), then an exact
// GP over embedded features models the current task. We pretrain the MLP as
// a performance regressor and use its penultimate layer as the embedding,
// which sidesteps backprop through the GP marginal likelihood while keeping
// the transfer property the baseline relies on. The GP belongs to DgpTuner
// (baselines/dgp.cpp), which fits a GpRegressor on embed_batch's rows.
#pragma once

#include "ml/scaler.hpp"
#include "nn/mlp.hpp"

namespace glimpse::gp {

/// The pretraining learning rate is a constant in deep_kernel.cpp.
struct DeepKernelOptions {
  std::size_t embed_dim = 12;
  std::size_t hidden = 32;
  int pretrain_epochs = 60;
};

class DeepKernelGp {
 public:
  /// input_dim: raw feature dimension the embedder consumes.
  DeepKernelGp(std::size_t input_dim, DeepKernelOptions options, Rng& rng);

  /// Pretrain the embedding MLP as a regressor of y over x (transfer data).
  void pretrain(const linalg::Matrix& x, const linalg::Vector& y, Rng& rng);

  /// Embed every row of x: row i is the MLP's penultimate-layer activation on
  /// x.row(i), after the scaler fitted in pretrain(). One call runs one
  /// matrix product per layer across the whole batch.
  linalg::Matrix embed_batch(const linalg::Matrix& x) const;

  bool pretrained() const { return pretrained_; }

 private:
  DeepKernelOptions options_;
  ml::StandardScaler scaler_;
  nn::Mlp embedder_;  ///< trunk; last hidden layer is the embedding
  bool pretrained_ = false;
};

}  // namespace glimpse::gp
